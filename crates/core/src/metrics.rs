//! Codec statistics: the clip/pad ratios of Figure 10 and bit accounting.
//!
//! These are the encoder's own counts; compression never decodes. The
//! round-trip error of a tensor is `ecco_tensor::stats::nmse` against
//! its decompressed reconstruction.

use crate::block::EncodedGroupInfo;

/// Aggregated compression statistics over a tensor (or a whole model).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CodecStats {
    /// Groups compressed.
    pub groups: usize,
    /// Total values compressed.
    pub values: usize,
    /// Symbols truncated by clipping.
    pub clipped_symbols: usize,
    /// Outliers stored in padding space.
    pub padded_outliers: usize,
    /// Total header bits.
    pub header_bits: usize,
    /// Total Huffman data bits (post-clip).
    pub data_bits: usize,
}

impl CodecStats {
    /// Accumulates one group's encoding report.
    pub fn record(&mut self, info: &EncodedGroupInfo, group_size: usize) {
        self.groups += 1;
        self.values += group_size;
        self.clipped_symbols += info.clipped_symbols;
        self.padded_outliers += info.padded_outliers;
        self.header_bits += info.header_bits;
        self.data_bits += info.data_bits;
    }

    /// Fraction of values lost to clipping (paper Figure 10, "Clipping").
    pub fn clip_ratio(&self) -> f64 {
        if self.values == 0 {
            0.0
        } else {
            self.clipped_symbols as f64 / self.values as f64
        }
    }

    /// Fraction of values preserved as padded outliers (Figure 10,
    /// "Padding").
    pub fn pad_ratio(&self) -> f64 {
        if self.values == 0 {
            0.0
        } else {
            self.padded_outliers as f64 / self.values as f64
        }
    }

    /// Average Huffman data bits per value (before headers).
    pub fn avg_data_bits_per_value(&self) -> f64 {
        if self.values == 0 {
            0.0
        } else {
            self.data_bits as f64 / self.values as f64
        }
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &CodecStats) {
        self.groups += other.groups;
        self.values += other.values;
        self.clipped_symbols += other.clipped_symbols;
        self.padded_outliers += other.padded_outliers;
        self.header_bits += other.header_bits;
        self.data_bits += other.data_bits;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios() {
        let mut s = CodecStats::default();
        s.record(
            &EncodedGroupInfo {
                clipped_symbols: 2,
                padded_outliers: 6,
                header_bits: 14,
                data_bits: 400,
                ..Default::default()
            },
            128,
        );
        assert!((s.clip_ratio() - 2.0 / 128.0).abs() < 1e-12);
        assert!((s.pad_ratio() - 6.0 / 128.0).abs() < 1e-12);
        assert!((s.avg_data_bits_per_value() - 400.0 / 128.0).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = CodecStats::default();
        assert_eq!(s.clip_ratio(), 0.0);
        assert_eq!(s.pad_ratio(), 0.0);
    }

    #[test]
    fn merge_adds_fields() {
        let mut a = CodecStats {
            groups: 1,
            values: 128,
            clipped_symbols: 1,
            ..Default::default()
        };
        let b = CodecStats {
            groups: 2,
            values: 256,
            padded_outliers: 5,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.groups, 3);
        assert_eq!(a.values, 384);
        assert_eq!(a.clipped_symbols, 1);
        assert_eq!(a.padded_outliers, 5);
    }
}
