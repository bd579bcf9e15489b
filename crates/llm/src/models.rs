//! Architectural parameters of the evaluated models.

/// One decoder-only transformer architecture.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ModelSpec {
    /// Display name, e.g. `"LLaMA-13B"`.
    pub name: String,
    /// Number of transformer layers.
    pub layers: usize,
    /// Hidden (model) dimension.
    pub hidden: usize,
    /// Query heads.
    pub heads: usize,
    /// KV heads (< heads under grouped-query attention).
    pub kv_heads: usize,
    /// Dimension per head.
    pub head_dim: usize,
    /// Feed-forward intermediate dimension.
    pub ffn: usize,
    /// Vocabulary size.
    pub vocab: usize,
}

impl ModelSpec {
    /// LLaMA-7B (also the LLaMA-2-7B backbone).
    pub fn llama_7b() -> ModelSpec {
        ModelSpec {
            name: "LLaMA-7B".into(),
            layers: 32,
            hidden: 4096,
            heads: 32,
            kv_heads: 32,
            head_dim: 128,
            ffn: 11008,
            vocab: 32000,
        }
    }

    /// LLaMA-13B (also the LLaMA-2-13B backbone).
    pub fn llama_13b() -> ModelSpec {
        ModelSpec {
            name: "LLaMA-13B".into(),
            layers: 40,
            hidden: 5120,
            heads: 40,
            kv_heads: 40,
            head_dim: 128,
            ffn: 13824,
            vocab: 32000,
        }
    }

    /// LLaMA-30B.
    pub fn llama_30b() -> ModelSpec {
        ModelSpec {
            name: "LLaMA-30B".into(),
            layers: 60,
            hidden: 6656,
            heads: 52,
            kv_heads: 52,
            head_dim: 128,
            ffn: 17920,
            vocab: 32000,
        }
    }

    /// LLaMA-65B.
    pub fn llama_65b() -> ModelSpec {
        ModelSpec {
            name: "LLaMA-65B".into(),
            layers: 80,
            hidden: 8192,
            heads: 64,
            kv_heads: 64,
            head_dim: 128,
            ffn: 22016,
            vocab: 32000,
        }
    }

    /// LLaMA-2-70B (grouped-query attention, 8 KV heads).
    pub fn llama2_70b() -> ModelSpec {
        ModelSpec {
            name: "LLaMA2-70B".into(),
            layers: 80,
            hidden: 8192,
            heads: 64,
            kv_heads: 8,
            head_dim: 128,
            ffn: 28672,
            vocab: 32000,
        }
    }

    /// Mistral-7B (grouped-query attention, 8 KV heads).
    pub fn mistral_7b() -> ModelSpec {
        ModelSpec {
            name: "Mistral-7B".into(),
            layers: 32,
            hidden: 4096,
            heads: 32,
            kv_heads: 8,
            head_dim: 128,
            ffn: 14336,
            vocab: 32000,
        }
    }

    /// LLaMA-3.1-8B-Instruct (Table 4).
    pub fn llama31_8b() -> ModelSpec {
        ModelSpec {
            name: "LLaMA-3.1-8B".into(),
            layers: 32,
            hidden: 4096,
            heads: 32,
            kv_heads: 8,
            head_dim: 128,
            ffn: 14336,
            vocab: 128256,
        }
    }

    /// The Figure 11c model sweep, in the paper's order.
    pub fn figure11c_set() -> Vec<ModelSpec> {
        vec![
            ModelSpec::llama_7b(),
            ModelSpec::mistral_7b(),
            ModelSpec::llama_13b(),
            ModelSpec::llama_30b(),
            ModelSpec::llama_65b(),
            ModelSpec::llama2_70b(),
        ]
    }

    /// KV projection width: `kv_heads × head_dim`.
    pub fn kv_dim(&self) -> usize {
        self.kv_heads * self.head_dim
    }

    /// Shape of one request's per-layer K (or V) cache segment after
    /// `seq` generated tokens: `(seq, kv_dim)`. This is the tensor unit
    /// the online KV codec compresses per request — and the unit the
    /// batched multi-tensor submission APIs feed through the shared
    /// worker pool when many requests are in flight (`kv_dim` is a
    /// multiple of the codec's 128-value group for every model in the
    /// zoo; see `examples/batched_serving.rs`).
    pub fn kv_request_shape(&self, seq: usize) -> (usize, usize) {
        (seq, self.kv_dim())
    }

    /// Approximate parameter count (projections + embeddings).
    pub fn params(&self) -> u64 {
        let h = self.hidden as u64;
        let f = self.ffn as u64;
        let kvd = self.kv_dim() as u64;
        let per_layer = h * h // Q
            + 2 * h * kvd // K, V
            + h * h // O
            + 3 * h * f; // gate, up, down
        self.layers as u64 * per_layer + 2 * self.vocab as u64 * h
    }

    /// Uses grouped-query attention?
    pub fn uses_gqa(&self) -> bool {
        self.kv_heads < self.heads
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kv_request_shapes_are_group_aligned() {
        // Every zoo model's per-request KV segment must slice into whole
        // 128-value codec groups — the invariant the batched serving
        // path relies on.
        for m in ModelSpec::figure11c_set() {
            let (rows, cols) = m.kv_request_shape(2048);
            assert_eq!(rows, 2048);
            assert_eq!(
                cols % 128,
                0,
                "{} kv_dim {} not group-aligned",
                m.name,
                cols
            );
        }
    }

    #[test]
    fn parameter_counts_match_model_names() {
        let cases = [
            (ModelSpec::llama_7b(), 6.7e9, 7.5e9),
            (ModelSpec::llama_13b(), 12.5e9, 13.5e9),
            (ModelSpec::llama_30b(), 31.0e9, 34.0e9),
            (ModelSpec::llama_65b(), 63.0e9, 67.0e9),
            (ModelSpec::llama2_70b(), 66.0e9, 71.0e9),
            (ModelSpec::mistral_7b(), 7.0e9, 7.6e9),
            (ModelSpec::llama31_8b(), 7.5e9, 8.5e9),
        ];
        for (m, lo, hi) in cases {
            let p = m.params() as f64;
            assert!(p >= lo && p <= hi, "{}: {} params", m.name, p);
        }
    }

    #[test]
    fn gqa_flags() {
        assert!(!ModelSpec::llama_13b().uses_gqa());
        assert!(ModelSpec::mistral_7b().uses_gqa());
        assert!(ModelSpec::llama2_70b().uses_gqa());
    }

    #[test]
    fn head_geometry_consistent() {
        for m in ModelSpec::figure11c_set() {
            assert_eq!(m.heads * m.head_dim, m.hidden, "{}", m.name);
            assert!(m.kv_heads <= m.heads);
            assert_eq!(m.heads % m.kv_heads, 0, "{}", m.name);
        }
    }
}
