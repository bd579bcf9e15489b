//! Figure 2: unique-value counts, entropy and bit efficiency across
//! tensor-wise / channel-wise / group-wise uniform quantization and
//! Ecco's entropy-based compression.

use ecco_baselines::uniform::{metadata_bits_per_value, rtn_codes, Granularity};
use ecco_bench::{f, print_table};
use ecco_core::{encode_group, normalize_group, EccoConfig, PatternSelector, TensorMetadata};
use ecco_entropy::stats::{histogram, shannon_entropy};
use ecco_tensor::{synth::SynthSpec, TensorKind};

fn main() {
    // 1024 groups of 128 values, as on the paper's x-axis. Real LLM weight
    // tensors carry a few channels whose magnitude dwarfs the bulk
    // (absmax 30-100x); those collapse coarse-granularity quantization to
    // near-zero entropy — the paper's leftmost panel. Boost two output
    // channels (rows) accordingly.
    let mut tensor = SynthSpec::for_kind(TensorKind::Weight, 128, 1024)
        .seeded(2)
        .generate();
    {
        let cols = tensor.cols();
        for hot in [17usize, 93] {
            for x in &mut tensor.data_mut()[hot * cols..(hot + 1) * cols] {
                *x *= 60.0;
            }
        }
    }
    let group = 128usize;
    let n_groups = tensor.len() / group;

    let mut rows = Vec::new();
    for (name, gran) in [
        ("Tensor-wise", Granularity::PerTensor),
        ("Channel-wise", Granularity::PerChannel),
        ("Group-wise", Granularity::PerGroup(group)),
    ] {
        let codes = rtn_codes(&tensor, 4, gran);
        let (uniq, ent) = per_group_stats(&codes, group, 16);
        let real_bits = 4.0 + metadata_bits_per_value(&tensor, gran);
        rows.push(vec![
            name.to_string(),
            f(uniq, 2),
            f(ent, 2),
            f(real_bits, 2),
            format!("{}%", f(ent / real_bits * 100.0, 2)),
        ]);
    }

    // Ecco: symbols from the real codec; real bits = 512-bit block per
    // group + amortized shared metadata.
    let cfg = EccoConfig::default();
    let meta = TensorMetadata::calibrate(&[&tensor], &cfg, PatternSelector::MseOptimal);
    let mut codes = Vec::with_capacity(tensor.len());
    for g in tensor.groups(group) {
        let ng = normalize_group(g, meta.tensor_scale());
        let kp = meta.select_pattern(&ng, PatternSelector::MseOptimal);
        for (i, &v) in ng.values.iter().enumerate() {
            codes.push(if i == ng.max_pos {
                15
            } else {
                meta.patterns()[kp].nearest(v)
            });
        }
        let _ = encode_group(g, &meta, PatternSelector::MseOptimal);
    }
    let (uniq, ent) = per_group_stats(&codes, group, 16);
    let real_bits = 4.0 + meta.metadata_bytes() as f64 * 8.0 / tensor.len() as f64;
    rows.push(vec![
        "Entropy-based (Ecco)".to_string(),
        f(uniq, 2),
        f(ent, 2),
        f(real_bits, 2),
        format!("{}%", f(ent / real_bits * 100.0, 2)),
    ]);

    print_table(
        &format!("Figure 2 — bit efficiency over {n_groups} groups (4-bit budget)"),
        &[
            "Method",
            "UniqueVals/group",
            "AvgEntropy",
            "RealBits",
            "BitEfficiency",
        ],
        &rows,
    );
    println!(
        "\nPaper reference: 0.09/4.00/2.25% | 1.58/4.01/39.4% | 2.73/4.25/64.2% | 3.15/4.01/78.5%"
    );
}

fn per_group_stats(codes: &[u16], group: usize, symbols: usize) -> (f64, f64) {
    let mut uniq = 0f64;
    let mut ent = 0f64;
    let n = codes.len() / group;
    for g in codes.chunks(group) {
        let h = histogram(g, symbols);
        uniq += h.iter().filter(|&&c| c > 0).count() as f64;
        ent += shannon_entropy(&h);
    }
    (uniq / n as f64, ent / n as f64)
}
