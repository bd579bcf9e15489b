//! Figure 7: the 16 shared k-means patterns of the KV codec are highly
//! skewed (most centroids cluster near zero relative to the absmax).

use ecco_core::{EccoConfig, KvCodec};
use ecco_tensor::{synth::SynthSpec, TensorKind};

fn main() {
    let k = SynthSpec::for_kind(TensorKind::KCache, 128, 1024)
        .seeded(7)
        .generate();
    let codec = KvCodec::calibrate(&[&k], &EccoConfig::default());
    let meta = codec.metadata();

    println!("\n=== Figure 7 — shared k-means patterns (KV codec, S=16) ===");
    println!("Each row: one pattern; '*' marks centroid positions in [-1, 1].\n");
    const W: usize = 81;
    for (i, p) in meta.patterns().iter().enumerate() {
        let mut line = vec![b'.'; W];
        line[W / 2] = b'|';
        for &c in p.centroids() {
            let pos = (((c + 1.0) / 2.0) * (W - 1) as f32).round() as usize;
            line[pos.min(W - 1)] = b'*';
        }
        println!("KP{:<2} {}", i + 1, String::from_utf8_lossy(&line));
    }

    // Quantify the skew: fraction of centroid mass inside |c| < 0.25.
    let mut near_zero = 0usize;
    let mut total = 0usize;
    for p in meta.patterns() {
        near_zero += p.centroids().iter().filter(|c| c.abs() < 0.25).count();
        total += p.centroids().len();
    }
    println!(
        "\n{:.1}% of centroids lie within |c| < 0.25 (paper: patterns are highly skewed\nbecause each group is scaled by its absmax, which is excluded from the pattern).",
        near_zero as f64 / total as f64 * 100.0
    );
    assert!(
        near_zero * 2 > total,
        "patterns should be skewed toward zero"
    );
}
