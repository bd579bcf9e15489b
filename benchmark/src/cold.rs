//! The `cold_start` workload: a compressed model file is opened and
//! loaded, whole and one layer at a time.
//!
//! Set-up builds a 4-layer model with LLaMA-3.1-8B projection shapes
//! (rows divided by 64, 13.6M weights), calibrates the weight codec on
//! its first layer, compresses it and writes it to an ECCF file. The
//! timed part alternates a cold start (a fresh `Container::open` plus a
//! `load` of every tensor) with a partial one (open plus the first
//! layer's 7 tensors, a quarter of the file). Every loaded tensor must be
//! bit-identical to `WeightCodec::decompress_batch` of the same
//! compressed tensors.
//!
//! The traced run also replays `load`'s stages one by one on a fresh
//! open (frame reads, per-tensor metadata views, then the `ecco-hw`
//! batch decode twice on the same views), so the stage ledger can be set
//! against the real load it shadows.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use ecco_bits::Block64;
use ecco_container::{write_model, Container, ContainerError};
use ecco_core::{
    BatchOutcome, CompressedTensor, EccoConfig, RecoveryPolicy, TensorMetadata, WeightCodec,
};
use ecco_llm::ModelSpec;
use ecco_tensor::{seed_for, synth::SynthSpec, Tensor, TensorKind};

use crate::report::{median, pct, percentile, ratio, Metrics, Outcome};
use crate::trace::Tracer;
use crate::Run;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Loads of each kind a run makes at least, however long they take.
const MIN_LOADS: usize = 3;
/// Highest `quality.weight_nmse` a run may report. Seeds 1 to 10 read
/// 0.0095 to 0.0099.
const WEIGHT_NMSE_MAX: f64 = 0.011;

/// The projections of one layer: name, rows, columns.
fn layer_shapes(m: &ModelSpec) -> [(&'static str, usize, usize); 7] {
    let (h, f, kv) = (m.hidden, m.ffn, m.kv_dim());
    [
        ("q", h, h),
        ("k", kv, h),
        ("v", kv, h),
        ("o", h, h),
        ("gate", f, h),
        ("up", f, h),
        ("down", h, f),
    ]
}

/// The model file; removed when dropped.
struct ModelFile(PathBuf);

impl Drop for ModelFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn bit_identical(got: &[f32], want: &[f32]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(a, b)| a.to_bits() == b.to_bits())
}

struct Loader<'a> {
    path: &'a std::path::Path,
    reference: &'a [Tensor],
    outcome: Outcome,
}

impl Loader<'_> {
    /// Opens the file, loads `names` (the first `names.len()` tensors) and
    /// checks them; returns the time from open to loaded.
    fn load(&mut self, names: &[&str]) -> Duration {
        let start = Instant::now();
        let loaded = Container::open(self.path).and_then(|c| c.load(names));
        let took = start.elapsed();
        self.outcome.attempted += 1;
        self.check(names, loaded);
        took
    }

    fn check(&mut self, names: &[&str], loaded: Result<Vec<Tensor>, ContainerError>) {
        match loaded {
            Err(e) => self
                .outcome
                .fail(format!("load of {} tensors: {e}", names.len())),
            Ok(tensors) if tensors.len() != names.len() => self.outcome.fail(format!(
                "load of {} tensors returned {}",
                names.len(),
                tensors.len()
            )),
            Ok(tensors) => {
                for ((t, want), name) in tensors.iter().zip(self.reference).zip(names) {
                    if !bit_identical(t.data(), want.data()) {
                        self.outcome
                            .fail(format!("{name} differs from the in-memory decode"));
                    }
                }
            }
        }
    }

    /// Alternates full and partial loads until `budget` of load time has
    /// passed; returns the full and partial cold-start times.
    fn alternate(
        &mut self,
        all: &[&str],
        layer: &[&str],
        budget: Duration,
    ) -> (Vec<Duration>, Vec<Duration>) {
        let (mut full, mut part) = (Vec::new(), Vec::new());
        let mut spent = Duration::ZERO;
        while spent < budget || full.len() < MIN_LOADS || part.len() < MIN_LOADS {
            full.push(self.load(all));
            part.push(self.load(layer));
            spent += full[full.len() - 1] + part[part.len() - 1];
        }
        (full, part)
    }
}

fn ms(samples: &[Duration]) -> Vec<f64> {
    samples.iter().map(|d| d.as_secs_f64() * 1e3).collect()
}

/// Runs `cold_start` and returns its metrics.
pub fn run(run: &Run) -> (Metrics, Outcome) {
    let model = ModelSpec::llama31_8b();
    let (layers, divisor) = if run.smoke { (1, 1024) } else { (4, 64) };
    let mut names = Vec::new();
    let mut tensors = Vec::new();
    for layer in 0..layers {
        for (proj, rows, cols) in layer_shapes(&model) {
            names.push(format!("blk.{layer}.{proj}"));
            tensors.push(
                SynthSpec::for_kind(TensorKind::Weight, rows / divisor, cols)
                    .seeded(seed_for(&model.name, layer, proj) ^ run.seed)
                    .generate(),
            );
        }
    }
    let refs: Vec<&Tensor> = tensors.iter().collect();
    let weights: usize = tensors.iter().map(Tensor::len).sum();
    let layer_weights: usize = tensors[..7].iter().map(Tensor::len).sum();
    let file = ModelFile(crate::out_dir().join(format!("cold_start-{}.eccf", std::process::id())));

    // Set-up: calibrate on the first layer, compress, write the file.
    let (mut setup_s, mut calibrate_s, mut encode_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut built = None;
    for _ in 0..run.setups(SETUP_REPEATS) {
        let start = Instant::now();
        let codec = WeightCodec::calibrate(&refs[..7], &EccoConfig::default());
        let calibrated = Instant::now();
        let cts: Vec<CompressedTensor> = codec
            .compress_batch(&refs)
            .into_iter()
            .map(|(ct, _)| ct)
            .collect();
        let encoded = Instant::now();
        let pairs: Vec<(&str, &CompressedTensor)> =
            names.iter().map(String::as_str).zip(&cts).collect();
        write_model(&file.0, codec.metadata(), &pairs).expect("write the model file");
        setup_s.push(start.elapsed().as_secs_f64());
        calibrate_s.push((calibrated - start).as_secs_f64());
        encode_s.push((encoded - calibrated).as_secs_f64());
        built = Some((codec, cts));
    }
    let (codec, cts) = built.expect("at least one set-up");
    let ct_refs: Vec<&CompressedTensor> = cts.iter().collect();
    let reference: Vec<Tensor> = codec
        .decompress_batch(&ct_refs)
        .into_iter()
        .map(|r| r.expect("freshly compressed tensors decode"))
        .collect();
    let (mut err_sq, mut energy) = (0.0, 0.0);
    for (t, r) in tensors.iter().zip(&reference) {
        for (&x, &y) in t.data().iter().zip(r.data()) {
            err_sq += ((x - y) as f64).powi(2);
            energy += (x as f64).powi(2);
        }
    }
    let weight_nmse = ratio(err_sq, energy);
    drop(tensors);
    let file_bytes = std::fs::metadata(&file.0)
        .expect("model file written")
        .len() as f64;

    let all: Vec<&str> = names.iter().map(String::as_str).collect();
    let layer = &all[..7];
    let mut loader = Loader {
        path: &file.0,
        reference: &reference,
        outcome: Outcome::default(),
    };
    let budget = Duration::from_secs_f64(run.seconds);
    let mut metrics = Metrics::default();
    if run.traced {
        let (full, part) = loader.alternate(&all, layer, budget / 2);
        let mut tracer = Tracer::new();
        let traced_full =
            traced_loads(&mut loader, &mut tracer, &codec, &ct_refs, &all, budget / 2);
        let (full, part) = (ms(&full), ms(&part));
        let full_p50 = median(&full);
        metrics.set(
            "bench.op_p99_over_p50",
            ratio(percentile(&full, 0.99), full_p50),
        );
        let frame_bytes = Container::open(&file.0)
            .map(|c| c.entries().iter().map(|e| e.len as f64).sum())
            .unwrap_or(0.0);
        let m = &mut metrics;
        ledger(m, &tracer, weights, frame_bytes);
        m.set(
            "container.partial_load.ratio",
            ratio(median(&part), full_p50),
        );
        m.set(
            "container.bits_per_value",
            file_bytes * 8.0 / weights as f64,
        );
        m.set("core.calibrate.busy_s", median(&calibrate_s));
        m.set(
            "core.weight_encode.mvalues_per_s",
            weights as f64 / 1e6 / median(&encode_s),
        );
        let decode = tracer.totals("core.weight_decode");
        m.set(
            "core.weight_decode.mvalues_per_s",
            ratio(decode.calls as f64 * weights as f64 / 1e6, decode.busy_s()),
        );
        m.set("quality.weight_nmse", weight_nmse);
        m.set(
            "pool.executors",
            ecco_pool::Pool::current().executors() as f64,
        );
        m.set(
            "trace.overhead_pct",
            pct(median(&ms(&traced_full)) - full_p50, full_p50),
        );
        m.set("trace.spans", tracer.recorded() as f64);
        crate::write_trace(run, &tracer);
    } else {
        let (full, part) = loader.alternate(&all, layer, budget);
        // Per pair of loads, FP16 MB delivered per second.
        let pair_mb = (weights + layer_weights) as f64 * 2.0 / 1e6;
        let pair_mb_s: Vec<f64> = full
            .iter()
            .zip(&part)
            .map(|(f, p)| pair_mb / (*f + *p).as_secs_f64())
            .collect();
        let full = ms(&full);
        metrics.set("setup_s", median(&setup_s));
        metrics.set("throughput_mb_s", median(&pair_mb_s));
        metrics.set("op_p50_ms", median(&full));
        metrics.set("capacity_ratio", weights as f64 * 2.0 / file_bytes);
    }

    println!("# weight_nmse {weight_nmse} (at most {WEIGHT_NMSE_MAX})");
    if weight_nmse.is_nan() || weight_nmse > WEIGHT_NMSE_MAX {
        loader.outcome.fail(format!(
            "weight_nmse {weight_nmse} exceeds {WEIGHT_NMSE_MAX}"
        ));
    }
    (metrics, loader.outcome)
}

/// The traced loads: a real cold start, `load`'s stages replayed on a
/// fresh open, and the in-memory decode, until `budget` has passed.
/// Returns the real cold-start times.
fn traced_loads(
    loader: &mut Loader,
    tracer: &mut Tracer,
    codec: &WeightCodec,
    cts: &[&CompressedTensor],
    all: &[&str],
    budget: Duration,
) -> Vec<Duration> {
    let start = Instant::now();
    let mut full = Vec::new();
    while start.elapsed() < budget || full.len() < MIN_LOADS {
        let t0 = Instant::now();
        let opened = Container::open(loader.path);
        let t1 = Instant::now();
        tracer.record("container.open", None, 0, t0, t1);
        let loaded = opened.and_then(|c| c.load(all));
        let t2 = Instant::now();
        let load = tracer.record("container.load", None, 0, t1, t2);
        full.push(t2 - t0);
        loader.outcome.attempted += 1;
        loader.check(all, loaded);

        // load's stages, one by one, on a fresh open.
        loader.outcome.attempted += 1;
        let staged = match Container::open(loader.path) {
            Ok(c) => c,
            Err(e) => {
                loader
                    .outcome
                    .fail(format!("open for the staged load: {e}"));
                continue;
            }
        };
        let (frames, _) = tracer.span("container.read_frames", Some(load), 0, || {
            all.iter()
                .map(|n| staged.read_compressed(n))
                .collect::<Result<Vec<_>, _>>()
        });
        let frames = match frames {
            Ok(f) => f,
            Err(e) => {
                loader.outcome.fail(format!("staged frame read: {e}"));
                continue;
            }
        };
        let (views, _) = tracer.span("container.meta_views", Some(load), 0, || {
            frames
                .iter()
                .map(|ct| staged.metadata().with_scale(ct.tensor_scale()))
                .collect::<Vec<TensorMetadata>>()
        });
        let batch: Vec<(&[Block64], &TensorMetadata)> =
            frames.iter().map(|ct| ct.blocks()).zip(&views).collect();
        let (cold, cold_span) = tracer.span("hw.decode_cold", Some(load), 0, || {
            ecco_hw::decode_tensors_batch_report(&batch, RecoveryPolicy::FailTensor)
        });
        let (warm, _) = tracer.span("hw.decode_warm", Some(cold_span), 0, || {
            ecco_hw::decode_tensors_batch_report(&batch, RecoveryPolicy::FailTensor)
        });
        for outcomes in [cold, warm] {
            for ((o, want), name) in outcomes.iter().zip(loader.reference).zip(all) {
                if !matches!(o, BatchOutcome::Ok(v) if bit_identical(v, want.data())) {
                    loader
                        .outcome
                        .fail(format!("staged decode of {name} differs"));
                }
            }
        }

        tracer.span("core.weight_decode", None, 0, || {
            std::hint::black_box(codec.decompress_batch(cts));
        });
    }
    full
}

/// The stage ledger of the traced loads, as shares of the real cold
/// start (open plus load).
fn ledger(m: &mut Metrics, tracer: &Tracer, weights: usize, frame_bytes: f64) {
    let open = tracer.totals("container.open");
    let load = tracer.totals("container.load");
    let frames = tracer.totals("container.read_frames");
    let views = tracer.totals("container.meta_views");
    let cold = tracer.totals("hw.decode_cold");
    let warm = tracer.totals("hw.decode_warm");
    let base = open.busy_s() + load.busy_s();
    let stages = frames.busy_s() + views.busy_s() + cold.busy_s();
    m.set("container.open.load_pct", pct(open.busy_s(), base));
    m.set("container.read_frames.load_pct", pct(frames.busy_s(), base));
    m.set(
        "container.read_frames.mb_per_s",
        ratio(frames.calls as f64 * frame_bytes / 1e6, frames.busy_s()),
    );
    m.set("container.meta_views.load_pct", pct(views.busy_s(), base));
    m.set("hw.decode_cold.load_pct", pct(cold.busy_s(), base));
    m.set("hw.decode_warm.load_pct", pct(warm.busy_s(), base));
    let mvalues = |calls: u64| calls as f64 * weights as f64 / 1e6;
    m.set(
        "hw.decode_cold.mvalues_per_s",
        ratio(mvalues(cold.calls), cold.busy_s()),
    );
    m.set(
        "hw.decode_warm.mvalues_per_s",
        ratio(mvalues(warm.calls), warm.busy_s()),
    );
    m.set("container.load.self_pct", pct(load.self_s(), base));
    let explained = ratio(stages, load.busy_s());
    m.set("container.load.stage_sum_ratio", explained);
    if (explained - 1.0).abs() > 0.1 {
        println!(
            "# the stages explain {:.1}% of load; the rest is container.load.self_pct",
            explained * 100.0
        );
    }
}
