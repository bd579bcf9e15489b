//! Paged-serving capacity and latency harness -> `BENCH_serving.json`.
//!
//! Replays a deterministic chat-style [`TrafficMix`] through the
//! `ecco-serve` paged KV store (cold pages compressed at the codec's
//! fixed 4x) and records the three serving-side figures of merit:
//!
//! * `page_read_latency` — p50/p99/max per-page read latency, split by
//!   the tier the read was served from (hot memcpy vs cold batched
//!   decode through the worker pool),
//! * `resident_bytes` — the residency curve over the trace: hot bytes
//!   (FP16-modeled), cold bytes (compressed blocks), and the FP16
//!   baseline an uncompressed store would hold for the same live
//!   sessions,
//! * `sessions_per_gb` — at the peak working set, how many concurrent
//!   sessions one decimal GB sustains with and without the compressed
//!   cold tier.
//!
//! `ECCO_QUICK=1` shrinks the trace for CI smoke runs. All byte figures
//! are raw; the derived `sessions_per_gb` uses decimal GB (1e9), the
//! convention of every GB figure in this workspace.

use ecco_core::{EccoConfig, KvCodec};
use ecco_llm::{ModelSpec, TrafficEvent, TrafficMix};
use ecco_serve::{sessions_per_gb, LatencyStats, PagedKvStore, ServeConfig};
use ecco_tensor::{synth::SynthSpec, TensorKind};

#[derive(Clone, Copy)]
struct Sample {
    events: usize,
    live: usize,
    hot: usize,
    cold: usize,
    fp16: usize,
}

fn lat_json(l: &LatencyStats) -> String {
    format!(
        "{{\"count\": {}, \"p50_us\": {:.2}, \"p99_us\": {:.2}, \"max_us\": {:.2}}}",
        l.count, l.p50_us, l.p99_us, l.max_us
    )
}

fn main() {
    // Parsed, not just probed: `ECCO_QUICK=0` means the full trace.
    let quick = ecco_bench::quick_mode();
    let model = ModelSpec::llama31_8b();
    let mix = if quick {
        TrafficMix::chat(48, 12, 0xECC0)
    } else {
        TrafficMix::chat(240, 32, 0xECC0)
    };
    let events = mix.events();
    println!(
        "serving bench: {} | {} sessions ({} live) | {} tokens | {} events{}",
        model.name,
        mix.sessions,
        mix.live,
        mix.total_tokens(),
        events.len(),
        if quick { " [quick]" } else { "" },
    );

    // Rotating synthetic K-row buffer standing in for the KV stream.
    let (rows, cols) = model.kv_request_shape(512);
    let stream = SynthSpec::for_kind(TensorKind::KCache, rows, cols)
        .seeded(41)
        .generate();
    let kv_dim = cols;
    let mut cursor = 0usize;
    let mut take = |tokens: usize| -> Vec<f32> {
        let mut out = Vec::with_capacity(tokens * kv_dim);
        let data = stream.data();
        for _ in 0..tokens {
            out.extend_from_slice(&data[cursor * kv_dim..(cursor + 1) * kv_dim]);
            cursor = (cursor + 1) % rows;
        }
        out
    };
    let codec = KvCodec::calibrate(
        &[&stream],
        &EccoConfig {
            max_calibration_groups: 512,
            ..EccoConfig::default()
        },
    );
    let cfg = ServeConfig {
        page_tokens: 16,
        hot_capacity_pages: if quick { 48 } else { 96 },
        ..ServeConfig::default()
    };
    let mut store = PagedKvStore::new(&model, codec, cfg);

    let mut handles = vec![None; mix.sessions];
    let mut scratch = Vec::new();
    let mut samples: Vec<Sample> = Vec::new();
    let mut peak = Sample {
        events: 0,
        live: 0,
        hot: 0,
        cold: 0,
        fp16: 0,
    };
    let sample_every = (events.len() / 64).max(1);
    for (i, ev) in events.iter().enumerate() {
        match *ev {
            TrafficEvent::Open { session } => handles[session] = Some(store.open_session()),
            TrafficEvent::Prefill { session, tokens } => {
                let sid = handles[session].expect("opened");
                store.append(sid, &take(tokens)).expect("aligned burst");
            }
            TrafficEvent::Decode { session } => {
                let sid = handles[session].expect("opened");
                store.append(sid, &take(1)).expect("aligned row");
                if i % 64 == 0 {
                    // Periodic full-session re-read: the cold-tier read
                    // path (one batched pool decode + promotion).
                    scratch.clear();
                    store
                        .read_session_into(sid, &mut scratch)
                        .expect("healthy read");
                }
            }
            TrafficEvent::Close { session } => {
                store
                    .close_session(handles[session].take().expect("opened"))
                    .unwrap();
            }
        }
        if i % sample_every == 0 || i + 1 == events.len() {
            let rb = store.resident_bytes();
            let s = Sample {
                events: i + 1,
                live: store.live_sessions(),
                hot: rb.hot,
                cold: rb.cold,
                fp16: store.fp16_bytes(),
            };
            if s.fp16 > peak.fp16 {
                peak = s;
            }
            samples.push(s);
        }
    }

    let m = store.metrics().clone();
    let hot = m.hot_latency();
    let cold = m.cold_latency();
    let spg_fp16 = sessions_per_gb(peak.live, peak.fp16);
    let spg_paged = sessions_per_gb(peak.live, peak.hot + peak.cold);
    let curve = samples
        .iter()
        .map(|s| {
            format!(
                "    {{\"events\": {}, \"live_sessions\": {}, \"hot_bytes\": {}, \
                 \"cold_bytes\": {}, \"total_bytes\": {}, \"fp16_bytes\": {}}}",
                s.events,
                s.live,
                s.hot,
                s.cold,
                s.hot + s.cold,
                s.fp16
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");

    let json = format!(
        "{{\n  \
         \"bench\": \"serving\",\n  \
         \"quick\": {quick},\n  \
         \"model\": \"{name}\",\n  \
         \"kv_dim\": {kv_dim},\n  \
         \"page_tokens\": {page_tokens},\n  \
         \"hot_capacity_pages\": {hot_cap},\n  \
         \"traffic\": {{\"sessions\": {sessions}, \"live\": {live}, \
         \"total_tokens\": {tokens}, \"events\": {n_events}}},\n  \
         \"counters\": {{\"hot_hits\": {hot_hits}, \"cold_reads\": {cold_reads}, \
         \"evictions\": {evictions}, \"recompressions\": {recompressions}, \
         \"clean_drops\": {clean_drops}, \"corrupt_reads\": {corrupt_reads}}},\n  \
         \"page_read_latency\": {{\n    \
           \"hot\": {hot_lat},\n    \
           \"cold\": {cold_lat}\n  }},\n  \
         \"resident_bytes\": [\n{curve}\n  ],\n  \
         \"sessions_per_gb\": {{\n    \
           \"at_peak_live_sessions\": {peak_live},\n    \
           \"fp16\": {spg_fp16:.0},\n    \
           \"paged_compressed\": {spg_paged:.0},\n    \
           \"capacity_ratio\": {ratio:.2}\n  }}\n}}\n",
        name = model.name,
        page_tokens = store.config().page_tokens,
        hot_cap = store.config().hot_capacity_pages,
        sessions = mix.sessions,
        live = mix.live,
        tokens = mix.total_tokens(),
        n_events = events.len(),
        hot_hits = m.hot_hits,
        cold_reads = m.cold_reads,
        evictions = m.evictions,
        recompressions = m.recompressions,
        clean_drops = m.clean_drops,
        corrupt_reads = m.corrupt_reads,
        hot_lat = lat_json(&hot),
        cold_lat = lat_json(&cold),
        peak_live = peak.live,
        ratio = spg_paged / spg_fp16.max(1e-9),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serving.json");
    std::fs::write(path, &json).expect("write BENCH_serving.json");
    println!("\nBENCH_serving.json:\n{json}");
    println!(
        "cold p99 {:.0} us over hot p99 {:.0} us | {:.2}x sessions/GB with the compressed cold tier",
        cold.p99_us, hot.p99_us, spg_paged / spg_fp16.max(1e-9),
    );
}
