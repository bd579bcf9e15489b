//! Multi-tenant paged serving: a deterministic chat-style traffic mix
//! replayed through the `ecco-serve` paged KV store, with cold pages
//! held compressed and decompressed on read through the shared pool.
//!
//! This is the capacity story of the paper at serving scale — the KV
//! cache dominates the footprint, so keeping cold pages at the codec's
//! fixed 4x is what decides how many sessions one device holds. The
//! demo replays hundreds of ragged sessions against a small hot tier,
//! reads sessions back mid-flight (batched cold decode + promotion),
//! then injects a corrupted cold page and shows the store salvaging it
//! as a located per-page report instead of dying.
//!
//! Run with `cargo run --release --example paged_serving`.

use ecco::bits::Block64;
use ecco::llm::TrafficEvent;
use ecco::prelude::*;
use ecco::serve::{sessions_per_gb, PagedKvStore, RecoveryPolicy, ServeConfig};

fn main() {
    let model = ModelSpec::llama31_8b();
    let mix = TrafficMix::chat(240, 32, 0xECC0);
    let events = mix.events();
    println!(
        "{} | kv_dim {} | {} sessions ({} live cap) | {} tokens, {} trace events",
        model.name,
        model.kv_dim(),
        mix.sessions,
        mix.live,
        mix.total_tokens(),
        events.len(),
    );

    // A rotating buffer of synthetic K rows stands in for the model's
    // KV stream: every append slices whole token rows out of it.
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
        hot_capacity_pages: 96, // ~3 MiB hot tier: far below the trace's working set
        ..ServeConfig::default()
    };
    let mut store = PagedKvStore::new(&model, codec, cfg);

    // Replay: session indices from the trace map to store handles.
    let mut handles = vec![None; mix.sessions];
    let mut scratch = Vec::new();
    let mut peak = (0usize, 0usize, 0usize); // (live, paged bytes, fp16 bytes)
    let t0 = std::time::Instant::now();
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
                // Every 64th turn the session re-reads its whole cache
                // (speculation / beam rewind stand-in): cold pages come
                // back through one batched pool decode.
                if i % 64 == 0 {
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
        if i % 256 == 0 {
            let rb = store.resident_bytes();
            if store.fp16_bytes() > peak.2 {
                peak = (store.live_sessions(), rb.total(), store.fp16_bytes());
            }
        }
    }
    let wall = t0.elapsed();

    let m = store.metrics();
    let hot = m.hot_latency();
    let cold = m.cold_latency();
    println!(
        "replayed in {:.2} s | hot {}/{} pages resident | {} evictions \
         ({} recompressed, {} clean drops)",
        wall.as_secs_f64(),
        store.hot_pages(),
        store.config().hot_capacity_pages,
        m.evictions,
        m.recompressions,
        m.clean_drops,
    );
    println!(
        "page reads: {} hot (p50 {:.1} us, p99 {:.1} us) | {} cold \
         (p50 {:.1} us, p99 {:.1} us)",
        m.hot_hits, hot.p50_us, hot.p99_us, m.cold_reads, cold.p50_us, cold.p99_us,
    );
    println!(
        "peak working set: {} live sessions | paged {:.1} MB vs FP16 {:.1} MB \
         -> {:.0} vs {:.0} sessions/GB",
        peak.0,
        peak.1 as f64 / 1e6,
        peak.2 as f64 / 1e6,
        sessions_per_gb(peak.0, peak.1),
        sessions_per_gb(peak.0, peak.2),
    );

    // Fault demo: rot one cold page and read it under SalvageBlocks.
    let sid = store.open_session();
    store.append(sid, &take(64)).unwrap();
    store.flush_full_pages();
    let ct = store.cold_page(sid, 0).unwrap().expect("flushed cold");
    let mut blocks = ct.blocks().to_vec();
    blocks[3] = Block64::from_bytes([0xFF; 64]);
    let rotted = ct.with_blocks(blocks);
    store.replace_cold_page(sid, 0, rotted).unwrap();
    assert_eq!(store.config().recovery, RecoveryPolicy::SalvageBlocks);
    let mut out = Vec::new();
    let read = store
        .read_page_into(sid, 0, &mut out)
        .expect("salvaged, not fatal");
    let report = read.corruption.expect("corruption located");
    println!(
        "injected bit rot salvaged: {} -> {} value(s) zero-filled, store still serving",
        report,
        report.bad_blocks.len() * ecco::tensor::GROUP_SIZE,
    );
}
