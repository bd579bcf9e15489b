//! Root-package coverage of the paged serving store (`ecco-serve`).
//!
//! Tier-1 verification (`cargo test -q` at the repo root) runs only this
//! package's tests, so this file is what pins the serving invariants on
//! every tier-1 run:
//!
//! * a page's hot -> cold -> hot round trip is **bit-identical** to a
//!   straight `KvCodec` compress/decompress of the same rows, across
//!   pool sizes {1, 4},
//! * eviction under memory pressure never drops a live session's data —
//!   every open session reads back its full token stream at any point
//!   of a multi-tenant trace,
//! * a corrupted cold page surfaces as a **located per-page error**
//!   (salvaged under `SalvageBlocks`, failed under `FailTensor`)
//!   without poisoning the rest of the store.

use std::collections::HashMap;

use ecco::bits::Block64;
use ecco::llm::{TrafficEvent, TrafficMix};
use ecco::prelude::*;
use ecco::serve::{PageTier, RecoveryPolicy, ServeError, SessionRead};

fn kv_rows(model: &ModelSpec, tokens: usize, seed: u64) -> Vec<f32> {
    SynthSpec::for_kind(TensorKind::KCache, tokens, model.kv_dim())
        .seeded(seed)
        .generate()
        .data()
        .to_vec()
}

fn kv_codec(model: &ModelSpec) -> KvCodec {
    let (rows, cols) = model.kv_request_shape(64);
    let calib = SynthSpec::for_kind(TensorKind::KCache, rows, cols)
        .seeded(77)
        .generate();
    KvCodec::calibrate(
        &[&calib],
        &EccoConfig {
            max_calibration_groups: 256,
            ..EccoConfig::default()
        },
    )
}

fn small_store(model: &ModelSpec, hot_capacity: usize) -> PagedKvStore {
    PagedKvStore::new(
        model,
        kv_codec(model),
        ServeConfig {
            page_tokens: 8,
            hot_capacity_pages: hot_capacity,
            ..ServeConfig::default()
        },
    )
}

#[test]
fn hot_cold_hot_is_bit_identical_to_straight_codec_across_pools() {
    let model = ModelSpec::llama31_8b();
    let page_rows = kv_rows(&model, 8, 1);
    let page_tensor = Tensor::from_vec(8, model.kv_dim(), page_rows.clone());

    let mut reference: Option<(Vec<Block64>, Vec<f32>)> = None;
    for threads in [1usize, 4] {
        let pool = PoolBuilder::new().threads(threads).build();
        let (cold_blocks, promoted) = with_pool(&pool, || {
            // Capacity 1: appending page 1 forces page 0 cold.
            let mut st = small_store(&model, 1);
            let sid = st.open_session();
            st.append(sid, &page_rows).unwrap();
            st.append(sid, &kv_rows(&model, 8, 2)).unwrap();
            assert_eq!(st.page_tier(sid, 0).unwrap(), PageTier::Cold);

            // The evicted page's cold image must match a straight
            // compress of the same rows, bit for bit…
            let codec = st.codec().clone();
            let (want_ct, _) = codec.compress(&page_tensor);
            let got = st.cold_page(sid, 0).unwrap().expect("cold");
            assert_eq!(
                got.blocks(),
                want_ct.blocks(),
                "eviction diverged from KvCodec::compress (threads {threads})"
            );

            // …and the promoted read must match a straight
            // decompress, bit for bit.
            let blocks = got.blocks().to_vec();
            let hot = st.read_page(sid, 0).unwrap();
            assert_eq!(
                hot,
                codec.decompress(&want_ct).data(),
                "promotion diverged from KvCodec::decompress (threads {threads})"
            );
            assert_eq!(st.page_tier(sid, 0).unwrap(), PageTier::Hot);
            (blocks, hot)
        });

        // Identical across every pool size.
        match &reference {
            None => reference = Some((cold_blocks, promoted)),
            Some((b, v)) => {
                assert_eq!(&cold_blocks, b, "cold image varies with pool size");
                assert_eq!(&promoted, v, "promoted read varies with pool size");
            }
        }
    }
}

#[test]
fn eviction_never_drops_a_live_sessions_data() {
    // A multi-tenant trace against a hot tier far smaller than the
    // working set: every open session must read back its exact token
    // count at every checkpoint, no matter how often its pages cycle
    // through the cold tier.
    let model = ModelSpec::llama31_8b();
    let mut st = PagedKvStore::new(
        &model,
        kv_codec(&model),
        ServeConfig {
            page_tokens: 8,
            hot_capacity_pages: 4, // pathological pressure
            ..ServeConfig::default()
        },
    );
    let mix = TrafficMix {
        sessions: 12,
        live: 4,
        prompt_tokens: (3, 40),
        decode_tokens: (5, 30),
        seed: 9,
    };
    let mut handles: HashMap<usize, _> = HashMap::new();
    let mut ledger: HashMap<usize, usize> = HashMap::new();
    let mut out = Vec::new();
    for (i, ev) in mix.events().iter().enumerate() {
        match *ev {
            TrafficEvent::Open { session } => {
                handles.insert(session, st.open_session());
                ledger.insert(session, 0);
            }
            TrafficEvent::Prefill { session, tokens } => {
                st.append(handles[&session], &kv_rows(&model, tokens, 100 + i as u64))
                    .unwrap();
                *ledger.get_mut(&session).unwrap() += tokens;
            }
            TrafficEvent::Decode { session } => {
                st.append(handles[&session], &kv_rows(&model, 1, 500 + i as u64))
                    .unwrap();
                *ledger.get_mut(&session).unwrap() += 1;
            }
            TrafficEvent::Close { session } => {
                // Final integrity check before the pages are freed.
                let sid = handles.remove(&session).unwrap();
                let tokens = ledger.remove(&session).unwrap();
                out.clear();
                let r: SessionRead = st.read_session_into(sid, &mut out).unwrap();
                assert!(r.corruptions.is_empty());
                assert_eq!(out.len(), tokens * model.kv_dim(), "session {session}");
                st.close_session(sid).unwrap();
            }
        }
        assert!(st.hot_pages() <= 4 + 1, "hot tier overran its capacity");
        if i % 16 == 0 {
            // Spot-check every live session mid-flight.
            for (&session, sid) in &handles {
                assert_eq!(st.session_tokens(*sid).unwrap(), ledger[&session]);
                out.clear();
                st.read_session_into(*sid, &mut out).unwrap();
                assert_eq!(
                    out.len(),
                    ledger[&session] * model.kv_dim(),
                    "live session {session} lost data under eviction"
                );
            }
        }
    }
    assert_eq!(st.live_sessions(), 0, "trace closes every session");
    assert!(
        st.metrics().evictions > 0,
        "pressure never triggered eviction"
    );
}

#[test]
fn corrupt_cold_page_is_a_located_error_not_a_poisoned_store() {
    let model = ModelSpec::llama31_8b();

    // SalvageBlocks (default): the read succeeds, zero-fills the bad
    // groups, and reports exactly where the rot is.
    let mut st = small_store(&model, 1);
    let sid = st.open_session();
    st.append(sid, &kv_rows(&model, 8, 10)).unwrap();
    st.append(sid, &kv_rows(&model, 8, 11)).unwrap(); // page 0 -> cold
    let ct = st.cold_page(sid, 0).unwrap().expect("cold");
    let mut blocks = ct.blocks().to_vec();
    blocks[7] = Block64::from_bytes([0xFF; 64]);
    let rotted = ct.with_blocks(blocks);
    st.replace_cold_page(sid, 0, rotted).unwrap();

    let mut out = Vec::new();
    let r = st.read_session_into(sid, &mut out).unwrap();
    assert_eq!(
        out.len(),
        16 * model.kv_dim(),
        "salvaged read serves full stream"
    );
    assert_eq!(r.corruptions.len(), 1);
    let c = &r.corruptions[0];
    assert_eq!((c.session, c.page), (sid, 0), "located at its page");
    assert_eq!(c.bad_blocks[0].block, Some(7), "located at its block");
    let gs = ecco::tensor::GROUP_SIZE;
    assert!(
        out[7 * gs..8 * gs].iter().all(|&v| v == 0.0),
        "bad group zero-filled"
    );

    // Not poisoned: the store keeps serving — the corrupt page stays
    // cold (never admitted), new sessions and appends work.
    assert_eq!(st.page_tier(sid, 0).unwrap(), PageTier::Cold);
    let other = st.open_session();
    st.append(other, &kv_rows(&model, 12, 12)).unwrap();
    out.clear();
    assert!(st
        .read_session_into(other, &mut out)
        .unwrap()
        .corruptions
        .is_empty());
    assert_eq!(out.len(), 12 * model.kv_dim());

    // FailTensor: the same rot fails that page's read alone, located.
    let mut st = PagedKvStore::new(
        &model,
        kv_codec(&model),
        ServeConfig {
            page_tokens: 8,
            hot_capacity_pages: 1,
            recovery: RecoveryPolicy::FailTensor,
            ..ServeConfig::default()
        },
    );
    let sid = st.open_session();
    st.append(sid, &kv_rows(&model, 8, 13)).unwrap();
    st.append(sid, &kv_rows(&model, 8, 14)).unwrap();
    let ct = st.cold_page(sid, 0).unwrap().expect("cold");
    let mut blocks = ct.blocks().to_vec();
    blocks[0] = Block64::from_bytes([0xFF; 64]);
    let rotted = ct.with_blocks(blocks);
    st.replace_cold_page(sid, 0, rotted).unwrap();

    out.clear();
    match st.read_page_into(sid, 0, &mut out) {
        Err(ServeError::CorruptPage(c)) => {
            assert_eq!((c.session, c.page), (sid, 0));
            assert_eq!(c.bad_blocks[0].block, Some(0));
        }
        other => panic!("expected CorruptPage, got {other:?}"),
    }
    assert!(out.is_empty(), "failed page read must not emit values");
    // The healthy hot page is untouched.
    out.clear();
    st.read_page_into(sid, 1, &mut out).unwrap();
    assert_eq!(out.len(), 8 * model.kv_dim());
}
