//! Root-package coverage of the persistent worker pool and the batched
//! multi-tensor submission APIs.
//!
//! Tier-1 verification (`cargo test -q` at the repo root) runs only this
//! package's tests, so this file is what guarantees the pool scheduler —
//! dynamic chunk claiming, the sequential fast path, `ECCO_THREADS`
//! sizing, batch submission, failure isolation and panic hygiene — is
//! exercised on every tier-1 run, not just by the workspace CI run
//! (mirror of `parallel_roundtrip.rs` for the decoder front end).

use ecco::bits::Block64;
use ecco::codec::block::DecodeErrorKind;
use ecco::codec::{BatchOutcome, RecoveryPolicy};
use ecco::pool::{threads_from_env, with_pool, Pool, PoolBuilder};
use ecco::prelude::*;
use ecco::tensor::stats::nmse;

fn small_tensors(n: usize, kind: TensorKind, seed: u64) -> Vec<Tensor> {
    (0..n)
        .map(|i| {
            SynthSpec::for_kind(kind, 2, 512)
                .seeded(seed + i as u64)
                .generate()
        })
        .collect()
}

#[test]
fn pool_scaling_bit_identical_and_batch_equals_loop() {
    let tensors = small_tensors(6, TensorKind::Weight, 9000);
    let refs: Vec<&Tensor> = tensors.iter().collect();
    let codec = WeightCodec::calibrate(&refs, &EccoConfig::default());

    // Reference: per-tensor sequential compress on the default pool.
    let seq: Vec<_> = tensors.iter().map(|t| codec.compress(t)).collect();

    for threads in [1usize, 2, 4] {
        let pool = PoolBuilder::new().threads(threads).build();
        with_pool(&pool, || {
            assert_eq!(Pool::current().executors(), threads);
            // Batched submission == per-tensor loop, bit for bit.
            let batch = codec.compress_batch(&refs);
            for ((ct, _), (want_ct, _)) in batch.iter().zip(&seq) {
                assert_eq!(ct.blocks(), want_ct.blocks(), "threads {threads}");
            }
            let cts: Vec<&_> = batch.iter().map(|(ct, _)| ct).collect();
            let decompressed: Vec<Tensor> = codec
                .decompress_batch(&cts)
                .into_iter()
                .map(|r| r.expect("valid blocks decode"))
                .collect();
            for (out, (want_ct, _)) in decompressed.iter().zip(&seq) {
                assert_eq!(out.data(), codec.decompress(want_ct).data());
            }

            // The hardware model's batched submission reconstructs the
            // identical values.
            let metas: Vec<TensorMetadata> = batch
                .iter()
                .map(|(ct, _)| codec.metadata().with_scale(ct.tensor_scale()))
                .collect();
            let hw_batch: Vec<(&[Block64], &TensorMetadata)> = batch
                .iter()
                .zip(&metas)
                .map(|((ct, _), m)| (ct.blocks(), m))
                .collect();
            let hw = ecco::hw::decode_tensors_batch_report(&hw_batch, RecoveryPolicy::FailTensor);
            for (r, out) in hw.iter().zip(&decompressed) {
                assert_eq!(r.values().unwrap(), out.data(), "hw batch diverged");
            }
        });
    }
}

#[test]
fn ecco_threads_env_pins_pool_size() {
    // The builder reads the same environment the lazily-started global
    // pool does; pin to one executor and prove the sequential fast path
    // produces the same bits as a wide pool.
    let prev = std::env::var("ECCO_THREADS").ok();
    std::env::set_var("ECCO_THREADS", "1");
    assert_eq!(threads_from_env(), 1);
    let pinned = PoolBuilder::new().build();
    // Restore rather than remove: a CI leg pinning ECCO_THREADS for the
    // whole process must stay pinned for the other tests in this binary.
    match prev {
        Some(v) => std::env::set_var("ECCO_THREADS", v),
        None => std::env::remove_var("ECCO_THREADS"),
    }
    assert_eq!(pinned.executors(), 1);

    let t = SynthSpec::for_kind(TensorKind::Weight, 4, 512)
        .seeded(9100)
        .generate();
    let codec = WeightCodec::calibrate(&[&t], &EccoConfig::default());
    let wide = PoolBuilder::new().threads(4).build();
    let a = with_pool(&pinned, || codec.compress(&t).0);
    let b = with_pool(&wide, || codec.compress(&t).0);
    assert_eq!(a.blocks(), b.blocks(), "pool size must not change bits");
}

#[test]
fn concurrent_batches_share_one_pool_with_failures_isolated() {
    // The serving regime: N submitting threads push interleaved
    // compress/decompress batches through ONE shared pool, with
    // truncated/garbage blocks injected into some batches. Every
    // round-trip must be bit-exact and every failure confined to its
    // own tensor slot — no panics, no hangs, no cross-request bleed.
    let tensors = small_tensors(4, TensorKind::KCache, 9200);
    let refs: Vec<&Tensor> = tensors.iter().collect();
    let codec = KvCodec::calibrate(&refs, &EccoConfig::default());
    let weight_codec = {
        let w = small_tensors(1, TensorKind::Weight, 9300);
        WeightCodec::calibrate(&[&w[0]], &EccoConfig::default())
    };
    let pool = PoolBuilder::new().threads(4).build();

    std::thread::scope(|s| {
        for worker in 0..4u64 {
            let pool = pool.clone();
            let codec = &codec;
            let weight_codec = &weight_codec;
            let tensors = &tensors;
            s.spawn(move || {
                with_pool(&pool, || {
                    for round in 0..3 {
                        // Interleave: KV compress batch, then a weight
                        // round-trip, then a failure-injected decode batch.
                        let refs: Vec<&Tensor> = tensors.iter().collect();
                        let batch = codec.compress_batch(&refs);
                        for (t, (ct, _)) in tensors.iter().zip(&batch) {
                            assert_eq!(ct.blocks().len(), t.len() / 128);
                            let e = nmse(t, &codec.decompress(ct));
                            assert!(e < 0.05, "w{worker} r{round}: NMSE {e}");
                        }

                        let wt = SynthSpec::for_kind(TensorKind::Weight, 2, 512)
                            .seeded(9400 + worker * 10 + round)
                            .generate();
                        let (wct, _) = weight_codec.compress(&wt);
                        let out = weight_codec.decompress_batch(&[&wct]);
                        assert_eq!(out[0].as_ref().unwrap().data(), {
                            let d = weight_codec.decompress(&wct);
                            d.data().to_vec()
                        });

                        // Failure injection: garbage blocks in slot 1.
                        let (good, _) = &batch[0];
                        let meta = codec.metadata().with_scale(good.tensor_scale());
                        let garbage: Vec<Block64> = (0..good.blocks().len())
                            .map(|_| Block64::from_bytes([0xFF; 64]))
                            .collect();
                        let mixed = ecco::hw::decode_tensors_batch_report(
                            &[
                                (good.blocks(), &meta),
                                (&garbage, &meta),
                                (good.blocks(), &meta),
                            ],
                            RecoveryPolicy::FailTensor,
                        );
                        assert!(mixed[0].is_ok(), "w{worker} r{round}: good slot 0 failed");
                        assert!(
                            matches!(mixed[1], BatchOutcome::Failed(_)),
                            "w{worker} r{round}: garbage decoded"
                        );
                        assert!(mixed[2].is_ok(), "w{worker} r{round}: good slot 2 failed");
                        assert_eq!(mixed[0], mixed[2]);
                    }
                });
            });
        }
    });
}

#[test]
fn worker_panic_poisons_only_its_batch_and_pool_survives() {
    // Panic hygiene (the regression for pool shutdown/panic handling): a
    // panicking worker task must resolve to an Err for its batch slot —
    // never a hang — and the pool must keep serving afterwards.
    let pool = PoolBuilder::new().threads(4).chunk(1).build();
    with_pool(&pool, || {
        let t = SynthSpec::for_kind(TensorKind::Weight, 4, 512)
            .seeded(9500)
            .generate();
        let codec = WeightCodec::calibrate(&[&t], &EccoConfig::default());
        let (ct, _) = codec.compress(&t);
        let meta = codec.metadata().with_scale(ct.tensor_scale());
        let seq = codec.decompress(&ct);

        // Inject a panic through the batch driver's decode closure.
        let blocks = ct.blocks();
        let results = ecco::codec::parallel::decode_tensors_batch_report_with(
            &[blocks, blocks, blocks],
            RecoveryPolicy::FailTensor,
            |ti, run, out| {
                if ti == 1 {
                    panic!("injected decode panic");
                }
                for (i, b) in run.iter().enumerate() {
                    ecco::codec::decode_group_into(b, &meta, out).map_err(|e| (i, e))?;
                }
                Ok(())
            },
        );
        assert_eq!(results[0].values().unwrap(), seq.data());
        let e = results[1].first_error().unwrap();
        assert_eq!(e.kind, DecodeErrorKind::WorkerPanic);
        assert_eq!(e.tensor, Some(1), "panic must be located at its tensor");
        assert_eq!(results[2].values().unwrap(), seq.data());

        // Joining after the injected panic: the same pool still decodes.
        let again = codec.decompress_batch(&[&ct]);
        assert_eq!(again[0].as_ref().unwrap().data(), seq.data());
    });
}
