//! The serve workloads: `chat`, `ingest` and `chat_hot`.
//!
//! One synchronous client drives a `PagedKvStore` in a closed loop: each
//! call waits for the one before it (the store is `&mut self`), and the
//! only parallelism is inside the codec's pool. The client replays an
//! endless stream of sessions with at most `live` open. Each round admits
//! sessions up to `live` (open plus the prompt append), gives every live
//! session one decode turn, and closes the sessions whose decode budget
//! is spent: the order `TrafficMix::events` produces.
//!
//! Session lengths come from the `TrafficMix` preset's ranges by
//! stratified sampling: each block of `STRATA` sessions takes every
//! `STRATA`-th part of the prompt range once and of the decode range
//! once, in seeded orders. A run sees about a hundred sessions, and
//! independent draws of that many would move the working set, and with
//! it every metric, by several percent from seed to seed.
//!
//! The first `live` sessions start part-way through their decode, at a
//! uniformly drawn token, so the store starts near its steady state; the
//! replay then warms up until a quarter of `live` sessions have closed
//! before anything is measured.

use std::time::{Duration, Instant};

use ecco_core::{CompressedTensor, EccoConfig, KvCodec, RecoveryPolicy};
use ecco_llm::{ModelSpec, TrafficMix};
use ecco_serve::{Admission, PageTier, PagedKvStore, ServeConfig, SessionId};
use ecco_tensor::{synth::SynthSpec, Tensor, TensorKind};

use crate::report::{median, pct, percentile, ratio, Metrics, Outcome};
use crate::trace::{SpanRef, Tracer};
use crate::Run;

/// Tokens per page, as vLLM-style engines use.
const PAGE_TOKENS: usize = 16;
/// Synthetic K rows the appends are cut from; more than the longest
/// prompt plus fast-forward (1024 + 63 tokens).
const POOL_ROWS: usize = 2048;
/// Sessions per stratified block of the traffic stream.
const STRATA: usize = 16;
/// Calibration sample, as the serving micro-bench uses.
const CALIBRATION_GROUPS: usize = 512;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// The measured time is cut into this many windows; throughput and the
/// p50 are medians over windows, so a burst of load from outside the
/// process moves them less.
const WINDOWS: u32 = 15;
/// Every this many reads, the values are checked against the rows
/// appended (the other reads are checked for length only).
const VERIFY_EVERY: u64 = 16;
/// Highest `quality.kv_nmse` a run may report. Seeds 1 to 10 read
/// 0.00047 to 0.00099 on `chat` and `ingest`; `chat_hot` reads exactly
/// 0, since its hot tier is lossless.
const KV_NMSE_MAX: f64 = 0.002;

struct Spec {
    mix: fn(usize, usize, u64) -> TrafficMix,
    live: usize,
    hot_capacity_pages: usize,
    admission: Admission,
    /// Every decode step reads the whole session (the attention read);
    /// otherwise a session is read once, whole, when it closes.
    read_every_step: bool,
}

fn spec(workload: &str) -> Spec {
    match workload {
        // The hot tier holds under half of the working set (about 160
        // pages), so cold decode dominates each step: the paper's regime.
        "chat" => Spec {
            mix: TrafficMix::chat,
            live: 16,
            hot_capacity_pages: 64,
            admission: Admission::PromoteOnRead,
            read_every_step: true,
        },
        // Long prompts and appends only; the handoff read streams the
        // session without admitting it, so every prompt evicts and
        // eviction re-encode carries the load.
        "ingest" => Spec {
            mix: TrafficMix::summarize,
            live: 16,
            hot_capacity_pages: 96,
            admission: Admission::StreamCold,
            read_every_step: false,
        },
        // 4 sessions of at most 128 + 256 tokens need at most 96 pages,
        // so nothing is ever evicted or decoded: the codec is bypassed.
        // Their rows (about 2.4 MB) stay near the core's own cache, so
        // memory traffic from outside the process moves the run less.
        "chat_hot" => Spec {
            mix: TrafficMix::chat,
            live: 4,
            hot_capacity_pages: 128,
            admission: Admission::PromoteOnRead,
            read_every_step: true,
        },
        other => unreachable!("not a serve workload: {other}"),
    }
}

/// SplitMix64, for the draws the benchmark makes itself.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw from `0..n`.
fn below(state: &mut u64, n: usize) -> usize {
    (splitmix64(state) % n as u64) as usize
}

/// The endless session stream: `(prompt, decode)` lengths.
struct Stream {
    prompt: (usize, usize),
    decode: (usize, usize),
    state: u64,
    block: Vec<(usize, usize)>,
}

impl Stream {
    /// One draw from each of `STRATA` equal parts of `lo..=hi`, shuffled.
    fn strata(&mut self, (lo, hi): (usize, usize)) -> Vec<usize> {
        let span = hi - lo + 1;
        let mut v: Vec<usize> = (0..STRATA)
            .map(|k| {
                let (a, b) = (span * k / STRATA, span * (k + 1) / STRATA);
                lo + a + below(&mut self.state, (b - a).max(1))
            })
            .collect();
        for i in (1..v.len()).rev() {
            v.swap(i, below(&mut self.state, i + 1));
        }
        v
    }

    fn next(&mut self) -> (usize, usize) {
        if self.block.is_empty() {
            let prompts = self.strata(self.prompt);
            let decodes = self.strata(self.decode);
            self.block = prompts.into_iter().zip(decodes).collect();
        }
        self.block.pop().expect("a block holds STRATA sessions")
    }
}

/// Calls and busy time of one kind of store call.
#[derive(Clone, Copy, Default)]
struct Op {
    calls: u64,
    busy: Duration,
}

impl Op {
    fn add(&mut self, d: Duration) {
        self.calls += 1;
        self.busy += d;
    }

    fn calls_per_s(&self) -> f64 {
        ratio(self.calls as f64, self.busy.as_secs_f64())
    }
}

/// What one measured stretch of the replay saw.
#[derive(Default)]
struct Phase {
    /// Time excluded from the measurement: output checks and residency
    /// samples.
    paused: Duration,
    /// Wall time of the stretch minus `paused`.
    timed: Duration,
    /// KV values appended plus values read.
    values_moved: u64,
    /// Latency of the current window's foreground operations, in ms.
    op_ms: Vec<f64>,
    /// Per window: MB/s moved, and the p50 and p99 of its foreground
    /// operations.
    window_mb_s: Vec<f64>,
    window_p50_ms: Vec<f64>,
    window_p99_ms: Vec<f64>,
    append: Op,
    append_evicting: Op,
    prefill: Op,
    read: Op,
    read_cold: Op,
    close: Op,
    kv_decode: Op,
    kv_decode_values: u64,
    kv_decode_bytes: u64,
    kv_encode: Op,
    kv_encode_values: u64,
    fp16_bytes: f64,
    resident_bytes: f64,
    counters: [u64; 6],
}

impl Phase {
    fn throughput_mb_s(&self) -> f64 {
        median(&self.window_mb_s)
    }
}

/// A live session: its store handle and what it appended.
struct Session {
    sid: SessionId,
    id: u64,
    left: usize,
    tokens: usize,
    /// `(first pool row, rows)` per append, in order.
    runs: Vec<(usize, usize)>,
    /// Per page: whether its values have a compressed image, so that
    /// sending it cold is a drop rather than a re-encode.
    clean: Vec<bool>,
}

impl Session {
    /// Appends `count` source rows, starting at token `from`, to `out`.
    fn source_rows(
        &self,
        pool: &[f32],
        kv_dim: usize,
        from: usize,
        count: usize,
        out: &mut Vec<f32>,
    ) {
        let (mut token, end) = (0, from + count);
        for &(first, rows) in &self.runs {
            let (lo, hi) = (from.max(token), end.min(token + rows));
            if lo < hi {
                let r = first + lo - token;
                out.extend_from_slice(&pool[r * kv_dim..(r + hi - lo) * kv_dim]);
            }
            token += rows;
            if token >= end {
                break;
            }
        }
    }
}

struct Replay {
    spec: Spec,
    store: PagedKvStore,
    pool: Tensor,
    kv_dim: usize,
    cursor: usize,
    stream: Stream,
    live: Vec<Session>,
    next_id: u64,
    /// Sessions still to admit part-way through their decode.
    fast_forward: usize,
    closed: u64,
    reads: u64,
    out: Vec<f32>,
    expect: Vec<f32>,
    /// Squared error and energy of the checked reads, for `kv_nmse`.
    err_sq: f64,
    energy: f64,
    outcome: Outcome,
}

impl Replay {
    /// Pool rows for an append of `n` tokens, contiguous, wrapping to the
    /// start when the pool's tail is too short.
    fn take(&mut self, n: usize) -> usize {
        if self.cursor + n > POOL_ROWS {
            self.cursor = 0;
        }
        self.cursor += n;
        self.cursor - n
    }

    fn store_counters(&self) -> [u64; 6] {
        let m = self.store.metrics();
        [
            m.hot_hits,
            m.cold_reads,
            m.evictions,
            m.recompressions,
            m.clean_drops,
            m.corrupt_reads,
        ]
    }

    /// `(session, page)` of every hot page, when a call that may add
    /// `new_pages` hot pages can evict; empty otherwise.
    fn hot_pages(&self, new_pages: usize) -> Vec<(usize, usize)> {
        if self.store.hot_pages() + new_pages <= self.spec.hot_capacity_pages {
            return Vec::new();
        }
        let mut hot = Vec::new();
        for (i, s) in self.live.iter().enumerate() {
            for p in 0..s.clean.len() {
                if matches!(self.store.page_tier(s.sid, p), Ok(PageTier::Hot)) {
                    hot.push((i, p));
                }
            }
        }
        hot
    }

    /// Shadow of a call's eviction re-encode: `compress_batch` on the
    /// source rows of the dirty pages among `hot` that the call sent cold.
    fn shadow_encode(
        &mut self,
        hot: &[(usize, usize)],
        session: u64,
        parent: SpanRef,
        tracer: &mut Tracer,
        phase: &mut Phase,
    ) {
        let mut pages: Vec<Tensor> = Vec::new();
        for &(i, p) in hot {
            let s = &mut self.live[i];
            if !matches!(self.store.page_tier(s.sid, p), Ok(PageTier::Cold)) {
                continue;
            }
            if !s.clean[p] {
                let rows = PAGE_TOKENS.min(s.tokens - p * PAGE_TOKENS);
                let mut data = Vec::with_capacity(rows * self.kv_dim);
                s.source_rows(
                    self.pool.data(),
                    self.kv_dim,
                    p * PAGE_TOKENS,
                    rows,
                    &mut data,
                );
                pages.push(Tensor::from_vec(rows, self.kv_dim, data));
            }
            s.clean[p] = true;
        }
        if pages.is_empty() {
            return;
        }
        let refs: Vec<&Tensor> = pages.iter().collect();
        let (_, span) = tracer.span("core.kv_encode", Some(parent), session, || {
            std::hint::black_box(self.store.codec().compress_batch(&refs));
        });
        phase.kv_encode.add(span.duration());
        phase.kv_encode_values += refs.iter().map(|t| t.len() as u64).sum::<u64>();
    }

    fn append(
        &mut self,
        i: usize,
        n: usize,
        phase: &mut Phase,
        tracer: &mut Option<&mut Tracer>,
    ) -> Duration {
        let first = self.take(n);
        let hot = match tracer {
            Some(_) => self.hot_pages(n.div_ceil(PAGE_TOKENS) + 1),
            None => Vec::new(),
        };
        let before = self.store_counters();
        let rows = &self.pool.data()[first * self.kv_dim..(first + n) * self.kv_dim];
        let sid = self.live[i].sid;
        let start = Instant::now();
        let result = self.store.append(sid, rows);
        let end = Instant::now();
        let took = end - start;
        self.outcome.attempted += 1;
        if let Err(e) = result {
            self.outcome.fail(format!("append of {n} rows: {e}"));
            return took;
        }
        let s = &mut self.live[i];
        let first_page = s.tokens / PAGE_TOKENS;
        s.runs.push((first, n));
        s.tokens += n;
        s.clean.resize(s.tokens.div_ceil(PAGE_TOKENS), false);
        s.clean[first_page..].fill(false);
        phase.values_moved += (n * self.kv_dim) as u64;
        phase.append.add(took);
        if n > 1 {
            phase.prefill.add(took);
        }
        let after = self.store_counters();
        if after[2] > before[2] {
            phase.append_evicting.add(took);
        }
        if let Some(tr) = tracer {
            let id = self.live[i].id;
            let span = tr.record("serve.append", None, id, start, end);
            if after[2] > before[2] {
                self.shadow_encode(&hot, id, span, tr, phase);
            }
        }
        took
    }

    fn read(&mut self, i: usize, phase: &mut Phase, tracer: &mut Option<&mut Tracer>) -> Duration {
        let (sid, id, tokens) = (self.live[i].sid, self.live[i].id, self.live[i].tokens);
        let pages = self.live[i].clean.len();
        let (cold, hot) = match tracer {
            Some(_) => {
                let cold: Vec<CompressedTensor> = (0..pages)
                    .filter_map(|p| self.store.cold_page(sid, p).ok().flatten().cloned())
                    .collect();
                (cold, self.hot_pages(pages))
            }
            None => (Vec::new(), Vec::new()),
        };
        let before = self.store_counters();
        let mut out = std::mem::take(&mut self.out);
        out.clear();
        let start = Instant::now();
        let result = self.store.read_session_into(sid, &mut out);
        let end = Instant::now();
        let took = end - start;
        self.outcome.attempted += 1;
        let want = tokens * self.kv_dim;
        match result {
            Err(e) => self.outcome.fail(format!("read of {sid}: {e}")),
            Ok(r) => {
                if let Some(c) = r.corruptions.first() {
                    self.outcome.fail(format!("read of {sid}: {c}"));
                }
                if out.len() != want {
                    self.outcome
                        .fail(format!("read of {sid}: {} values, want {want}", out.len()));
                }
                if r.cold_pages > 0 {
                    phase.read_cold.add(took);
                }
            }
        }
        phase.read.add(took);
        phase.values_moved += out.len() as u64;

        self.reads += 1;
        if self.reads % VERIFY_EVERY == 1 && out.len() == want {
            let t = Instant::now();
            let mut expect = std::mem::take(&mut self.expect);
            expect.clear();
            self.live[i].source_rows(self.pool.data(), self.kv_dim, 0, tokens, &mut expect);
            for (&got, &want) in out.iter().zip(&expect) {
                self.err_sq += ((got - want) as f64).powi(2);
                self.energy += (want as f64).powi(2);
            }
            self.expect = expect;
            phase.paused += t.elapsed();
        }
        self.out = out;

        if let Some(tr) = tracer {
            let span = tr.record("serve.read_session", None, id, start, end);
            if !cold.is_empty() {
                let refs: Vec<&CompressedTensor> = cold.iter().collect();
                let (_, shadow) = tr.span("core.kv_decode", Some(span), id, || {
                    std::hint::black_box(
                        self.store
                            .codec()
                            .decompress_batch_report(&refs, RecoveryPolicy::SalvageBlocks),
                    );
                });
                phase.kv_decode.add(shadow.duration());
                phase.kv_decode_values += cold
                    .iter()
                    .map(|c| (c.rows() * c.cols()) as u64)
                    .sum::<u64>();
                phase.kv_decode_bytes += cold
                    .iter()
                    .map(|c| c.compressed_bytes() as u64)
                    .sum::<u64>();
            }
            if self.store_counters()[2] > before[2] {
                self.shadow_encode(&hot, id, span, tr, phase);
            }
        }
        took
    }

    /// One round: admissions, one decode turn per live session, closes.
    fn round(&mut self, phase: &mut Phase, tracer: &mut Option<&mut Tracer>) {
        while self.live.len() < self.spec.live {
            let (prompt, decode) = self.stream.next();
            let skip = if self.fast_forward > 0 {
                self.fast_forward -= 1;
                below(&mut self.stream.state, decode)
            } else {
                0
            };
            self.next_id += 1;
            self.live.push(Session {
                sid: self.store.open_session(),
                id: self.next_id,
                left: decode - skip,
                tokens: 0,
                runs: Vec::new(),
                clean: Vec::new(),
            });
            let took = self.append(self.live.len() - 1, prompt + skip, phase, tracer);
            if !self.spec.read_every_step {
                phase.op_ms.push(took.as_secs_f64() * 1e3);
            }
        }
        for i in 0..self.live.len() {
            if self.live[i].left == 0 {
                continue;
            }
            self.live[i].left -= 1;
            let mut step = self.append(i, 1, phase, tracer);
            if self.spec.read_every_step {
                step += self.read(i, phase, tracer);
                phase.op_ms.push(step.as_secs_f64() * 1e3);
            }
        }
        let mut i = 0;
        while i < self.live.len() {
            if self.live[i].left > 0 {
                i += 1;
                continue;
            }
            if !self.spec.read_every_step {
                self.read(i, phase, tracer);
            }
            let s = self.live.swap_remove(i);
            let start = Instant::now();
            let result = self.store.close_session(s.sid);
            let end = Instant::now();
            self.outcome.attempted += 1;
            if let Err(e) = result {
                self.outcome.fail(format!("close of {}: {e}", s.sid));
            }
            phase.close.add(end - start);
            if let Some(tr) = tracer {
                tr.record("serve.close", None, s.id, start, end);
            }
            self.closed += 1;
        }

        let t = Instant::now();
        phase.fp16_bytes += self.store.fp16_bytes() as f64;
        phase.resident_bytes += self.store.resident_bytes().total() as f64;
        phase.paused += t.elapsed();
    }

    /// Replays until `budget` of measured time has passed. The store's
    /// metrics are reset every window: its latency samples grow with
    /// every page read, and `peak_rss_mb` should not depend on how many
    /// reads a run completes.
    fn measure(&mut self, budget: Duration, mut tracer: Option<&mut Tracer>) -> Phase {
        if tracer.is_some() {
            // Which hot pages are clean is not observable from outside the
            // store; count them dirty until they next go cold.
            for s in &mut self.live {
                for (p, clean) in s.clean.iter_mut().enumerate() {
                    *clean = matches!(self.store.page_tier(s.sid, p), Ok(PageTier::Cold));
                }
            }
        }
        let mut phase = Phase::default();
        self.store.reset_metrics();
        let window = budget / WINDOWS;
        let (mut w_start, mut w_values) = (Duration::ZERO, 0);
        let start = Instant::now();
        while phase.timed < budget {
            self.round(&mut phase, &mut tracer);
            phase.timed = start.elapsed().saturating_sub(phase.paused);
            let span = phase.timed - w_start;
            if span >= window || phase.timed >= budget {
                let mb = (phase.values_moved - w_values) as f64 * 2.0 / 1e6;
                phase.window_mb_s.push(mb / span.as_secs_f64());
                if !phase.op_ms.is_empty() {
                    phase.window_p50_ms.push(median(&phase.op_ms));
                    phase.window_p99_ms.push(percentile(&phase.op_ms, 0.99));
                    phase.op_ms.clear();
                }
                (w_start, w_values) = (phase.timed, phase.values_moved);
                for (c, n) in phase.counters.iter_mut().zip(self.store_counters()) {
                    *c += n;
                }
                self.store.reset_metrics();
            }
        }
        phase
    }
}

/// Runs a serve workload and returns its metrics.
pub fn run(run: &Run) -> (Metrics, Outcome) {
    let spec = spec(&run.workload);
    let model = ModelSpec::llama31_8b();
    let kv_dim = model.kv_dim();
    let cfg = EccoConfig {
        max_calibration_groups: CALIBRATION_GROUPS,
        ..EccoConfig::default()
    };
    let serve_cfg = ServeConfig {
        page_tokens: PAGE_TOKENS,
        hot_capacity_pages: spec.hot_capacity_pages,
        admission: spec.admission,
        ..ServeConfig::default()
    };

    // Set-up: make the K rows, calibrate the KV codec on them and build
    // the store, several times. Calibration alone takes about 15 ms, too
    // short to time steadily across runs.
    let mut setup_s = Vec::new();
    let mut calibrate_s = Vec::new();
    let mut built = None;
    for _ in 0..run.setups(SETUP_REPEATS) {
        let start = Instant::now();
        let pool = SynthSpec::for_kind(TensorKind::KCache, POOL_ROWS, kv_dim)
            .seeded(run.seed)
            .generate();
        let calibrating = Instant::now();
        let codec = KvCodec::calibrate(&[&pool], &cfg);
        calibrate_s.push(calibrating.elapsed().as_secs_f64());
        built = Some((pool, PagedKvStore::new(&model, codec, serve_cfg)));
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let (pool, store) = built.expect("at least one set-up");

    let mix = (spec.mix)(STRATA, spec.live, run.seed);
    let live = spec.live;
    let mut replay = Replay {
        stream: Stream {
            prompt: mix.prompt_tokens,
            decode: mix.decode_tokens,
            state: run.seed,
            block: Vec::new(),
        },
        spec,
        store,
        pool,
        kv_dim,
        cursor: 0,
        live: Vec::new(),
        next_id: 0,
        fast_forward: live,
        closed: 0,
        reads: 0,
        out: Vec::new(),
        expect: Vec::new(),
        err_sq: 0.0,
        energy: 0.0,
        outcome: Outcome::default(),
    };

    let warmup_closes = if run.smoke { 1 } else { live as u64 / 4 };
    let mut warmup = Phase::default();
    while replay.closed < warmup_closes {
        replay.round(&mut warmup, &mut None);
    }

    let mut metrics = Metrics::default();
    let budget = Duration::from_secs_f64(run.seconds);
    if run.traced {
        let untraced = replay.measure(budget / 2, None);
        let mut tracer = Tracer::new();
        let traced = replay.measure(budget / 2, Some(&mut tracer));
        per_layer(
            &mut metrics,
            &untraced,
            &traced,
            &tracer,
            median(&calibrate_s),
        );
        metrics.set("quality.kv_nmse", ratio(replay.err_sq, replay.energy));
        crate::write_trace(run, &tracer);
    } else {
        let p = replay.measure(budget, None);
        metrics.set("setup_s", median(&setup_s));
        metrics.set("throughput_mb_s", p.throughput_mb_s());
        metrics.set("op_p50_ms", median(&p.window_p50_ms));
        metrics.set("capacity_ratio", ratio(p.fp16_bytes, p.resident_bytes));
    }

    let nmse = ratio(replay.err_sq, replay.energy);
    println!("# kv_nmse {nmse} (at most {KV_NMSE_MAX})");
    if nmse.is_nan() || nmse > KV_NMSE_MAX {
        replay
            .outcome
            .fail(format!("kv_nmse {nmse} exceeds {KV_NMSE_MAX}"));
    }
    if replay.energy == 0.0 {
        replay
            .outcome
            .fail("no read was checked against its rows".into());
    }
    (metrics, replay.outcome)
}

fn per_layer(m: &mut Metrics, untraced: &Phase, p: &Phase, tracer: &Tracer, calibrate_s: f64) {
    let wall = p.timed.as_secs_f64();
    let busy = |op: &Op| pct(op.busy.as_secs_f64(), wall);
    m.set(
        "bench.op_p99_over_p50",
        ratio(
            median(&untraced.window_p99_ms),
            median(&untraced.window_p50_ms),
        ),
    );
    m.set("serve.append.calls", p.append.calls as f64);
    m.set("serve.append.busy_pct", busy(&p.append));
    m.set("serve.append.calls_per_s", p.append.calls_per_s());
    m.set(
        "serve.append_evicting.calls",
        p.append_evicting.calls as f64,
    );
    m.set("serve.append_evicting.busy_pct", busy(&p.append_evicting));
    m.set("serve.prefill.calls", p.prefill.calls as f64);
    m.set("serve.prefill.calls_per_s", p.prefill.calls_per_s());
    m.set("serve.read_session.calls", p.read.calls as f64);
    m.set("serve.read_session.busy_pct", busy(&p.read));
    m.set("serve.read_session.calls_per_s", p.read.calls_per_s());
    m.set("serve.read_session_cold.calls", p.read_cold.calls as f64);
    m.set("serve.read_session_cold.busy_pct", busy(&p.read_cold));
    m.set("serve.close.calls", p.close.calls as f64);
    m.set("serve.close.busy_pct", busy(&p.close));
    let serve_busy = p.append.busy + p.read.busy + p.close.busy;
    let shadow = p.kv_decode.busy + p.kv_encode.busy;
    m.set(
        "serve.self_pct",
        pct(serve_busy.as_secs_f64() - shadow.as_secs_f64(), wall),
    );

    let [hot_hits, cold_reads, evictions, recompressions, clean_drops, corrupt_reads] =
        p.counters.map(|c| c as f64);
    m.set("serve.hot_hits", hot_hits);
    m.set("serve.cold_reads", cold_reads);
    m.set("serve.evictions", evictions);
    m.set("serve.recompressions", recompressions);
    m.set("serve.clean_drops", clean_drops);
    m.set("serve.corrupt_reads", corrupt_reads);
    m.set(
        "serve.hot_hit_ratio",
        ratio(hot_hits, hot_hits + cold_reads),
    );
    m.set("serve.clean_drop_ratio", ratio(clean_drops, evictions));
    m.set("serve.refault_ratio", ratio(cold_reads, evictions));

    m.set("core.kv_decode.calls", p.kv_decode.calls as f64);
    m.set("core.kv_decode.values", p.kv_decode_values as f64);
    m.set("core.kv_decode.compressed_bytes", p.kv_decode_bytes as f64);
    m.set("core.kv_decode.busy_pct", busy(&p.kv_decode));
    m.set(
        "core.kv_decode.mvalues_per_s",
        ratio(
            p.kv_decode_values as f64 / 1e6,
            p.kv_decode.busy.as_secs_f64(),
        ),
    );
    m.set("core.kv_encode.calls", p.kv_encode.calls as f64);
    m.set("core.kv_encode.values", p.kv_encode_values as f64);
    m.set("core.kv_encode.busy_pct", busy(&p.kv_encode));
    m.set(
        "core.kv_encode.mvalues_per_s",
        ratio(
            p.kv_encode_values as f64 / 1e6,
            p.kv_encode.busy.as_secs_f64(),
        ),
    );
    m.set("core.calibrate.busy_s", calibrate_s);

    m.set(
        "pool.executors",
        ecco_pool::Pool::current().executors() as f64,
    );
    m.set(
        "trace.overhead_pct",
        pct(
            untraced.throughput_mb_s() - p.throughput_mb_s(),
            untraced.throughput_mb_s(),
        ),
    );
    m.set("trace.spans", tracer.recorded() as f64);
}
