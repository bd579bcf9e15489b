//! Decode-step workloads: model → kernel stream.

use ecco_sim::{ExecScheme, Kernel, SimEngine, StepTime};

use crate::models::ModelSpec;

/// One auto-regressive decode step of `batch` sequences at context length
/// `seq`.
#[derive(Clone, Debug, PartialEq)]
pub struct DecodeWorkload {
    /// The model being served.
    pub model: ModelSpec,
    /// Sequences decoded together.
    pub batch: usize,
    /// Current context length (KV entries per sequence).
    pub seq: usize,
}

impl DecodeWorkload {
    /// Creates a workload.
    ///
    /// # Panics
    ///
    /// Panics if `batch` or `seq` is zero.
    pub fn new(model: ModelSpec, batch: usize, seq: usize) -> DecodeWorkload {
        assert!(batch > 0 && seq > 0, "batch and seq must be positive");
        DecodeWorkload { model, batch, seq }
    }

    /// Expands the decode step into the kernel stream TensorRT-LLM-style
    /// runtimes launch: per layer a fused QKV projection, rotary +
    /// attention, output projection, fused gate/up, SiLU·mul, down
    /// projection, two norms — plus any scheme-specific extra kernels
    /// (QuaRot's online rotations), plus the final norm and LM head.
    pub fn kernels(&self, scheme: &ExecScheme) -> Vec<Kernel> {
        let m = &self.model;
        let b = self.batch;
        let h = m.hidden;
        let kvd = m.kv_dim();
        let mut out = Vec::with_capacity(m.layers * (9 + scheme.extra_kernels_per_layer) + 2);
        for _ in 0..m.layers {
            out.push(Kernel::elementwise(b * h)); // input RMSNorm
            out.push(Kernel::gemm(b, h + 2 * kvd, h)); // fused QKV
            out.push(Kernel::elementwise(b * (h + kvd))); // rotary embed
            out.push(Kernel::AttentionDecode {
                batch: b,
                heads: m.heads,
                kv_heads: m.kv_heads,
                head_dim: m.head_dim,
                seq: self.seq,
            });
            out.push(Kernel::gemm(b, h, h)); // O projection
            out.push(Kernel::elementwise(b * h)); // post-attn RMSNorm
            out.push(Kernel::gemm(b, 2 * m.ffn, h)); // fused gate+up
            out.push(Kernel::elementwise(b * m.ffn)); // SiLU · mul
            out.push(Kernel::gemm(b, h, m.ffn)); // down projection
            for _ in 0..scheme.extra_kernels_per_layer {
                out.push(Kernel::Elementwise {
                    elems: b * h,
                    flops_per_elem: scheme.extra_flops_per_act_elem,
                });
            }
        }
        out.push(Kernel::elementwise(b * h)); // final norm
        out.push(Kernel::gemm(b, m.vocab, h)); // LM head
        out
    }

    /// Times one decode step under `scheme`.
    pub fn step_time(&self, engine: &SimEngine, scheme: &ExecScheme) -> StepTime {
        engine.step_time(&self.kernels(scheme), scheme)
    }

    /// Total sector-level memory requests of one decode step.
    pub fn memory_requests(&self, engine: &SimEngine, scheme: &ExecScheme) -> u64 {
        self.kernels(scheme)
            .iter()
            .map(|k| engine.memory_requests(k, scheme))
            .sum()
    }
}

/// One prefill pass over a `batch × prompt_len` prompt.
///
/// The paper omits prefill from its evaluation because it is
/// compute-bound, runs once, and is a negligible share of long decodes;
/// this workload exists to *validate* that claim in the simulator (see
/// `prefill_is_compute_bound`).
#[derive(Clone, Debug, PartialEq)]
pub struct PrefillWorkload {
    /// The model being served.
    pub model: ModelSpec,
    /// Prompts processed together.
    pub batch: usize,
    /// Prompt length in tokens.
    pub prompt_len: usize,
}

impl PrefillWorkload {
    /// Creates a prefill workload.
    ///
    /// # Panics
    ///
    /// Panics if `batch` or `prompt_len` is zero.
    pub fn new(model: ModelSpec, batch: usize, prompt_len: usize) -> PrefillWorkload {
        assert!(
            batch > 0 && prompt_len > 0,
            "batch and prompt must be positive"
        );
        PrefillWorkload {
            model,
            batch,
            prompt_len,
        }
    }

    /// The prefill kernel stream: the same projections as decode but with
    /// `m = batch × prompt_len` rows, plus causal self-attention over the
    /// prompt (modeled as a decode-attention kernel at the mean causal
    /// context `prompt_len / 2` per token).
    pub fn kernels(&self, scheme: &ExecScheme) -> Vec<Kernel> {
        let m = &self.model;
        let rows = self.batch * self.prompt_len;
        let h = m.hidden;
        let kvd = m.kv_dim();
        let mut out = Vec::with_capacity(m.layers * 9 + 2);
        for _ in 0..m.layers {
            out.push(Kernel::elementwise(rows * h));
            out.push(Kernel::gemm(rows, h + 2 * kvd, h));
            out.push(Kernel::elementwise(rows * (h + kvd)));
            out.push(Kernel::AttentionPrefill {
                batch: self.batch,
                heads: m.heads,
                kv_heads: m.kv_heads,
                head_dim: m.head_dim,
                prompt: self.prompt_len,
            });
            out.push(Kernel::gemm(rows, h, h));
            out.push(Kernel::elementwise(rows * h));
            out.push(Kernel::gemm(rows, 2 * m.ffn, h));
            out.push(Kernel::elementwise(rows * m.ffn));
            out.push(Kernel::gemm(rows, h, m.ffn));
            for _ in 0..scheme.extra_kernels_per_layer {
                out.push(Kernel::Elementwise {
                    elems: rows * h,
                    flops_per_elem: scheme.extra_flops_per_act_elem,
                });
            }
        }
        out.push(Kernel::elementwise(rows * h));
        out.push(Kernel::gemm(rows, m.vocab, h));
        out
    }

    /// Times the prefill pass under `scheme`.
    pub fn step_time(&self, engine: &SimEngine, scheme: &ExecScheme) -> StepTime {
        engine.step_time(&self.kernels(scheme), scheme)
    }
}

/// A reproducible multi-session serving traffic mix: `sessions` total
/// sessions, each with a ragged prompt (prefill burst) and decode
/// length drawn from the configured ranges, at most `live` of them
/// decoding concurrently. [`TrafficMix::events`] expands the mix into
/// the deterministic event stream the paged KV serving engine
/// (`ecco-serve`) replays — prefill writes arrive as one burst per
/// session, decode writes arrive one token per round-robin turn, and
/// sessions close when their decode budget is spent.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TrafficMix {
    /// Total sessions the mix opens over its lifetime.
    pub sessions: usize,
    /// Target concurrently-live sessions (admission cap).
    pub live: usize,
    /// Inclusive range of prompt lengths, in tokens.
    pub prompt_tokens: (usize, usize),
    /// Inclusive range of generated (decode) lengths, in tokens.
    pub decode_tokens: (usize, usize),
    /// Seed of the per-session length draws.
    pub seed: u64,
}

/// One session's drawn lengths within a [`TrafficMix`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SessionPlan {
    /// Session index within the mix (0-based arrival order).
    pub session: usize,
    /// Prompt length in tokens (prefill burst).
    pub prompt: usize,
    /// Generated length in tokens (decode steps).
    pub decode: usize,
}

/// One step of a serving trace (see [`TrafficMix::events`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrafficEvent {
    /// A session arrives (allocate its page table).
    Open {
        /// Arriving session index.
        session: usize,
    },
    /// The session's prompt is processed: `tokens` KV rows arrive at
    /// once — the write burst that distinguishes prefill from decode.
    Prefill {
        /// Session index.
        session: usize,
        /// Prompt length in tokens.
        tokens: usize,
    },
    /// One auto-regressive decode step: a single KV row arrives.
    Decode {
        /// Session index.
        session: usize,
    },
    /// The session ends (free its pages).
    Close {
        /// Departing session index.
        session: usize,
    },
}

/// SplitMix64 step — the dependency-free seeded generator behind the
/// traffic draws (deterministic across platforms and thread counts).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn draw(state: &mut u64, (lo, hi): (usize, usize)) -> usize {
    debug_assert!(lo <= hi);
    lo + (splitmix64(state) % (hi - lo + 1) as u64) as usize
}

impl TrafficMix {
    /// An interactive chat-style mix: short ragged prompts, long ragged
    /// decodes — the decode-dominated regime the paper evaluates.
    pub fn chat(sessions: usize, live: usize, seed: u64) -> TrafficMix {
        TrafficMix {
            sessions,
            live,
            prompt_tokens: (16, 128),
            decode_tokens: (32, 256),
            seed,
        }
    }

    /// A summarization/RAG-style mix: long prompts, short decodes —
    /// prefill-dominated, stressing burst admission.
    pub fn summarize(sessions: usize, live: usize, seed: u64) -> TrafficMix {
        TrafficMix {
            sessions,
            live,
            prompt_tokens: (256, 1024),
            decode_tokens: (8, 64),
            seed,
        }
    }

    /// Draws every session's lengths, in arrival order. Deterministic in
    /// `seed` alone.
    ///
    /// # Panics
    ///
    /// Panics if `sessions` or `live` is zero, a range is inverted, or
    /// the prompt range admits zero-length prompts.
    pub fn plans(&self) -> Vec<SessionPlan> {
        assert!(self.sessions > 0 && self.live > 0, "empty mix");
        assert!(
            self.prompt_tokens.0 >= 1 && self.prompt_tokens.0 <= self.prompt_tokens.1,
            "bad prompt range"
        );
        assert!(
            self.decode_tokens.0 <= self.decode_tokens.1,
            "bad decode range"
        );
        let mut state = self.seed ^ 0xECC0_5E47;
        (0..self.sessions)
            .map(|session| SessionPlan {
                session,
                prompt: draw(&mut state, self.prompt_tokens),
                decode: draw(&mut state, self.decode_tokens),
            })
            .collect()
    }

    /// Expands the mix into its serving trace: sessions are admitted in
    /// arrival order whenever the live set has room, each admission is
    /// an [`TrafficEvent::Open`] followed by its prefill burst, then
    /// live sessions take round-robin single-token decode turns until
    /// their budget is spent and they close. The stream is a pure
    /// function of the mix.
    pub fn events(&self) -> Vec<TrafficEvent> {
        let plans = self.plans();
        let mut events = Vec::new();
        let mut next = 0usize;
        let mut active: Vec<(usize, usize)> = Vec::new(); // (session, decode left)
        loop {
            while active.len() < self.live && next < plans.len() {
                let p = plans[next];
                events.push(TrafficEvent::Open { session: p.session });
                events.push(TrafficEvent::Prefill {
                    session: p.session,
                    tokens: p.prompt,
                });
                active.push((p.session, p.decode));
                next += 1;
            }
            if active.is_empty() {
                break;
            }
            // One round-robin decode turn per live session with budget.
            for (session, left) in active.iter_mut() {
                if *left > 0 {
                    events.push(TrafficEvent::Decode { session: *session });
                    *left -= 1;
                }
            }
            active.retain(|&(session, left)| {
                if left == 0 {
                    events.push(TrafficEvent::Close { session });
                    false
                } else {
                    true
                }
            });
        }
        events
    }

    /// Total KV rows (tokens) the whole trace writes.
    pub fn total_tokens(&self) -> usize {
        self.plans().iter().map(|p| p.prompt + p.decode).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecco_sim::GpuSpec;

    fn engine() -> SimEngine {
        SimEngine::new(GpuSpec::a100())
    }

    #[test]
    fn kernel_count_scales_with_layers() {
        let wl = DecodeWorkload::new(ModelSpec::llama_7b(), 1, 128);
        let n = wl.kernels(&ExecScheme::fp16_trt()).len();
        assert_eq!(n, 32 * 9 + 2);
        let nq = wl.kernels(&ExecScheme::quarot()).len();
        assert_eq!(nq, 32 * (9 + 6) + 2);
    }

    #[test]
    fn ecco_speedup_in_paper_range() {
        // Figure 11a regime: LLaMA-13B, seq 2048. The paper reports
        // 2.6–3.2x vs TensorRT FP16 across batch sizes.
        let e = engine();
        for batch in [1, 8, 64] {
            let wl = DecodeWorkload::new(ModelSpec::llama_13b(), batch, 2048);
            let fp16 = wl.step_time(&e, &ExecScheme::fp16_trt()).total;
            let ecco = wl.step_time(&e, &ExecScheme::ecco()).total;
            let s = fp16 / ecco;
            assert!(s > 2.0 && s < 4.5, "batch {batch}: speedup {s}");
        }
    }

    #[test]
    fn gqa_models_gain_less() {
        // Figure 11c: Mistral-7B (GQA) shows a smaller Ecco speedup than
        // the size-comparable LLaMA-7B (MHA) at long context.
        let e = engine();
        let mha = DecodeWorkload::new(ModelSpec::llama_7b(), 32, 4096);
        let gqa = DecodeWorkload::new(ModelSpec::mistral_7b(), 32, 4096);
        let s_mha = mha.step_time(&e, &ExecScheme::fp16_trt()).total
            / mha.step_time(&e, &ExecScheme::ecco()).total;
        let s_gqa = gqa.step_time(&e, &ExecScheme::fp16_trt()).total
            / gqa.step_time(&e, &ExecScheme::ecco()).total;
        assert!(
            s_gqa < s_mha,
            "GQA speedup {s_gqa} must trail MHA speedup {s_mha}"
        );
    }

    #[test]
    fn longer_context_grows_attention_share() {
        let e = engine();
        let short = DecodeWorkload::new(ModelSpec::llama_13b(), 8, 128)
            .step_time(&e, &ExecScheme::fp16_trt());
        let long = DecodeWorkload::new(ModelSpec::llama_13b(), 8, 4096)
            .step_time(&e, &ExecScheme::fp16_trt());
        let share_short = short.attention / short.total;
        let share_long = long.attention / long.total;
        assert!(share_long > share_short);
    }

    #[test]
    fn prefill_is_compute_bound() {
        // The paper's justification for omitting prefill: at prompt 1024,
        // compression buys little because the GEMMs are compute-bound.
        let e = engine();
        let pf = PrefillWorkload::new(ModelSpec::llama_13b(), 4, 1024);
        let fp16 = pf.step_time(&e, &ExecScheme::fp16_trt()).total;
        let ecco = pf.step_time(&e, &ExecScheme::ecco()).total;
        let speedup = fp16 / ecco;
        assert!(
            speedup < 1.5,
            "prefill speedup {speedup} should be small (compute-bound)"
        );

        // And prefill runs once while decode runs per token: for a
        // 512-token generation its share of total time is minor.
        let decode = DecodeWorkload::new(ModelSpec::llama_13b(), 4, 1024)
            .step_time(&e, &ExecScheme::fp16_trt())
            .total;
        assert!(fp16 < decode * 512.0 * 0.25, "prefill is a minor share");
    }

    #[test]
    fn traffic_trace_is_deterministic_and_consistent() {
        let mix = TrafficMix::chat(40, 8, 17);
        assert_eq!(mix.events(), mix.events(), "trace must be reproducible");
        assert_ne!(
            mix.events(),
            TrafficMix::chat(40, 8, 18).events(),
            "seed must matter"
        );

        // Every session opens once, prefills once with its planned
        // prompt, decodes exactly its planned budget, and closes once.
        let plans = mix.plans();
        let mut opened = vec![0usize; plans.len()];
        let mut prefilled = vec![0usize; plans.len()];
        let mut decoded = vec![0usize; plans.len()];
        let mut closed = vec![0usize; plans.len()];
        let mut live = 0usize;
        let mut max_live = 0usize;
        for e in mix.events() {
            match e {
                TrafficEvent::Open { session } => {
                    opened[session] += 1;
                    live += 1;
                    max_live = max_live.max(live);
                }
                TrafficEvent::Prefill { session, tokens } => {
                    prefilled[session] += tokens;
                    assert_eq!(tokens, plans[session].prompt);
                }
                TrafficEvent::Decode { session } => decoded[session] += 1,
                TrafficEvent::Close { session } => {
                    closed[session] += 1;
                    live -= 1;
                }
            }
        }
        assert!(opened.iter().all(|&n| n == 1));
        assert!(closed.iter().all(|&n| n == 1));
        assert!(max_live <= mix.live, "admission cap violated");
        for p in &plans {
            assert_eq!(decoded[p.session], p.decode, "session {}", p.session);
        }
        let total: usize = plans.iter().map(|p| p.prompt + p.decode).sum();
        assert_eq!(total, mix.total_tokens());
    }

    #[test]
    fn traffic_mixes_are_ragged_and_in_range() {
        for mix in [
            TrafficMix::chat(64, 16, 3),
            TrafficMix::summarize(64, 16, 3),
        ] {
            let plans = mix.plans();
            for p in &plans {
                assert!(p.prompt >= mix.prompt_tokens.0 && p.prompt <= mix.prompt_tokens.1);
                assert!(p.decode >= mix.decode_tokens.0 && p.decode <= mix.decode_tokens.1);
            }
            // Ragged: not all sessions identical.
            assert!(
                plans.iter().any(|p| p.prompt != plans[0].prompt),
                "prompts not ragged"
            );
            assert!(
                plans.iter().any(|p| p.decode != plans[0].decode),
                "decodes not ragged"
            );
        }
    }

    #[test]
    fn request_counts_drop_under_compression() {
        let e = engine();
        let wl = DecodeWorkload::new(ModelSpec::llama_13b(), 16, 2048);
        let r16 = wl.memory_requests(&e, &ExecScheme::fp16_trt());
        let re = wl.memory_requests(&e, &ExecScheme::ecco());
        let ratio = r16 as f64 / re as f64;
        assert!(ratio > 3.0, "request ratio {ratio}");
    }
}
