//! Multi-tenant paged KV-cache serving store with a compressed cold
//! tier — the scenario-scale layer of the reproduction.
//!
//! The paper's core claim is that transparent compression turns GPU
//! memory *capacity* into reclaimable serving headroom: for LLaMA-7B at
//! batch 32 the KV cache is 34.4 GB of a 47.3 GB footprint, so the
//! number of sessions a device can keep resident — not FLOPs — bounds
//! how many users it serves. This crate lifts the codec to that regime
//! with a vLLM-style paged KV store:
//!
//! * **fixed-size token pages**: each session's KV stream is cut into
//!   pages of [`ServeConfig::page_tokens`] rows of `kv_dim` values
//!   ([`ModelSpec::kv_request_shape`]); `kv_dim` is a multiple of the
//!   codec's 128-value group for every model in the zoo, so every page
//!   (even a ragged tail) slices into whole codec groups,
//! * **per-session page tables**: sessions own ordered page lists in a
//!   shared slab; closing a session frees its pages for reuse,
//! * **two-tier residency**: pages are either *hot* (FP16-resident
//!   values) or *cold* (compressed blocks at the codec's fixed 4×).
//!   A clock (second-chance LRU) sweep evicts hot pages beyond
//!   [`ServeConfig::hot_capacity_pages`]. Appends and hot reads set a
//!   page's reference bit; a page that a read promotes joins the clock
//!   with it clear, on probation, so a cyclic working set larger than
//!   the tier keeps part of itself hot instead of evicting every page
//!   before its next use. Clean pages whose compressed twin is still
//!   attached are dropped for free, dirty ones are
//!   **recompressed in one batched pool pass**
//!   ([`KvCodec::compress_batch`]),
//! * **decompress-on-read**: cold reads go through
//!   [`KvCodec::decompress_batch_report`], so a session's cold pages
//!   decode in a single batched submission on the persistent worker
//!   pool, and corruption surfaces as a **located per-page error**
//!   ([`PageCorruption`]) instead of poisoning the store
//!   ([`RecoveryPolicy::SalvageBlocks`] zero-fills only the corrupt
//!   groups and keeps serving),
//! * **configurable admission**: [`Admission::PromoteOnRead`] admits
//!   decompressed pages back into the hot tier on probation (a page
//!   stays hot once it is read again while hot);
//!   [`Admission::StreamCold`] streams them without admission
//!   (scan-style reads cannot thrash residents).
//!
//! # Determinism
//!
//! The store is transport, not transformation: a page's hot→cold→hot
//! round trip is bit-identical to a straight [`KvCodec::compress`] /
//! [`KvCodec::decompress`] of the same rows, at any pool size — the
//! tier-1 serving tests pin this across pools {1, 4}. Eviction order depends only on the call
//! sequence (the clock is advanced by the store's own operations, never
//! by wall clock, thread timing or hash order: a session read promotes
//! its cold pages in page order), so two stores given the same calls
//! keep the same pages hot.
//!
//! # Example
//!
//! ```
//! use ecco_core::{EccoConfig, KvCodec};
//! use ecco_llm::ModelSpec;
//! use ecco_serve::{PagedKvStore, ServeConfig};
//! use ecco_tensor::{synth::SynthSpec, TensorKind};
//!
//! let model = ModelSpec::llama31_8b();
//! let (rows, cols) = model.kv_request_shape(64);
//! let calib = SynthSpec::for_kind(TensorKind::KCache, rows, cols).generate();
//! let codec = KvCodec::calibrate(&[&calib], &EccoConfig::default());
//!
//! let mut store = PagedKvStore::new(&model, codec, ServeConfig::default());
//! let sid = store.open_session();
//! store.append(sid, calib.data()).unwrap(); // 64 tokens of K rows
//! let mut out = Vec::new();
//! store.read_session_into(sid, &mut out).unwrap();
//! assert_eq!(out.len(), calib.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::time::{Duration, Instant};

use ecco_core::BatchOutcome;
pub use ecco_core::{CompressedTensor, DecodeError, KvCodec, RecoveryPolicy};
use ecco_llm::ModelSpec;
use ecco_tensor::{Tensor, GROUP_SIZE};

/// What happens to a cold page after a read decompresses it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Admission {
    /// Admit the decompressed page into the hot tier (evicting others
    /// beyond capacity) with its reference bit clear: the next clock
    /// sweep may take it back, and it stays hot once read again while
    /// hot.
    #[default]
    PromoteOnRead,
    /// Stream the values to the caller and leave the page cold — bulk
    /// scans cannot thrash the resident set.
    StreamCold,
}

/// Configuration of a [`PagedKvStore`].
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Tokens (KV rows) per page. vLLM-style engines use 16; any
    /// positive value works because `kv_dim` keeps pages group-aligned.
    pub page_tokens: usize,
    /// Maximum pages resident in the hot (FP16) tier before the clock
    /// sweep evicts.
    pub hot_capacity_pages: usize,
    /// Cold-read admission policy.
    pub admission: Admission,
    /// How corrupt cold blocks surface on read: salvage (zero-fill the
    /// corrupt groups, report each located error, keep serving) or fail
    /// the page read at its first corrupt block.
    pub recovery: RecoveryPolicy,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            page_tokens: 16,
            hot_capacity_pages: 64,
            admission: Admission::PromoteOnRead,
            recovery: RecoveryPolicy::SalvageBlocks,
        }
    }
}

/// Opaque session handle issued by [`PagedKvStore::open_session`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(u64);

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "session#{}", self.0)
    }
}

/// Which tier a page was served from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PageTier {
    /// FP16-resident — no decode on the read path.
    Hot,
    /// Compressed — the read decompressed it.
    Cold,
}

/// A corrupted cold page, located: which session, which page, and every
/// corrupt block's [`DecodeError`] (block indices are page-local; the
/// error's `tensor` slot is remapped to the page index within the
/// session, so the report is meaningful without the batch layout).
#[derive(Clone, Debug)]
pub struct PageCorruption {
    /// The owning session.
    pub session: SessionId,
    /// Page index within the session's page table.
    pub page: usize,
    /// Every corrupt block's located error, in block order (exactly one
    /// entry under [`RecoveryPolicy::FailTensor`]).
    pub bad_blocks: Vec<DecodeError>,
}

impl std::fmt::Display for PageCorruption {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} page {}: {} corrupt block(s), first: {}",
            self.session,
            self.page,
            self.bad_blocks.len(),
            self.bad_blocks
                .first()
                .map(|e| e.to_string())
                .unwrap_or_else(|| "<none>".into())
        )
    }
}

/// Errors of the serving store.
#[derive(Clone, Debug)]
pub enum ServeError {
    /// The session id is not (or no longer) open.
    UnknownSession(SessionId),
    /// The page index is beyond the session's page table.
    PageOutOfRange {
        /// The session read from.
        session: SessionId,
        /// The requested page index.
        page: usize,
        /// Pages the session actually has.
        pages: usize,
    },
    /// Appended data is not a whole number of `kv_dim`-value rows.
    MisalignedAppend {
        /// Length of the rejected append.
        len: usize,
        /// The store's KV row width.
        kv_dim: usize,
    },
    /// A cold page failed to decode under [`RecoveryPolicy::FailTensor`]
    /// (under [`RecoveryPolicy::SalvageBlocks`] reads succeed and carry
    /// the report instead — see [`PageRead::corruption`]).
    CorruptPage(PageCorruption),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownSession(s) => write!(f, "unknown {s}"),
            ServeError::PageOutOfRange {
                session,
                page,
                pages,
            } => write!(f, "{session} page {page} out of range ({pages} pages)"),
            ServeError::MisalignedAppend { len, kv_dim } => {
                write!(
                    f,
                    "append of {len} values is not a multiple of kv_dim {kv_dim}"
                )
            }
            ServeError::CorruptPage(c) => write!(f, "corrupt cold page: {c}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Result of a single-page read.
#[derive(Clone, Debug)]
pub struct PageRead {
    /// Tier the page was served from.
    pub tier: PageTier,
    /// Under [`RecoveryPolicy::SalvageBlocks`], the located report of a
    /// corrupt cold page whose bad groups were zero-filled; `None` for
    /// a healthy read.
    pub corruption: Option<PageCorruption>,
}

/// Result of a whole-session read.
#[derive(Clone, Debug, Default)]
pub struct SessionRead {
    /// Pages the session holds (all were appended to the output).
    pub pages: usize,
    /// How many were served from the cold tier (batched decode).
    pub cold_pages: usize,
    /// Located reports of salvaged corrupt pages (empty when healthy;
    /// under [`RecoveryPolicy::FailTensor`] a corrupt page returns
    /// [`ServeError::CorruptPage`] instead).
    pub corruptions: Vec<PageCorruption>,
}

/// Latency percentiles of one read class, in microseconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct LatencyStats {
    /// Recorded page reads.
    pub count: usize,
    /// Median.
    pub p50_us: f64,
    /// 99th percentile.
    pub p99_us: f64,
    /// Worst observed.
    pub max_us: f64,
}

/// Operation counters and latency samples of a store.
#[derive(Clone, Debug, Default)]
pub struct ServeMetrics {
    /// Page reads served from the hot tier.
    pub hot_hits: u64,
    /// Page reads that had to decompress a cold page.
    pub cold_reads: u64,
    /// Pages evicted from the hot tier.
    pub evictions: u64,
    /// Evictions that re-encoded the page (dirty, or never compressed).
    pub recompressions: u64,
    /// Evictions satisfied by dropping the hot copy (clean page whose
    /// compressed twin was still attached).
    pub clean_drops: u64,
    /// Cold reads that hit corruption (salvaged or failed).
    pub corrupt_reads: u64,
    hot_lat_us: Vec<f64>,
    cold_lat_us: Vec<f64>,
}

/// A latency sample's unit: microseconds.
fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Nearest-rank percentile of a sample set (`q` in `[0, 1]`); 0 for an
/// empty set.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

impl ServeMetrics {
    fn summarize(samples: &[f64]) -> LatencyStats {
        LatencyStats {
            count: samples.len(),
            p50_us: percentile(samples, 0.50),
            p99_us: percentile(samples, 0.99),
            max_us: samples.iter().copied().fold(0.0, f64::max),
        }
    }

    /// Latency percentiles of hot page reads. Each sample is one hot
    /// page's own copy, also inside a session read that decoded cold
    /// pages.
    pub fn hot_latency(&self) -> LatencyStats {
        ServeMetrics::summarize(&self.hot_lat_us)
    }

    /// Latency percentiles of cold page reads. A single-page read's
    /// sample is the whole call; a session read splits whatever its hot
    /// copies did not take (batched decode, cold copies, promotion,
    /// eviction re-encode) evenly over its cold pages.
    pub fn cold_latency(&self) -> LatencyStats {
        ServeMetrics::summarize(&self.cold_lat_us)
    }
}

/// Resident memory of a store, split by tier. Hot pages are accounted
/// at FP16 (2 bytes per value, the precision the hot tier models even
/// though the process stores `f32`); cold pages at their compressed
/// block size. A promoted clean page that still carries its compressed
/// twin is counted in **both** tiers — both copies are resident.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ResidentBytes {
    /// FP16-modeled bytes of hot page values.
    pub hot: usize,
    /// Compressed bytes of cold pages (and retained cold twins).
    pub cold: usize,
}

impl ResidentBytes {
    /// Both tiers.
    pub fn total(&self) -> usize {
        self.hot + self.cold
    }
}

/// Sessions a memory budget of `bytes` sustains at this many sessions:
/// `sessions / (bytes / 1e9)` — decimal GB, as every `GB` figure in
/// this workspace.
pub fn sessions_per_gb(sessions: usize, bytes: usize) -> f64 {
    if bytes == 0 {
        return 0.0;
    }
    sessions as f64 / (bytes as f64 / 1e9)
}

/// One page's residency. `Vacant` exists only transiently (slab free
/// list, and while eviction moves values out).
enum Residency {
    Hot {
        values: Vec<f32>,
        /// Compressed twin from the last (de)compression, kept so a
        /// clean eviction is a free drop. Cleared on append (dirty).
        cold: Option<CompressedTensor>,
        dirty: bool,
    },
    Cold(CompressedTensor),
    Vacant,
}

struct PageSlot {
    owner: u64,
    /// Page index within the owner's page table.
    seq: usize,
    /// Filled token rows (≤ `page_tokens`; the tail page is ragged).
    tokens: usize,
    /// Clock reference bit (second chance).
    referenced: bool,
    residency: Residency,
}

struct Session {
    pages: Vec<usize>,
    tokens: usize,
}

/// The multi-tenant paged KV-cache store. See the crate docs for the
/// residency model; all operations are `&mut self` and synchronous —
/// parallelism lives *inside* the batched codec calls (the persistent
/// worker pool), which is what keeps results bit-identical at any
/// thread count.
pub struct PagedKvStore {
    codec: KvCodec,
    kv_dim: usize,
    cfg: ServeConfig,
    pages: Vec<PageSlot>,
    free_pages: Vec<usize>,
    sessions: HashMap<u64, Session>,
    next_session: u64,
    /// Hot page ids in clock order.
    clock: ClockList,
    metrics: ServeMetrics,
}

/// Sentinel for "no page" in [`ClockList`] links.
const NIL: usize = usize::MAX;

/// The hot tier's clock ring as an intrusive doubly-linked list over
/// page ids: O(1) insert, O(1) removal of **any** page, and an O(1)
/// hand step — session close and eviction no longer pay a linear
/// `position` + `Vec::remove` scan per page (O(n·m) on the close of a
/// large session).
///
/// Link arrays are indexed by page id, mirroring `PagedKvStore::pages`
/// (page ids are dense and recycled). Order semantics are exactly the
/// former `Vec<usize>` clock: insertion order, a hand that wraps past
/// the tail to the head, removal at the hand advancing it to the
/// successor — so victim selection sequences are bit-for-bit what the
/// scan-based clock produced (the eviction-ledger tests pin this).
#[derive(Debug)]
struct ClockList {
    /// Predecessor page id, `NIL` at the head.
    prev: Vec<usize>,
    /// Successor page id, `NIL` at the tail.
    next: Vec<usize>,
    /// Whether the page is currently linked into the ring.
    linked: Vec<bool>,
    head: usize,
    tail: usize,
    /// The sweep cursor, as a page id (`NIL` = wrap to head next step).
    hand: usize,
    len: usize,
}

impl ClockList {
    fn new() -> ClockList {
        ClockList {
            prev: Vec::new(),
            next: Vec::new(),
            linked: Vec::new(),
            head: NIL,
            tail: NIL,
            hand: NIL,
            len: 0,
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn contains(&self, pid: usize) -> bool {
        pid < self.linked.len() && self.linked[pid]
    }

    /// Appends `pid` at the tail (newest clock position), growing the
    /// link arrays to cover the id.
    fn push_back(&mut self, pid: usize) {
        if pid >= self.linked.len() {
            self.prev.resize(pid + 1, NIL);
            self.next.resize(pid + 1, NIL);
            self.linked.resize(pid + 1, false);
        }
        debug_assert!(!self.linked[pid], "page already on the clock");
        self.prev[pid] = self.tail;
        self.next[pid] = NIL;
        if self.tail != NIL {
            self.next[self.tail] = pid;
        } else {
            self.head = pid;
        }
        self.tail = pid;
        self.linked[pid] = true;
        self.len += 1;
    }

    /// Unlinks `pid` in O(1). A hand resting on the removed page moves
    /// to its successor (`NIL` wraps to the head on the next
    /// [`ClockList::hand_page`]) — the same cursor behaviour as
    /// `Vec::remove` at / before / after the hand index.
    fn unlink(&mut self, pid: usize) {
        debug_assert!(self.contains(pid), "page not on the clock");
        if self.hand == pid {
            self.hand = self.next[pid];
        }
        let (p, n) = (self.prev[pid], self.next[pid]);
        if p != NIL {
            self.next[p] = n;
        } else {
            self.head = n;
        }
        if n != NIL {
            self.prev[n] = p;
        } else {
            self.tail = p;
        }
        self.prev[pid] = NIL;
        self.next[pid] = NIL;
        self.linked[pid] = false;
        self.len -= 1;
    }

    /// The page under the hand, wrapping to the head; `NIL` only when
    /// the ring is empty.
    fn hand_page(&mut self) -> usize {
        if self.hand == NIL {
            self.hand = self.head;
        }
        self.hand
    }

    /// Second-chance step: move the hand to the successor.
    fn advance_hand(&mut self) {
        if self.hand != NIL {
            self.hand = self.next[self.hand];
        }
    }

    /// Rewinds the hand to the head (next sweep starts at the oldest
    /// survivor).
    fn reset_hand(&mut self) {
        self.hand = NIL;
    }

    /// Page ids in clock order, head to tail.
    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        std::iter::successors((self.head != NIL).then_some(self.head), move |&p| {
            let n = self.next[p];
            (n != NIL).then_some(n)
        })
    }
}

impl PagedKvStore {
    /// Creates a store serving `model`'s KV stream (row width
    /// [`ModelSpec::kv_dim`]) through `codec`.
    ///
    /// # Panics
    ///
    /// Panics if `page_tokens` or `hot_capacity_pages` is zero, or if
    /// the model's `kv_dim` is not a multiple of the codec's group size
    /// (pages must slice into whole codec groups).
    pub fn new(model: &ModelSpec, codec: KvCodec, cfg: ServeConfig) -> PagedKvStore {
        assert!(cfg.page_tokens > 0, "page_tokens must be positive");
        assert!(cfg.hot_capacity_pages > 0, "hot capacity must be positive");
        let (_, kv_dim) = model.kv_request_shape(cfg.page_tokens);
        assert_eq!(
            kv_dim % GROUP_SIZE,
            0,
            "kv_dim {kv_dim} must be group-aligned"
        );
        PagedKvStore {
            codec,
            kv_dim,
            cfg,
            pages: Vec::new(),
            free_pages: Vec::new(),
            sessions: HashMap::new(),
            next_session: 0,
            clock: ClockList::new(),
            metrics: ServeMetrics::default(),
        }
    }

    /// KV row width (values per token).
    pub fn kv_dim(&self) -> usize {
        self.kv_dim
    }

    /// The store's configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// The codec cold pages are stored under.
    pub fn codec(&self) -> &KvCodec {
        &self.codec
    }

    /// Operation counters and latency samples so far.
    pub fn metrics(&self) -> &ServeMetrics {
        &self.metrics
    }

    /// Resets counters and latency samples (e.g. after warmup).
    pub fn reset_metrics(&mut self) {
        self.metrics = ServeMetrics::default();
    }

    /// Opens a session with an empty page table.
    pub fn open_session(&mut self) -> SessionId {
        let id = self.next_session;
        self.next_session += 1;
        self.sessions.insert(
            id,
            Session {
                pages: Vec::new(),
                tokens: 0,
            },
        );
        SessionId(id)
    }

    /// Closes a session and frees its pages for reuse.
    pub fn close_session(&mut self, sid: SessionId) -> Result<(), ServeError> {
        let session = self
            .sessions
            .remove(&sid.0)
            .ok_or(ServeError::UnknownSession(sid))?;
        for pid in session.pages {
            if matches!(self.pages[pid].residency, Residency::Hot { .. })
                && self.clock.contains(pid)
            {
                self.clock.unlink(pid);
            }
            self.pages[pid].residency = Residency::Vacant;
            self.pages[pid].tokens = 0;
            self.free_pages.push(pid);
        }
        Ok(())
    }

    /// Live (open) sessions.
    pub fn live_sessions(&self) -> usize {
        self.sessions.len()
    }

    /// Total tokens a session has appended.
    pub fn session_tokens(&self, sid: SessionId) -> Result<usize, ServeError> {
        Ok(self.session(sid)?.tokens)
    }

    /// The tier a page currently resides in.
    pub fn page_tier(&self, sid: SessionId, page: usize) -> Result<PageTier, ServeError> {
        let pid = self.page_id(sid, page)?;
        Ok(match self.pages[pid].residency {
            Residency::Hot { .. } => PageTier::Hot,
            Residency::Cold(_) => PageTier::Cold,
            Residency::Vacant => unreachable!("live pages are never vacant"),
        })
    }

    /// Hot pages currently resident.
    pub fn hot_pages(&self) -> usize {
        self.clock.len()
    }

    /// Cold pages currently resident.
    pub fn cold_pages(&self) -> usize {
        self.pages
            .iter()
            .filter(|p| matches!(p.residency, Residency::Cold(_)))
            .count()
    }

    /// Resident bytes by tier (see [`ResidentBytes`] for the units).
    pub fn resident_bytes(&self) -> ResidentBytes {
        let mut rb = ResidentBytes::default();
        for p in &self.pages {
            match &p.residency {
                Residency::Hot { values, cold, .. } => {
                    rb.hot += values.len() * 2;
                    if let Some(ct) = cold {
                        rb.cold += ct.compressed_bytes();
                    }
                }
                Residency::Cold(ct) => rb.cold += ct.compressed_bytes(),
                Residency::Vacant => {}
            }
        }
        rb
    }

    /// Bytes an uncompressed FP16 store would need for the same live
    /// token streams — the baseline of the sessions-per-GB comparison.
    pub fn fp16_bytes(&self) -> usize {
        self.sessions
            .values()
            .map(|s| s.tokens * self.kv_dim * 2)
            .sum()
    }

    /// Appends whole token rows (`rows.len()` must be a multiple of
    /// `kv_dim`) to a session's KV stream, filling its ragged tail page
    /// and allocating hot pages as needed, then evicts beyond the hot
    /// capacity (dirty evictees are recompressed in one batched pool
    /// pass). Appending to a session whose tail page went cold promotes
    /// it first (decompress → append → dirty, recompressed on its next
    /// eviction).
    ///
    /// # Errors
    ///
    /// [`ServeError::MisalignedAppend`] on a partial row,
    /// [`ServeError::UnknownSession`] on a closed session, and
    /// [`ServeError::CorruptPage`] if promoting a corrupt cold tail
    /// fails (the append is not applied).
    pub fn append(&mut self, sid: SessionId, rows: &[f32]) -> Result<(), ServeError> {
        if !rows.len().is_multiple_of(self.kv_dim) {
            return Err(ServeError::MisalignedAppend {
                len: rows.len(),
                kv_dim: self.kv_dim,
            });
        }
        self.session(sid)?;
        let mut offset = 0;
        while offset < rows.len() {
            let pid = self.writable_tail(sid)?;
            let slot = &mut self.pages[pid];
            let room = self.cfg.page_tokens - slot.tokens;
            let take = room.min((rows.len() - offset) / self.kv_dim);
            let span = take * self.kv_dim;
            match &mut slot.residency {
                Residency::Hot {
                    values,
                    cold,
                    dirty,
                } => {
                    values.extend_from_slice(&rows[offset..offset + span]);
                    *cold = None; // stale compressed twin
                    *dirty = true;
                }
                _ => unreachable!("writable_tail returns a hot page"),
            }
            slot.tokens += take;
            slot.referenced = true;
            offset += span;
        }
        let added = rows.len() / self.kv_dim;
        self.sessions.get_mut(&sid.0).expect("checked above").tokens += added;
        self.evict_to_capacity();
        Ok(())
    }

    /// Reads one page, appending its rows to `out`. Hot pages memcpy;
    /// cold pages decode through the batched report path and are
    /// admitted per [`ServeConfig::admission`]. Under
    /// [`RecoveryPolicy::SalvageBlocks`] a corrupt cold page still
    /// reads (corrupt groups zero-filled) and carries its located
    /// report in [`PageRead::corruption`]; the page stays cold and the
    /// store stays fully usable.
    ///
    /// # Errors
    ///
    /// [`ServeError::CorruptPage`] under [`RecoveryPolicy::FailTensor`]
    /// (nothing is appended to `out`), plus the usual session/page
    /// range errors.
    pub fn read_page_into(
        &mut self,
        sid: SessionId,
        page: usize,
        out: &mut Vec<f32>,
    ) -> Result<PageRead, ServeError> {
        let t0 = Instant::now();
        let pid = self.page_id(sid, page)?;
        if let Residency::Hot { values, .. } = &self.pages[pid].residency {
            out.extend_from_slice(values);
            self.pages[pid].referenced = true;
            self.metrics.hot_hits += 1;
            self.metrics.hot_lat_us.push(micros(t0.elapsed()));
            return Ok(PageRead {
                tier: PageTier::Hot,
                corruption: None,
            });
        }

        // Cold: one-page batched decode under the configured policy.
        let outcome = {
            let Residency::Cold(ct) = &self.pages[pid].residency else {
                unreachable!("hot handled above; live pages are never vacant");
            };
            self.codec
                .decompress_batch_report(&[ct], self.cfg.recovery)
                .pop()
                .expect("one outcome per tensor")
        };
        self.metrics.cold_reads += 1;
        let read = match outcome {
            BatchOutcome::Ok(values) => {
                out.extend_from_slice(&values);
                if self.cfg.admission == Admission::PromoteOnRead {
                    self.promote(pid, values);
                    self.evict_to_capacity();
                }
                PageRead {
                    tier: PageTier::Cold,
                    corruption: None,
                }
            }
            BatchOutcome::Salvaged { values, bad_blocks } => {
                self.metrics.corrupt_reads += 1;
                out.extend_from_slice(&values);
                // The page stays cold: a salvaged image is not admitted
                // over the (still recoverable-by-repair) original.
                PageRead {
                    tier: PageTier::Cold,
                    corruption: Some(self.locate(sid, page, bad_blocks)),
                }
            }
            BatchOutcome::Failed(e) => {
                self.metrics.corrupt_reads += 1;
                return Err(ServeError::CorruptPage(self.locate(sid, page, vec![e])));
            }
        };
        self.metrics.cold_lat_us.push(micros(t0.elapsed()));
        Ok(read)
    }

    /// Convenience wrapper over [`PagedKvStore::read_page_into`]
    /// returning the rows by value.
    pub fn read_page(&mut self, sid: SessionId, page: usize) -> Result<Vec<f32>, ServeError> {
        let mut out = Vec::new();
        self.read_page_into(sid, page, &mut out)?;
        Ok(out)
    }

    /// Reads a session's whole KV stream in page order, appending to
    /// `out`. All cold pages decode in **one** batched pool submission
    /// ([`KvCodec::decompress_batch_report`]) — the serving analogue of
    /// the paper's many-blocks-in-flight decoder regime — and are
    /// admitted per [`ServeConfig::admission`]. Each page read adds one
    /// latency sample in the tier it was served from: a hot page's is
    /// its own copy, and the rest of the call (batched decode, cold
    /// copies, promotion, eviction re-encode) is split evenly over the
    /// cold pages, so a read with no cold page adds no cold sample.
    ///
    /// Under [`RecoveryPolicy::SalvageBlocks`] corrupt pages read
    /// zero-filled and are listed in [`SessionRead::corruptions`];
    /// under [`RecoveryPolicy::FailTensor`] the first corrupt page
    /// fails the read (nothing is appended).
    pub fn read_session_into(
        &mut self,
        sid: SessionId,
        out: &mut Vec<f32>,
    ) -> Result<SessionRead, ServeError> {
        let t0 = Instant::now();
        let page_ids = self.session(sid)?.pages.clone();
        // Gather cold pages for one batched decode.
        let cold: Vec<usize> = page_ids
            .iter()
            .copied()
            .filter(|&pid| matches!(self.pages[pid].residency, Residency::Cold(_)))
            .collect();
        let cts: Vec<&CompressedTensor> = cold
            .iter()
            .map(|&pid| match &self.pages[pid].residency {
                Residency::Cold(ct) => ct,
                _ => unreachable!("filtered to cold"),
            })
            .collect();
        let outcomes = if cts.is_empty() {
            Vec::new()
        } else {
            self.codec.decompress_batch_report(&cts, self.cfg.recovery)
        };

        // Fail-fast policy: surface the first corrupt page before any
        // output or store mutation.
        let mut report = SessionRead {
            pages: page_ids.len(),
            cold_pages: cold.len(),
            corruptions: Vec::new(),
        };
        for (&pid, outcome) in cold.iter().zip(&outcomes) {
            if let BatchOutcome::Failed(e) = outcome {
                self.metrics.corrupt_reads += 1;
                let page = self.pages[pid].seq;
                return Err(ServeError::CorruptPage(self.locate(sid, page, vec![*e])));
            }
        }

        // Assemble output in page order, counting each page's tier as it
        // is served; decoded values (flagged clean or salvaged) are
        // reused for promotion. `cold` and so `decoded` are in page order.
        let mut decoded: Vec<(usize, Vec<f32>, bool)> = Vec::with_capacity(cold.len());
        for (&pid, outcome) in cold.iter().zip(outcomes) {
            match outcome {
                BatchOutcome::Ok(values) => decoded.push((pid, values, true)),
                BatchOutcome::Salvaged { values, bad_blocks } => {
                    self.metrics.corrupt_reads += 1;
                    let page = self.pages[pid].seq;
                    report.corruptions.push(self.locate(sid, page, bad_blocks));
                    decoded.push((pid, values, false));
                }
                BatchOutcome::Failed(_) => unreachable!("screened above"),
            }
        }
        // A hot copy is timed from the end of the hot copy before it, so
        // the clock is read once per hot page and once per run of them.
        let mut cold_values = decoded.iter().map(|(_, values, _)| values);
        let mut hot_time = Duration::ZERO;
        let mut mark: Option<Instant> = None;
        for &pid in &page_ids {
            match &self.pages[pid].residency {
                Residency::Hot { values, .. } => {
                    let start = mark.unwrap_or_else(Instant::now);
                    out.extend_from_slice(values);
                    let end = Instant::now();
                    hot_time += end - start;
                    self.metrics.hot_lat_us.push(micros(end - start));
                    mark = Some(end);
                    self.pages[pid].referenced = true;
                }
                Residency::Cold(_) => {
                    out.extend_from_slice(cold_values.next().expect("one per cold page"));
                    mark = None;
                }
                Residency::Vacant => unreachable!("live pages are never vacant"),
            }
        }
        let (hot_served, cold_served) = (page_ids.len() - cold.len(), cold.len());
        self.metrics.hot_hits += hot_served as u64;
        self.metrics.cold_reads += cold_served as u64;

        // Admission after output assembly, so a session bigger than the
        // hot tier still reads correctly (later promotions may evict
        // earlier ones). Pages are promoted in page order, so the clock
        // ring, and with it every later eviction, depends only on the
        // call sequence. Salvaged pages stay cold.
        if self.cfg.admission == Admission::PromoteOnRead {
            for (pid, values, clean) in decoded {
                if clean {
                    self.promote(pid, values);
                }
            }
            self.evict_to_capacity();
        }

        if cold_served > 0 {
            let us = micros(t0.elapsed().saturating_sub(hot_time)) / cold_served as f64;
            self.metrics
                .cold_lat_us
                .extend(std::iter::repeat_n(us, cold_served));
        }
        Ok(report)
    }

    /// Borrow a cold page's compressed image (`None` for hot pages) —
    /// the introspection half of the failure-injection surface.
    pub fn cold_page(
        &self,
        sid: SessionId,
        page: usize,
    ) -> Result<Option<&CompressedTensor>, ServeError> {
        let pid = self.page_id(sid, page)?;
        Ok(match &self.pages[pid].residency {
            Residency::Cold(ct) => Some(ct),
            _ => None,
        })
    }

    /// Replace a cold page's compressed image — the mutation half of
    /// the failure-injection surface (tests model cold-storage bit rot
    /// with [`CompressedTensor::with_blocks`]). The replacement is
    /// treated as untrusted: it is only ever decoded through the
    /// report-returning path. If the page is currently hot, its hot
    /// copy is dropped and the page goes cold with the new image.
    ///
    /// # Errors
    ///
    /// The usual session/page range errors.
    pub fn replace_cold_page(
        &mut self,
        sid: SessionId,
        page: usize,
        ct: CompressedTensor,
    ) -> Result<(), ServeError> {
        let pid = self.page_id(sid, page)?;
        if matches!(self.pages[pid].residency, Residency::Hot { .. }) && self.clock.contains(pid) {
            self.clock.unlink(pid);
        }
        self.pages[pid].residency = Residency::Cold(ct);
        Ok(())
    }

    /// Compresses **every** full hot page out of the hot tier in one
    /// batched pool pass (ragged tails stay hot) — the "device under
    /// memory pressure" entry point the bench sweeps use to force the
    /// cold-tier regime regardless of capacity.
    pub fn flush_full_pages(&mut self) {
        let victims: Vec<usize> = self
            .clock
            .iter()
            .filter(|&pid| self.pages[pid].tokens == self.cfg.page_tokens)
            .collect();
        for &pid in &victims {
            self.clock.unlink(pid);
        }
        self.clock.reset_hand();
        self.evict_pages(victims);
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn session(&self, sid: SessionId) -> Result<&Session, ServeError> {
        self.sessions
            .get(&sid.0)
            .ok_or(ServeError::UnknownSession(sid))
    }

    fn page_id(&self, sid: SessionId, page: usize) -> Result<usize, ServeError> {
        let s = self.session(sid)?;
        s.pages
            .get(page)
            .copied()
            .ok_or(ServeError::PageOutOfRange {
                session: sid,
                page,
                pages: s.pages.len(),
            })
    }

    fn locate(
        &self,
        session: SessionId,
        page: usize,
        mut bad_blocks: Vec<DecodeError>,
    ) -> PageCorruption {
        // Remap the batch-slot tensor index onto the page index: the
        // batch layout is a store internal, the page table is the API.
        for e in &mut bad_blocks {
            e.tensor = Some(page);
        }
        PageCorruption {
            session,
            page,
            bad_blocks,
        }
    }

    /// The session's tail page, hot and with room; allocates or
    /// promotes as needed.
    fn writable_tail(&mut self, sid: SessionId) -> Result<usize, ServeError> {
        let tail = {
            let s = self.session(sid)?;
            s.pages.last().copied()
        };
        if let Some(pid) = tail {
            if self.pages[pid].tokens < self.cfg.page_tokens {
                if matches!(self.pages[pid].residency, Residency::Cold(_)) {
                    // Evicted ragged tail: decompress, append, and let
                    // the next eviction recompress it (dirty path).
                    let seq = self.pages[pid].seq;
                    let outcome = {
                        let Residency::Cold(ct) = &self.pages[pid].residency else {
                            unreachable!("checked cold");
                        };
                        self.codec
                            .decompress_batch_report(&[ct], self.cfg.recovery)
                            .pop()
                            .expect("one outcome per tensor")
                    };
                    match outcome {
                        BatchOutcome::Ok(values) => self.promote(pid, values),
                        BatchOutcome::Salvaged { bad_blocks, .. } => {
                            self.metrics.corrupt_reads += 1;
                            return Err(ServeError::CorruptPage(self.locate(sid, seq, bad_blocks)));
                        }
                        BatchOutcome::Failed(e) => {
                            self.metrics.corrupt_reads += 1;
                            return Err(ServeError::CorruptPage(self.locate(sid, seq, vec![e])));
                        }
                    }
                }
                return Ok(pid);
            }
        }
        // Allocate a fresh hot page.
        let seq = self.session(sid)?.pages.len();
        let pid = match self.free_pages.pop() {
            Some(pid) => pid,
            None => {
                self.pages.push(PageSlot {
                    owner: sid.0,
                    seq,
                    tokens: 0,
                    referenced: true,
                    residency: Residency::Vacant,
                });
                self.pages.len() - 1
            }
        };
        let slot = &mut self.pages[pid];
        slot.owner = sid.0;
        slot.seq = seq;
        slot.tokens = 0;
        slot.referenced = true;
        slot.residency = Residency::Hot {
            values: Vec::with_capacity(self.cfg.page_tokens * self.kv_dim),
            cold: None,
            dirty: true,
        };
        self.clock.push_back(pid);
        self.sessions
            .get_mut(&sid.0)
            .expect("session checked")
            .pages
            .push(pid);
        Ok(pid)
    }

    /// Installs decoded values as the hot copy, retaining the cold
    /// image as the clean twin. The page joins the clock's tail on
    /// probation, with its reference bit clear: the next sweep to reach
    /// it takes it unless a read or append touches it while it is hot.
    /// A read that promotes a page is the one use it is known to have;
    /// admitting it referenced would let a cyclic working set larger
    /// than the hot tier (a decode step reading its whole session)
    /// evict every page before its next use.
    fn promote(&mut self, pid: usize, values: Vec<f32>) {
        let old = std::mem::replace(&mut self.pages[pid].residency, Residency::Vacant);
        let Residency::Cold(ct) = old else {
            unreachable!("promote targets cold pages");
        };
        self.pages[pid].residency = Residency::Hot {
            values,
            cold: Some(ct),
            dirty: false,
        };
        self.pages[pid].referenced = false;
        self.clock.push_back(pid);
    }

    /// Clock sweep: picks victims beyond capacity (second chance via
    /// the reference bit), then evicts them — clean drops for pages
    /// whose compressed twin is attached, one batched recompression
    /// pass for the rest.
    fn evict_to_capacity(&mut self) {
        let excess = self.clock.len().saturating_sub(self.cfg.hot_capacity_pages);
        if excess == 0 {
            return;
        }
        let mut victims = Vec::with_capacity(excess);
        for _ in 0..excess {
            loop {
                let pid = self.clock.hand_page();
                if self.pages[pid].referenced {
                    self.pages[pid].referenced = false;
                    self.clock.advance_hand();
                } else {
                    // Unlinking at the hand advances it to the successor,
                    // exactly like `Vec::remove` at the hand index.
                    self.clock.unlink(pid);
                    victims.push(pid);
                    break;
                }
            }
        }
        self.evict_pages(victims);
    }

    fn evict_pages(&mut self, victims: Vec<usize>) {
        self.metrics.evictions += victims.len() as u64;
        let mut recompress: Vec<(usize, Tensor)> = Vec::new();
        for pid in victims {
            let old = std::mem::replace(&mut self.pages[pid].residency, Residency::Vacant);
            match old {
                Residency::Hot {
                    cold: Some(ct),
                    dirty: false,
                    ..
                } => {
                    // Clean page: the compressed twin is still exact.
                    self.metrics.clean_drops += 1;
                    self.pages[pid].residency = Residency::Cold(ct);
                }
                Residency::Hot { values, .. } => {
                    let tokens = self.pages[pid].tokens;
                    recompress.push((pid, Tensor::from_vec(tokens, self.kv_dim, values)));
                }
                other => {
                    // Never happens: victims come off the clock, which
                    // only holds hot pages. Restore defensively.
                    self.pages[pid].residency = other;
                }
            }
        }
        if recompress.is_empty() {
            return;
        }
        self.metrics.recompressions += recompress.len() as u64;
        let tensors: Vec<&Tensor> = recompress.iter().map(|(_, t)| t).collect();
        let compressed = self.codec.compress_batch(&tensors);
        for ((pid, _), (ct, _stats)) in recompress.iter().zip(compressed) {
            self.pages[*pid].residency = Residency::Cold(ct);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecco_bits::Block64;
    use ecco_core::EccoConfig;
    use ecco_tensor::{synth::SynthSpec, TensorKind};

    fn model() -> ModelSpec {
        ModelSpec::llama31_8b() // kv_dim 1024 = 8 codec groups per row
    }

    fn codec(rows: usize) -> KvCodec {
        let m = model();
        let (r, c) = m.kv_request_shape(rows);
        let calib = SynthSpec::for_kind(TensorKind::KCache, r, c)
            .seeded(99)
            .generate();
        let cfg = EccoConfig {
            max_calibration_groups: 256,
            ..EccoConfig::default()
        };
        KvCodec::calibrate(&[&calib], &cfg)
    }

    fn kv_rows(tokens: usize, seed: u64) -> Vec<f32> {
        let m = model();
        SynthSpec::for_kind(TensorKind::KCache, tokens, m.kv_dim())
            .seeded(seed)
            .generate()
            .data()
            .to_vec()
    }

    fn store(hot_capacity: usize) -> PagedKvStore {
        PagedKvStore::new(
            &model(),
            codec(64),
            ServeConfig {
                page_tokens: 8,
                hot_capacity_pages: hot_capacity,
                ..ServeConfig::default()
            },
        )
    }

    #[test]
    fn append_read_roundtrip_all_hot() {
        let mut st = store(1024);
        let sid = st.open_session();
        let rows = kv_rows(20, 1);
        st.append(sid, &rows).unwrap();
        assert_eq!(st.session_tokens(sid).unwrap(), 20);
        // 8+8+4 tokens: three pages in the session's page table.
        assert!(matches!(
            st.page_tier(sid, 3),
            Err(ServeError::PageOutOfRange { pages: 3, .. })
        ));
        let mut out = Vec::new();
        let r = st.read_session_into(sid, &mut out).unwrap();
        assert_eq!(r.cold_pages, 0);
        assert_eq!(out, rows, "hot tier is lossless");
    }

    #[test]
    fn eviction_compresses_and_read_promotes() {
        let mut st = store(2);
        let sid = st.open_session();
        let rows = kv_rows(40, 2); // 5 pages, capacity 2 → 3 cold
        st.append(sid, &rows).unwrap();
        assert!(st.hot_pages() <= 2);
        assert!(st.cold_pages() >= 3);
        assert!(st.metrics().evictions >= 3);

        // Cold pages decode to the codec's lossy-but-deterministic
        // reconstruction; hot pages are exact. Read everything.
        let lat = |st: &PagedKvStore| {
            let m = st.metrics();
            (m.hot_lat_us.len(), m.cold_lat_us.len())
        };
        let (hot0, cold0) = lat(&st);
        let mut out = Vec::new();
        let t0 = Instant::now();
        let r = st.read_session_into(sid, &mut out).unwrap();
        let wall_us = micros(t0.elapsed());
        assert_eq!(out.len(), rows.len());
        assert!(r.cold_pages >= 3);
        assert!(r.corruptions.is_empty());
        // One latency sample per page, in the tier it was served from,
        // and together they take no more than the call did.
        let (hot1, cold1) = lat(&st);
        assert_eq!(cold1 - cold0, r.cold_pages);
        assert_eq!((hot1 - hot0) + (cold1 - cold0), r.pages);
        let m = st.metrics();
        let added: f64 = m.hot_lat_us[hot0..]
            .iter()
            .chain(&m.cold_lat_us[cold0..])
            .sum();
        assert!(
            added <= wall_us,
            "samples {added} us over a {wall_us} us call"
        );

        // A re-read serves the same stream length and the hot tier
        // stays capped (promotion evicted back down).
        let mut again = Vec::new();
        st.read_session_into(sid, &mut again).unwrap();
        assert_eq!(again.len(), rows.len());
        assert!(st.hot_pages() <= 2);
    }

    /// Two stores fed the same calls keep the same pages hot: session
    /// reads promote their cold pages in page order, so the clock ring
    /// and every later victim are functions of the call sequence.
    #[test]
    fn tiers_are_a_function_of_the_call_sequence() {
        let codec = codec(64);
        let cfg = ServeConfig {
            page_tokens: 16,
            hot_capacity_pages: 6,
            ..ServeConfig::default()
        };
        let mut stores = [0, 1].map(|_| PagedKvStore::new(&model(), codec.clone(), cfg));
        let mut sids = Vec::new();
        for seed in [11, 12] {
            let rows = kv_rows(160, seed); // 10 pages per session
            let per_store = stores.each_mut().map(|st| {
                let sid = st.open_session();
                st.append(sid, &rows).unwrap();
                sid
            });
            assert_eq!(per_store[0], per_store[1]);
            sids.push(per_store[0]);
        }
        let tiers = |st: &PagedKvStore| -> Vec<PageTier> {
            sids.iter()
                .flat_map(|&sid| (0..10).map(move |page| st.page_tier(sid, page).unwrap()))
                .collect()
        };
        for read in 0..20 {
            let sid = sids[read % 2];
            for st in &mut stores {
                st.read_session_into(sid, &mut Vec::new()).unwrap();
            }
            assert_eq!(tiers(&stores[0]), tiers(&stores[1]), "after read {read}");
        }
    }

    /// Six sessions of five eight-token pages, each tail `short` rows
    /// short of full, beside a 16-page hot tier: a working set of
    /// about twice the tier.
    fn six_sessions(short: usize) -> (PagedKvStore, Vec<SessionId>) {
        let mut st = store(16);
        let sids = (0..6)
            .map(|i| {
                let sid = st.open_session();
                st.append(sid, &kv_rows(40 - short, 30 + i)).unwrap();
                sid
            })
            .collect();
        (st, sids)
    }

    /// Share of the page reads since the last metrics reset that the
    /// hot tier served.
    fn hot_hit_ratio(st: &PagedKvStore) -> f64 {
        let m = st.metrics();
        m.hot_hits as f64 / (m.hot_hits + m.cold_reads).max(1) as f64
    }

    /// A decode step appends one row to a session and reads it whole,
    /// so the sessions cycle through a tier that holds about half of
    /// them. Pages that reads promote join the clock on probation, so
    /// part of the cycle stays hot. Admitted with the reference bit set,
    /// each session's pages evict the next's (a ratio of 0.17 here).
    #[test]
    fn decode_steps_keep_a_stable_hot_set() {
        let (mut st, sids) = six_sessions(4);
        let step = |st: &mut PagedKvStore| {
            for &sid in &sids {
                st.append(sid, &kv_rows(1, 50)).unwrap();
                st.read_session_into(sid, &mut Vec::new()).unwrap();
            }
        };
        for _warmup in 0..2 {
            step(&mut st);
        }
        st.reset_metrics();
        for _round in 0..10 {
            step(&mut st);
        }
        let ratio = hot_hit_ratio(&st);
        assert!(ratio >= 0.3, "hot-hit ratio {ratio:.2} under decode steps");
    }

    /// The same cycle with full pages and reads only: nothing but the
    /// reads moves the clock. Admitted with the reference bit set, the
    /// promoted pages leave every read to find its session cold.
    #[test]
    fn session_read_cycles_keep_a_stable_hot_set() {
        let (mut st, sids) = six_sessions(0);
        let round = |st: &mut PagedKvStore| {
            for &sid in &sids {
                st.read_session_into(sid, &mut Vec::new()).unwrap();
            }
        };
        for _warmup in 0..2 {
            round(&mut st);
        }
        st.reset_metrics();
        for _round in 0..5 {
            round(&mut st);
        }
        let ratio = hot_hit_ratio(&st);
        assert!(ratio >= 0.25, "hot-hit ratio {ratio:.2} under read cycles");
    }

    /// Probation must still admit: a session read again and again turns
    /// hot even when the tier is full of another session's referenced
    /// pages. Its first read promotes pages the same sweep takes back,
    /// clearing the other session's bits on the way; its second evicts
    /// those.
    #[test]
    fn a_re_read_session_turns_hot_by_its_third_read() {
        let mut st = store(4);
        let a = st.open_session();
        st.append(a, &kv_rows(32, 40)).unwrap();
        let b = st.open_session();
        st.append(b, &kv_rows(32, 41)).unwrap();
        assert_eq!(st.cold_pages(), 4, "B's pages send A cold");
        st.read_session_into(b, &mut Vec::new()).unwrap();
        let cold: Vec<usize> = (0..4)
            .map(|_| st.read_session_into(a, &mut Vec::new()).unwrap().cold_pages)
            .collect();
        assert_eq!(cold[2..], [0, 0], "cold pages per read of A: {cold:?}");
    }

    #[test]
    fn hot_cold_hot_matches_straight_codec() {
        let mut st = store(1);
        let sid = st.open_session();
        let page_rows = kv_rows(8, 3); // exactly one full page
        st.append(sid, &page_rows).unwrap();
        st.append(sid, &kv_rows(8, 4)).unwrap(); // forces page 0 cold
        assert_eq!(st.page_tier(sid, 0).unwrap(), PageTier::Cold);

        // The cold image must be bit-identical to a straight compress
        // of the page tensor…
        let t = Tensor::from_vec(8, st.kv_dim(), page_rows.clone());
        let (want_ct, _) = st.codec().compress(&t);
        let got_ct = st.cold_page(sid, 0).unwrap().expect("cold");
        assert_eq!(got_ct.blocks(), want_ct.blocks());

        // …and the promoted read bit-identical to a straight decompress.
        let want = st.codec().decompress(&want_ct);
        let got = st.read_page(sid, 0).unwrap();
        assert_eq!(got, want.data());
        assert_eq!(st.page_tier(sid, 0).unwrap(), PageTier::Hot);
    }

    #[test]
    fn clean_eviction_is_a_drop_not_a_recompress() {
        let mut st = store(1);
        let sid = st.open_session();
        st.append(sid, &kv_rows(8, 5)).unwrap();
        st.append(sid, &kv_rows(8, 6)).unwrap(); // page 0 → cold (recompress)
        let _ = st.read_page(sid, 0).unwrap(); // promote 0 (twin kept), evict 1 dirty
        let before = st.metrics().recompressions;
        let _ = st.read_page(sid, 1).unwrap(); // promote 1, evict 0 → clean drop
        assert_eq!(
            st.metrics().recompressions,
            before,
            "clean eviction must not re-encode"
        );
        assert!(st.metrics().clean_drops >= 1);
    }

    #[test]
    fn dirty_tail_recompression_roundtrips() {
        let mut st = store(1);
        let sid = st.open_session();
        st.append(sid, &kv_rows(4, 7)).unwrap(); // ragged tail, hot
        st.append(sid, &kv_rows(8, 8)).unwrap(); // new page evicts tail (4 tokens, cold)
        let mut all: Vec<f32> = Vec::new();
        st.read_session_into(sid, &mut all).unwrap();
        assert_eq!(all.len(), 12 * st.kv_dim());

        // Appending to the session promotes its cold ragged tail? No —
        // the tail is the *last* page; here the last page is hot. Force
        // the cold-tail path: session with only a ragged page, evicted.
        let sid2 = st.open_session();
        st.append(sid2, &kv_rows(4, 9)).unwrap();
        // Evict it by touching other sessions' pages until it cycles out.
        st.append(sid, &kv_rows(8, 10)).unwrap();
        if st.page_tier(sid2, 0).unwrap() == PageTier::Cold {
            st.append(sid2, &kv_rows(2, 11)).unwrap(); // promote+append
            assert_eq!(st.session_tokens(sid2).unwrap(), 6);
            let mut out = Vec::new();
            st.read_session_into(sid2, &mut out).unwrap();
            assert_eq!(out.len(), 6 * st.kv_dim());
        }
    }

    #[test]
    fn stream_cold_admission_leaves_pages_cold() {
        let mut st = PagedKvStore::new(
            &model(),
            codec(64),
            ServeConfig {
                page_tokens: 8,
                hot_capacity_pages: 2,
                admission: Admission::StreamCold,
                ..ServeConfig::default()
            },
        );
        let sid = st.open_session();
        st.append(sid, &kv_rows(40, 12)).unwrap();
        let cold_before = st.cold_pages();
        assert!(cold_before >= 3);
        let mut out = Vec::new();
        st.read_session_into(sid, &mut out).unwrap();
        assert_eq!(
            st.cold_pages(),
            cold_before,
            "StreamCold must not admit read pages"
        );
        // With no residency mutation, consecutive reads are identical.
        let mut again = Vec::new();
        st.read_session_into(sid, &mut again).unwrap();
        assert_eq!(out, again, "StreamCold reads are deterministic");
    }

    #[test]
    fn salvage_surfaces_located_error_without_poisoning() {
        let mut st = store(1);
        let sid = st.open_session();
        st.append(sid, &kv_rows(8, 13)).unwrap();
        st.append(sid, &kv_rows(8, 14)).unwrap(); // page 0 cold
        let ct = st.cold_page(sid, 0).unwrap().unwrap();
        let mut blocks = ct.blocks().to_vec();
        blocks[5] = Block64::from_bytes([0xFF; 64]);
        let rotted = ct.with_blocks(blocks);
        st.replace_cold_page(sid, 0, rotted).unwrap();

        let mut out = Vec::new();
        let read = st.read_page_into(sid, 0, &mut out).unwrap();
        let c = read.corruption.expect("salvaged corruption reported");
        assert_eq!((c.session, c.page), (sid, 0));
        assert_eq!(c.bad_blocks.len(), 1);
        assert_eq!(c.bad_blocks[0].block, Some(5), "block-located");
        assert_eq!(c.bad_blocks[0].tensor, Some(0), "page-located");
        let gs = GROUP_SIZE;
        assert!(out[5 * gs..6 * gs].iter().all(|&v| v == 0.0));

        // The store is not poisoned: the healthy page still reads, and
        // the corrupt page stays cold (not admitted).
        assert_eq!(st.page_tier(sid, 0).unwrap(), PageTier::Cold);
        let mut out1 = Vec::new();
        st.read_page_into(sid, 1, &mut out1).unwrap();
        assert_eq!(out1.len(), 8 * st.kv_dim());
        assert_eq!(st.metrics().corrupt_reads, 1);
    }

    #[test]
    fn fail_tensor_policy_errors_without_output() {
        let mut st = PagedKvStore::new(
            &model(),
            codec(64),
            ServeConfig {
                page_tokens: 8,
                hot_capacity_pages: 1,
                recovery: RecoveryPolicy::FailTensor,
                ..ServeConfig::default()
            },
        );
        let sid = st.open_session();
        st.append(sid, &kv_rows(8, 15)).unwrap();
        st.append(sid, &kv_rows(8, 16)).unwrap();
        let ct = st.cold_page(sid, 0).unwrap().unwrap();
        let mut blocks = ct.blocks().to_vec();
        blocks[0] = Block64::from_bytes([0xFF; 64]);
        let rotted = ct.with_blocks(blocks);
        st.replace_cold_page(sid, 0, rotted).unwrap();

        let mut out = Vec::new();
        match st.read_page_into(sid, 0, &mut out) {
            Err(ServeError::CorruptPage(c)) => {
                assert_eq!((c.session, c.page), (sid, 0));
                assert_eq!(c.bad_blocks.len(), 1);
            }
            other => panic!("expected CorruptPage, got {other:?}"),
        }
        assert!(out.is_empty(), "failed reads must not emit values");
    }

    #[test]
    fn close_session_frees_and_recycles_pages() {
        let mut st = store(64);
        let a = st.open_session();
        st.append(a, &kv_rows(24, 17)).unwrap();
        let slab = st.pages.len();
        st.close_session(a).unwrap();
        assert!(st.close_session(a).is_err(), "double close rejected");
        let b = st.open_session();
        st.append(b, &kv_rows(24, 18)).unwrap();
        assert_eq!(st.pages.len(), slab, "freed pages are reused");
        assert_eq!(st.live_sessions(), 1);
        assert_eq!(st.fp16_bytes(), 24 * st.kv_dim() * 2);
    }

    #[test]
    fn resident_bytes_account_both_tiers() {
        let mut st = store(2);
        let sid = st.open_session();
        st.append(sid, &kv_rows(40, 19)).unwrap(); // 5 pages, 3 cold
        let rb = st.resident_bytes();
        let page_fp16 = 8 * st.kv_dim() * 2;
        assert_eq!(rb.hot, 2 * page_fp16);
        // Cold pages sit at the codec's fixed 4x.
        assert_eq!(rb.cold, 3 * page_fp16 / 4);
        assert!(rb.total() < st.fp16_bytes());
        assert!(sessions_per_gb(1, rb.total()) > sessions_per_gb(1, st.fp16_bytes()));
    }

    #[test]
    fn misaligned_append_rejected() {
        let mut st = store(4);
        let sid = st.open_session();
        assert!(matches!(
            st.append(sid, &kv_rows(1, 20)[..100]),
            Err(ServeError::MisalignedAppend { .. })
        ));
        assert!(matches!(
            st.append(SessionId(999), &kv_rows(1, 20)),
            Err(ServeError::UnknownSession(_))
        ));
    }

    /// The old clock representation: a `Vec` of page ids plus an index
    /// hand, with `position` + `remove` scans. Kept here as the reference
    /// model pinning [`ClockList`]'s order and cursor semantics.
    struct VecClock {
        clock: Vec<usize>,
        hand: usize,
    }

    impl VecClock {
        fn remove(&mut self, pid: usize) {
            if let Some(pos) = self.clock.iter().position(|&p| p == pid) {
                self.clock.remove(pos);
                if pos < self.hand {
                    self.hand -= 1;
                }
            }
        }

        fn sweep(&mut self, referenced: &mut [bool]) -> usize {
            loop {
                if self.hand >= self.clock.len() {
                    self.hand = 0;
                }
                let pid = self.clock[self.hand];
                if referenced[pid] {
                    referenced[pid] = false;
                    self.hand += 1;
                } else {
                    self.clock.remove(self.hand);
                    return pid;
                }
            }
        }
    }

    #[test]
    fn clock_list_matches_the_scan_based_reference() {
        let mut lcg = 0x5EEDu64;
        let mut rand = move |n: u64| {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (lcg >> 33) % n
        };
        const PIDS: usize = 64;
        let mut list = ClockList::new();
        let mut vec = VecClock {
            clock: Vec::new(),
            hand: 0,
        };
        let mut referenced = [false; PIDS];
        let mut free: Vec<usize> = (0..PIDS).rev().collect();
        for step in 0..20_000 {
            match rand(10) {
                // Push a recycled page id (referenced, like a fresh page).
                0..=4 => {
                    if let Some(pid) = free.pop() {
                        referenced[pid] = true;
                        list.push_back(pid);
                        vec.clock.push(pid);
                    }
                }
                // Remove an arbitrary linked page (session close).
                5..=6 => {
                    if !vec.clock.is_empty() {
                        let pid = vec.clock[rand(vec.clock.len() as u64) as usize];
                        assert!(list.contains(pid));
                        list.unlink(pid);
                        vec.remove(pid);
                        free.push(pid);
                    }
                }
                // Second-chance sweep for one victim (eviction).
                7..=8 => {
                    if !vec.clock.is_empty() {
                        let mut ref_twin = referenced;
                        let want = vec.sweep(&mut ref_twin);
                        let got = loop {
                            let pid = list.hand_page();
                            if referenced[pid] {
                                referenced[pid] = false;
                                list.advance_hand();
                            } else {
                                list.unlink(pid);
                                break pid;
                            }
                        };
                        assert_eq!(got, want, "victim diverged at step {step}");
                        assert_eq!(referenced, ref_twin);
                        free.push(got);
                    }
                }
                // Bulk removal + hand rewind (flush_full_pages).
                _ => {
                    let victims: Vec<usize> = vec
                        .clock
                        .iter()
                        .copied()
                        .filter(|&p| p % 3 == step % 3)
                        .collect();
                    vec.clock.retain(|p| !victims.contains(p));
                    vec.hand = 0;
                    for &pid in &victims {
                        list.unlink(pid);
                        free.push(pid);
                    }
                    list.reset_hand();
                }
            }
            assert_eq!(list.len(), vec.clock.len());
            assert_eq!(
                list.iter().collect::<Vec<_>>(),
                vec.clock,
                "clock order diverged at step {step}"
            );
            if !vec.clock.is_empty() {
                assert_eq!(list.hand_page(), vec.clock[vec.hand % vec.clock.len()]);
            }
        }
    }

    #[test]
    fn clock_bookkeeping_survives_a_large_trace() {
        let mut st = store(6);
        let mut lcg = 0xC10Cu64;
        let mut rand = move |n: u64| {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (lcg >> 33) % n
        };
        let check = |st: &PagedKvStore| {
            let on_clock: Vec<usize> = st.clock.iter().collect();
            let hot: Vec<usize> = (0..st.pages.len())
                .filter(|&p| matches!(st.pages[p].residency, Residency::Hot { .. }))
                .collect();
            assert_eq!(st.clock.len(), on_clock.len());
            let mut sorted = on_clock.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), on_clock.len(), "duplicate page on the clock");
            assert_eq!(sorted, hot, "clock and hot residency disagree");
        };
        let reads = |st: &PagedKvStore| st.metrics().hot_hits + st.metrics().cold_reads;
        let mut open: Vec<SessionId> = Vec::new();
        for step in 0..400 {
            match rand(10) {
                0..=2 => open.push(st.open_session()),
                3..=6 => {
                    if !open.is_empty() {
                        let sid = open[rand(open.len() as u64) as usize];
                        let tokens = 8 * (1 + rand(4) as usize);
                        st.append(sid, &kv_rows(tokens, step)).unwrap();
                    }
                }
                7 => {
                    if !open.is_empty() {
                        let sid = open.swap_remove(rand(open.len() as u64) as usize);
                        st.close_session(sid).unwrap();
                    }
                }
                8 => {
                    if !open.is_empty() {
                        let sid = open[rand(open.len() as u64) as usize];
                        if st.session_tokens(sid).unwrap() > 0 {
                            let before = reads(&st);
                            let r = st.read_session_into(sid, &mut Vec::new()).unwrap();
                            assert_eq!(
                                reads(&st) - before,
                                r.pages as u64,
                                "a page read counts one tier hit, step {step}"
                            );
                        }
                    }
                }
                _ => st.flush_full_pages(),
            }
            check(&st);
            assert!(
                st.hot_pages() <= st.config().hot_capacity_pages + 1,
                "hot tier overran capacity at step {step}"
            );
            let m = st.metrics();
            assert_eq!(
                m.evictions,
                m.recompressions + m.clean_drops,
                "an eviction is a re-encode or a drop, step {step}"
            );
        }
        assert!(st.metrics().evictions > 0, "trace never hit the clock");
        for sid in open {
            st.close_session(sid).unwrap();
        }
        check(&st);
    }

    #[test]
    fn percentile_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&xs, 0.50), 50.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
