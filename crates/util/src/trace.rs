//! Lock-free flight-recorder tracing: per-thread ring buffers of
//! timestamped binary events, merged on drain into a globally ordered
//! stream and exportable as Chrome trace-format JSON
//! (`chrome://tracing` / Perfetto).
//!
//! # Design
//!
//! The recorder is built for the cLSM hot paths, where an extra lock or
//! allocation would distort exactly the behavior being observed:
//!
//! - **Per-thread rings.** Each recording thread owns a fixed-size ring
//!   of 32-byte event slots. The owning thread is the only writer, so
//!   recording is a handful of relaxed/release stores — no CAS, no
//!   shared cache-line contention, no allocation (the ring is allocated
//!   once, on the thread's first event).
//! - **Seqlock slots.** Every slot carries a version word derived from
//!   the thread's event sequence number (odd while a write is in
//!   progress, even when complete). The drain re-checks the version
//!   around its field reads, so a concurrently overwritten slot is
//!   *detected and counted as dropped* rather than surfacing a torn
//!   event.
//! - **Per-thread sequence numbers.** Event `n` of a thread always has
//!   sequence `n`; the drain reconstructs it from the slot version.
//!   Strictly increasing sequences per thread prove the merged stream
//!   lost nothing silently — every gap is reported in the drain
//!   summary.
//! - **Disabled means free.** With tracing disabled (the default) every
//!   instrumentation site is one relaxed atomic load and a branch.
//!
//! # Event schema
//!
//! One event is `(ts_ns, seq, name-id, phase, arg)` packed into four
//! `u64` words: nanosecond timestamp since the process trace epoch,
//! per-thread sequence, interned name, phase (span begin/end or
//! instant), and a free-form argument (level number, byte count, …).
//!
//! # Usage
//!
//! ```
//! use clsm_util::trace::{self, TraceId};
//!
//! static MY_SPAN: TraceId = TraceId::new("example.work");
//!
//! trace::enable(1024);
//! {
//!     let _span = MY_SPAN.span(); // Begin now, End on drop
//!     MY_SPAN.instant(42);
//! }
//! let snapshot = trace::drain();
//! assert_eq!(snapshot.events.len(), 3);
//! let json = snapshot.to_chrome_json();
//! assert!(json.contains("\"example.work\""));
//! trace::disable();
//! ```

use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

use crate::json;

/// Default per-thread ring capacity (events), used by
/// [`enable_default`]. 64 Ki events × 32 B = 2 MiB per thread.
pub(crate) const DEFAULT_RING_CAPACITY: usize = 64 * 1024;

/// Event phase, mirroring the Chrome trace-format phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Span begin (`"B"`).
    Begin,
    /// Span end (`"E"`).
    End,
    /// Instant event (`"i"`).
    Instant,
}

impl Phase {
    fn from_u8(v: u8) -> Phase {
        match v {
            0 => Phase::Begin,
            1 => Phase::End,
            _ => Phase::Instant,
        }
    }

    fn as_u8(self) -> u8 {
        match self {
            Phase::Begin => 0,
            Phase::End => 1,
            Phase::Instant => 2,
        }
    }

    fn chrome_ph(self) -> char {
        match self {
            Phase::Begin => 'B',
            Phase::End => 'E',
            Phase::Instant => 'i',
        }
    }
}

// ---------------------------------------------------------------------------
// Clock
// ---------------------------------------------------------------------------

/// The process-wide trace epoch, fixed on first use. Shared with the
/// shared-exclusive lock's hold tracking and the stall events so all
/// observability timestamps live on one axis.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process trace epoch (monotonic, never zero
/// after the first call from any thread).
pub fn now_ns() -> u64 {
    u64::try_from(epoch().elapsed().as_nanos())
        .unwrap_or(u64::MAX)
        .max(1)
}

// ---------------------------------------------------------------------------
// Per-thread ring
// ---------------------------------------------------------------------------

/// One event slot: a seqlock version plus the three payload words.
/// Exactly 32 bytes.
struct Slot {
    /// `2n + 1` while event `n` is being written, `2n + 2` once it is
    /// complete, `0` when the slot was never used.
    version: AtomicU64,
    ts_ns: AtomicU64,
    /// Interned name id (low 32 bits) and phase (bits 32..40).
    meta: AtomicU64,
    arg: AtomicU64,
}

fn pack_meta(id: u32, phase: Phase) -> u64 {
    (id as u64) | ((phase.as_u8() as u64) << 32)
}

fn unpack_meta(meta: u64) -> (u32, Phase) {
    (meta as u32, Phase::from_u8((meta >> 32) as u8))
}

/// A thread's event ring. The owning thread is the only writer; drains
/// read concurrently through the per-slot seqlock.
struct Ring {
    slots: Box<[Slot]>,
    /// Number of events ever recorded by the owner; published with
    /// Release after each slot write.
    head: AtomicU64,
    /// Drain-assigned stable thread index (used as the Chrome `tid`).
    thread_index: u32,
    thread_name: String,
}

impl Ring {
    fn new(capacity: usize, thread_index: u32, thread_name: String) -> Ring {
        Ring {
            slots: (0..capacity.max(2))
                .map(|_| Slot {
                    version: AtomicU64::new(0),
                    ts_ns: AtomicU64::new(0),
                    meta: AtomicU64::new(0),
                    arg: AtomicU64::new(0),
                })
                .collect(),
            head: AtomicU64::new(0),
            thread_index,
            thread_name,
        }
    }

    /// Records one event. Must only be called by the owning thread.
    fn push(&self, ts_ns: u64, id: u32, phase: Phase, arg: u64) {
        let seq = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(seq % self.slots.len() as u64) as usize];
        // Seqlock write protocol: odd version first, fence, payload,
        // then the even version with Release. A concurrent drain that
        // observes mismatched versions discards the slot.
        slot.version.store(seq * 2 + 1, Ordering::Relaxed);
        fence(Ordering::Release);
        slot.ts_ns.store(ts_ns, Ordering::Relaxed);
        slot.meta.store(pack_meta(id, phase), Ordering::Relaxed);
        slot.arg.store(arg, Ordering::Relaxed);
        slot.version.store(seq * 2 + 2, Ordering::Release);
        self.head.store(seq + 1, Ordering::Release);
    }

    /// Reads every intact event still in the ring; returns
    /// `(events, recorded_total)`. Events overwritten (ring wrap) or
    /// mid-write are simply absent — the caller derives the drop count.
    fn drain(&self) -> (Vec<TraceEvent>, u64) {
        let head = self.head.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let first = head.saturating_sub(cap);
        let mut out = Vec::with_capacity((head - first) as usize);
        for seq in first..head {
            let slot = &self.slots[(seq % cap) as usize];
            let want = seq * 2 + 2;
            let v1 = slot.version.load(Ordering::Acquire);
            if v1 != want {
                continue; // overwritten by a newer event, or mid-write
            }
            let ts_ns = slot.ts_ns.load(Ordering::Relaxed);
            let meta = slot.meta.load(Ordering::Relaxed);
            let arg = slot.arg.load(Ordering::Relaxed);
            fence(Ordering::Acquire);
            if slot.version.load(Ordering::Relaxed) != want {
                continue; // overwritten while we were reading
            }
            let (id, phase) = unpack_meta(meta);
            out.push(TraceEvent {
                ts_ns,
                thread: self.thread_index,
                seq,
                name_id: id,
                phase,
                arg,
            });
        }
        (out, head)
    }
}

// ---------------------------------------------------------------------------
// Global registry
// ---------------------------------------------------------------------------

struct Registry {
    enabled: AtomicBool,
    /// Ring capacity for threads that register while enabled.
    capacity: AtomicUsize,
    rings: Mutex<Vec<Arc<Ring>>>,
    /// Interned event names; a [`TraceId`] caches its index here.
    names: Mutex<Vec<&'static str>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        enabled: AtomicBool::new(false),
        capacity: AtomicUsize::new(DEFAULT_RING_CAPACITY),
        rings: Mutex::new(Vec::new()),
        names: Mutex::new(Vec::new()),
    })
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

thread_local! {
    /// This thread's ring, created on its first event after enable.
    static THREAD_RING: std::cell::RefCell<Option<Arc<Ring>>> =
        const { std::cell::RefCell::new(None) };
}

/// Turns the recorder on with `capacity` event slots per thread.
/// Threads allocate their ring lazily on their first event. Re-enabling
/// keeps previously registered rings (and their events).
pub fn enable(capacity: usize) {
    let reg = registry();
    epoch(); // pin the clock before the first event
    reg.capacity.store(capacity.max(2), Ordering::Relaxed);
    reg.enabled.store(true, Ordering::Release);
}

/// [`enable`] with `DEFAULT_RING_CAPACITY`.
pub fn enable_default() {
    enable(DEFAULT_RING_CAPACITY);
}

/// Turns the recorder off. Already-recorded events stay drainable.
pub fn disable() {
    registry().enabled.store(false, Ordering::Release);
}

/// Whether the recorder is currently on.
pub(crate) fn is_enabled() -> bool {
    registry().enabled.load(Ordering::Relaxed)
}

/// Records one raw event on the calling thread's ring (creating and
/// registering the ring on first use). Does **not** check the enabled
/// flag — span guards decide that at begin time so begin/end pairs stay
/// balanced across a mid-span disable.
fn record(id: u32, phase: Phase, arg: u64) {
    let ts = now_ns();
    let res = THREAD_RING.try_with(|cell| {
        let mut slot = cell.borrow_mut();
        if slot.is_none() {
            let reg = registry();
            let mut rings = lock(&reg.rings);
            let index = rings.len() as u32;
            let name = std::thread::current()
                .name()
                .map_or_else(|| format!("thread-{index}"), str::to_string);
            let ring = Arc::new(Ring::new(reg.capacity.load(Ordering::Relaxed), index, name));
            rings.push(Arc::clone(&ring));
            *slot = Some(ring);
        }
        slot.as_ref().map(Arc::clone)
    });
    if let Ok(Some(ring)) = res {
        ring.push(ts, id, phase, arg);
    }
}

/// An interned event/span name, intended as a `static` at each
/// instrumentation site so the hot path pays one atomic load for the
/// id and one for the enabled flag.
pub struct TraceId {
    name: &'static str,
    id: OnceLock<u32>,
}

impl TraceId {
    /// Creates an id for `name` (interned on first use).
    pub const fn new(name: &'static str) -> TraceId {
        TraceId {
            name,
            id: OnceLock::new(),
        }
    }

    fn id(&self) -> u32 {
        *self.id.get_or_init(|| {
            let mut names = lock(&registry().names);
            if let Some(i) = names.iter().position(|n| *n == self.name) {
                i as u32
            } else {
                names.push(self.name);
                (names.len() - 1) as u32
            }
        })
    }

    /// Starts a span: records `Begin` now and `End` when the returned
    /// guard drops. A no-op (one load + branch) while disabled.
    #[inline]
    pub fn span(&self) -> SpanGuard<'_> {
        self.span_with(0)
    }

    /// [`TraceId::span`] carrying an argument on the begin event.
    #[inline]
    pub fn span_with(&self, arg: u64) -> SpanGuard<'_> {
        let active = is_enabled();
        if active {
            record(self.id(), Phase::Begin, arg);
        }
        SpanGuard { id: self, active }
    }

    /// Records an instant event. A no-op while disabled.
    #[inline]
    pub fn instant(&self, arg: u64) {
        if is_enabled() {
            record(self.id(), Phase::Instant, arg);
        }
    }
}

impl std::fmt::Debug for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("TraceId").field(&self.name).finish()
    }
}

/// RAII span: records the `End` event on drop (see [`TraceId::span`]).
#[must_use = "the span ends when the guard is dropped"]
pub struct SpanGuard<'a> {
    id: &'a TraceId,
    active: bool,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if self.active {
            record(self.id.id(), Phase::End, 0);
        }
    }
}

// ---------------------------------------------------------------------------
// Drain + export
// ---------------------------------------------------------------------------

/// One merged event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Nanoseconds since the process trace epoch.
    pub ts_ns: u64,
    /// Stable index of the recording thread.
    pub thread: u32,
    /// Per-thread sequence number (strictly increasing, gap-free unless
    /// the ring wrapped).
    pub seq: u64,
    /// Index into [`TraceSnapshot::names`].
    pub name_id: u32,
    /// Span begin/end or instant.
    pub phase: Phase,
    /// Free-form argument (level number, byte count, magnitude…).
    pub arg: u64,
}

/// Per-thread accounting of one drain: how much was recorded vs. how
/// much survived in the ring. `dropped > 0` means the ring wrapped (or
/// a slot was caught mid-write) — loss is always reported, never
/// silent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadDrainSummary {
    /// Stable thread index (the Chrome `tid`).
    pub thread: u32,
    /// The thread's name at registration time.
    pub name: String,
    /// Events the thread ever recorded.
    pub recorded: u64,
    /// Events returned by this drain.
    pub returned: u64,
    /// Events evicted by ring wrap-around (oldest first) or skipped as
    /// in-flight: `recorded - returned`.
    pub dropped: u64,
}

/// A merged, globally ordered view of every thread's ring.
#[derive(Debug, Clone, Default)]
pub struct TraceSnapshot {
    /// Events ordered by `(ts_ns, thread, seq)`.
    pub events: Vec<TraceEvent>,
    /// Interned names; `events[i].name_id` indexes this.
    pub names: Vec<&'static str>,
    /// Per-thread drain accounting (includes threads whose events were
    /// all evicted — loss stays visible).
    pub threads: Vec<ThreadDrainSummary>,
}

/// Snapshots and merges every thread's ring into a globally ordered
/// event stream. Rings keep their contents (a later drain returns the
/// same events plus newer ones, minus any evicted by wrap-around).
pub fn drain() -> TraceSnapshot {
    let reg = registry();
    let rings: Vec<Arc<Ring>> = lock(&reg.rings).iter().map(Arc::clone).collect();
    let names = lock(&reg.names).clone();
    let mut events = Vec::new();
    let mut threads = Vec::with_capacity(rings.len());
    for ring in &rings {
        let (mut evs, recorded) = ring.drain();
        threads.push(ThreadDrainSummary {
            thread: ring.thread_index,
            name: ring.thread_name.clone(),
            recorded,
            returned: evs.len() as u64,
            dropped: recorded - evs.len() as u64,
        });
        events.append(&mut evs);
    }
    events.sort_by_key(|e| (e.ts_ns, e.thread, e.seq));
    TraceSnapshot {
        events,
        names,
        threads,
    }
}

impl TraceSnapshot {
    /// The event's interned name.
    pub(crate) fn name_of(&self, e: &TraceEvent) -> &'static str {
        self.names.get(e.name_id as usize).copied().unwrap_or("?")
    }

    /// Total events dropped across all threads (ring wrap-around).
    pub fn total_dropped(&self) -> u64 {
        self.threads.iter().map(|t| t.dropped).sum()
    }

    /// Renders Chrome trace-format JSON (the "JSON array format" with a
    /// `traceEvents` wrapper), loadable in `chrome://tracing` and
    /// Perfetto. Timestamps are microseconds with nanosecond precision;
    /// one event per line, which keeps the file greppable and lets
    /// `clsm-doctor --replay` parse it without a JSON library.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(self.events.len() * 96 + 1024);
        out.push_str("{\"traceEvents\":[\n");
        out.push_str("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"clsm\"}}");
        for t in &self.threads {
            out.push_str(&format!(
                ",\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\"args\":{{\"name\":\"{}\"}}}}",
                t.thread,
                json::escape(&t.name)
            ));
        }
        for e in &self.events {
            let ts_us = e.ts_ns as f64 / 1000.0;
            let ph = e.phase.chrome_ph();
            out.push_str(&format!(
                ",\n{{\"name\":\"{}\",\"ph\":\"{}\",\"pid\":1,\"tid\":{},\"ts\":{:.3}",
                json::escape(self.name_of(e)),
                ph,
                e.thread,
                ts_us
            ));
            if e.phase == Phase::Instant {
                out.push_str(",\"s\":\"t\"");
            }
            if e.arg != 0 || e.phase == Phase::Instant {
                out.push_str(&format!(",\"args\":{{\"arg\":{}}}", e.arg));
            }
            out.push('}');
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The recorder is process-global; tests in this module serialize on
    // a lock so enable/disable/drain calls do not interleave.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(PoisonError::into_inner)
    }

    static SPAN_A: TraceId = TraceId::new("test.span_a");
    static INSTANT_B: TraceId = TraceId::new("test.instant_b");

    #[test]
    fn disabled_recorder_records_nothing() {
        let _g = serial();
        disable();
        let before = drain().events.len();
        {
            let _s = SPAN_A.span();
            INSTANT_B.instant(7);
        }
        assert_eq!(drain().events.len(), before);
    }

    #[test]
    fn spans_and_instants_roundtrip() {
        let _g = serial();
        enable(1024);
        let before = drain()
            .events
            .iter()
            .filter(|e| e.arg == 0xabcd || e.arg == 0xdcba)
            .count();
        {
            let _s = SPAN_A.span_with(0xabcd);
            INSTANT_B.instant(0xdcba);
        }
        let snap = drain();
        disable();
        let begin = snap
            .events
            .iter()
            .find(|e| e.phase == Phase::Begin && e.arg == 0xabcd)
            .expect("begin event");
        assert_eq!(snap.name_of(begin), "test.span_a");
        let inst = snap
            .events
            .iter()
            .find(|e| e.phase == Phase::Instant && e.arg == 0xdcba)
            .expect("instant event");
        assert_eq!(snap.name_of(inst), "test.instant_b");
        assert!(before <= 2, "stale events from other runs are bounded");
        // The end follows the begin on the same thread.
        let end = snap
            .events
            .iter()
            .find(|e| e.phase == Phase::End && e.thread == begin.thread && e.seq > begin.seq)
            .expect("end event");
        assert!(end.ts_ns >= begin.ts_ns);
    }

    #[test]
    fn chrome_json_is_wellformed_and_one_event_per_line() {
        let _g = serial();
        enable(1024);
        {
            let _s = SPAN_A.span();
            INSTANT_B.instant(1);
        }
        let snap = drain();
        disable();
        let json = snap.to_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":[\n"));
        assert!(json.trim_end().ends_with("]}"));
        assert!(json.contains("\"ph\":\"B\""));
        assert!(json.contains("\"ph\":\"E\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"thread_name\""));
        // Every event line is itself a JSON object.
        for line in json.lines().skip(1) {
            let line = line.trim_end_matches(&[',', '\n'][..]);
            if line.starts_with('{') {
                assert!(line.ends_with('}'), "line not self-contained: {line}");
            }
        }
    }

    #[test]
    fn now_ns_is_monotone_and_nonzero() {
        let a = now_ns();
        let b = now_ns();
        assert!(a >= 1);
        assert!(b >= a);
    }
}
