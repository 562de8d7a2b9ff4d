//! Timestamp oracle implementing Algorithm 2 of the cLSM paper.
//!
//! Multi-versioning machinery: a global `timeCounter`, the `Active` set
//! of timestamps that have been handed to writers but whose writes may
//! not be visible yet, the monotone `snapTime` high-water mark, and the
//! registry of live snapshots consulted by the merge for version GC.
//!
//! The two races the paper illustrates (Figures 3 and 4) are closed
//! here exactly as in the paper:
//!
//! - `getSnap` picks a timestamp strictly below every *active* put
//!   (Figure 3): a snapshot never chooses a time at which a concurrent
//!   put may still materialize.
//! - `getTS` re-checks `snapTime` after registering in `Active` and
//!   rolls back if its timestamp no longer exceeds it (Figure 4), while
//!   `getSnap` publishes `snapTime` *before* validating the active set.
//!   Whichever of the two observes the other first forces a consistent
//!   outcome.

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;
use std::collections::BTreeMap;

use crate::trace::TraceId;

/// Flight-recorder event: one `getTS` rollback retry (Figure 4's race
/// taken). The argument carries the rolled-back timestamp.
static T_GETTS_ROLLBACK: TraceId = TraceId::new("oracle.getTS.rollback");
/// Flight-recorder span: `getSnap` waiting out in-flight writes at or
/// below its chosen time (the `Active`-min wait).
static T_SNAP_WAIT: TraceId = TraceId::new("oracle.getSnap.active_wait");

/// Default number of slots in the active set (the size a database's
/// oracle has); must comfortably exceed the number of concurrently
/// writing threads. A write holds one slot from stamp to publish — a
/// whole batch included — so this bounds writers, not entries.
const DEFAULT_ACTIVE_SLOTS: usize = 256;

/// Slots per stripe: one 64-byte cache line of `u64` slots.
const STRIPE_SLOTS: usize = 8;

/// One cache line of `Active`-set slots. The alignment is the point:
/// two threads claiming slots in different stripes never bounce the
/// same line between cores.
#[repr(align(64))]
#[derive(Debug)]
struct Stripe {
    slots: [AtomicU64; STRIPE_SLOTS],
}

impl Stripe {
    fn new() -> Stripe {
        Stripe {
            slots: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// Lock-free set of in-flight put timestamps (the paper's `Active`).
///
/// The slots are grouped into cache-line-aligned stripes. A writer
/// claims an empty slot by CAS, starting in its *home stripe* (picked
/// by `thread_index`), and overflows into neighboring
/// stripes only when its home stripe is full — so under normal load
/// (slot capacity exceeding writer count) concurrent `add`/`remove`
/// touch disjoint cache lines instead of contending on one CAS line.
/// `find_min` scans all stripes. Timestamps are unique and nonzero, so
/// zero marks an empty slot.
#[derive(Debug)]
pub struct ActiveSet {
    stripes: Box<[Stripe]>,
}

/// Handle returned by [`ActiveSet::add`]; pass it back to
/// [`ActiveSet::remove`] when the write becomes visible. Carries the
/// flat slot index, so removal is one store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActiveTicket(usize);

impl ActiveSet {
    /// Creates a set with at least `slots` capacity (rounded up to
    /// whole cache-line stripes).
    pub fn new(slots: usize) -> Self {
        let stripes = slots.max(1).div_ceil(STRIPE_SLOTS);
        ActiveSet {
            stripes: (0..stripes).map(|_| Stripe::new()).collect(),
        }
    }

    /// Total slot capacity (a multiple of the stripe width).
    pub fn capacity(&self) -> usize {
        self.stripes.len() * STRIPE_SLOTS
    }

    fn slot(&self, flat: usize) -> &AtomicU64 {
        &self.stripes[flat / STRIPE_SLOTS].slots[flat % STRIPE_SLOTS]
    }

    /// Registers `ts` and returns a removal ticket.
    ///
    /// Spins if all slots are occupied, which cannot happen as long as
    /// the slot count exceeds the number of writer threads.
    pub fn add(&self, ts: u64) -> ActiveTicket {
        debug_assert_ne!(ts, 0, "timestamp 0 is reserved for empty slots");
        let capacity = self.capacity();
        // Home stripe by thread: repeated adds from one thread stay on
        // one cache line, and different threads (up to the stripe
        // count) claim on different lines.
        let start = (crate::tid::thread_index() % self.stripes.len()) * STRIPE_SLOTS;
        let mut i = start;
        loop {
            // SeqCst: `add` must be globally ordered against `getSnap`'s
            // `snapTime` publication (see module docs).
            if self
                .slot(i)
                .compare_exchange(0, ts, Ordering::SeqCst, Ordering::Relaxed)
                .is_ok()
            {
                return ActiveTicket(i);
            }
            i = (i + 1) % capacity;
            if i == start {
                std::thread::yield_now();
            }
        }
    }

    /// Removes the timestamp registered under `ticket`.
    pub fn remove(&self, ticket: ActiveTicket) {
        self.slot(ticket.0).store(0, Ordering::SeqCst);
    }

    /// Returns the minimum active timestamp, or `None` when empty.
    pub fn find_min(&self) -> Option<u64> {
        let mut min = u64::MAX;
        for stripe in self.stripes.iter() {
            for slot in &stripe.slots {
                let v = slot.load(Ordering::SeqCst);
                if v != 0 && v < min {
                    min = v;
                }
            }
        }
        (min != u64::MAX).then_some(min)
    }

    /// Returns `true` when no timestamps are registered.
    pub fn is_empty(&self) -> bool {
        self.find_min().is_none()
    }

    /// Number of currently registered timestamps (occupied slots) —
    /// a write-pressure gauge, not a synchronization primitive.
    pub fn len(&self) -> usize {
        self.stripes
            .iter()
            .flat_map(|s| s.slots.iter())
            .filter(|s| s.load(Ordering::Relaxed) != 0)
            .count()
    }
}

/// A write timestamp together with its active-set ticket.
///
/// The holder must call [`TimestampOracle::publish`] once the write is
/// visible in the in-memory component (Algorithm 2, `put` line 5) —
/// dropping it without publishing would wedge snapshot creation.
#[derive(Debug)]
pub struct WriteStamp {
    /// The acquired timestamp.
    pub ts: u64,
    ticket: ActiveTicket,
}

/// A contiguous block of write timestamps `[base, base + len)` acquired
/// with one `fetch_add`: one counter round-trip and one `Active`-set
/// registration cover all N entries of an atomic write batch.
///
/// Only `base` is registered in the `Active` set: `getSnap` picks a
/// time strictly below the minimum active stamp, so holding the block's
/// minimum active shields every stamp in the block. The holder must
/// call [`TimestampOracle::publish_block`] once *all* writes carrying
/// stamps from the block are visible — publishing early would let a
/// snapshot observe a partially applied batch.
#[derive(Debug)]
pub struct BlockStamp {
    /// First (smallest) timestamp in the block.
    pub base: u64,
    /// Number of timestamps in the block.
    pub len: u64,
    ticket: ActiveTicket,
}

/// The cLSM timestamp oracle (Algorithm 2).
#[derive(Debug)]
pub struct TimestampOracle {
    /// The paper's `timeCounter`.
    time_counter: AtomicU64,
    /// The paper's `snapTime`: every snapshot ever granted is ≤ this,
    /// and every write timestamp ever published exceeds it.
    snap_time: AtomicU64,
    active: ActiveSet,
}

impl Default for TimestampOracle {
    fn default() -> Self {
        Self::new(DEFAULT_ACTIVE_SLOTS)
    }
}

impl TimestampOracle {
    /// Creates an oracle whose active set has `active_slots` slots.
    pub fn new(active_slots: usize) -> Self {
        TimestampOracle {
            time_counter: AtomicU64::new(0),
            snap_time: AtomicU64::new(0),
            active: ActiveSet::new(active_slots),
        }
    }

    /// Creates an oracle with the default `Active` set whose counter
    /// starts at `ts` (used on recovery to resume above the highest
    /// recovered timestamp).
    pub fn recovered_at(ts: u64) -> Self {
        TimestampOracle {
            time_counter: AtomicU64::new(ts),
            ..Self::default()
        }
    }

    /// Algorithm 2, `getTS`: acquires a fresh write timestamp, retrying
    /// while the timestamp does not exceed `snapTime`.
    pub fn get_ts(&self) -> WriteStamp {
        loop {
            let ts = self.time_counter.fetch_add(1, Ordering::SeqCst) + 1;
            let ticket = self.active.add(ts);
            if ts <= self.snap_time.load(Ordering::SeqCst) {
                // A snapshot has already been promised that no write at
                // or below its time is in flight; roll back and retry.
                self.active.remove(ticket);
                T_GETTS_ROLLBACK.instant(ts);
            } else {
                return WriteStamp { ts, ticket };
            }
        }
    }

    /// Algorithm 2, `put` line 5: marks the write carrying `stamp` as
    /// visible, unblocking snapshots waiting on it.
    pub fn publish(&self, stamp: WriteStamp) {
        self.active.remove(stamp.ticket);
    }

    /// Batch variant of `getTS`: acquires `n` contiguous
    /// timestamps with one `fetch_add`, registering only the block base
    /// in the `Active` set (the base is the block's minimum, so holding
    /// it active shields every stamp in the block from `getSnap`).
    ///
    /// The Figure 4 race extends to blocks unchanged: if a snapshot was
    /// promised a time at or above `base` between the counter bump and
    /// the `Active` registration, the *whole block* rolls back and a
    /// fresh one is drawn. Timestamp holes left by rollback are legal —
    /// recovery and reads only care about relative order.
    ///
    /// `n` must be nonzero.
    pub fn get_ts_block(&self, n: u64) -> BlockStamp {
        assert!(n > 0, "empty timestamp blocks are not allowed");
        loop {
            let end = self.time_counter.fetch_add(n, Ordering::SeqCst) + n;
            let base = end - n + 1;
            let ticket = self.active.add(base);
            if base <= self.snap_time.load(Ordering::SeqCst) {
                self.active.remove(ticket);
                T_GETTS_ROLLBACK.instant(base);
            } else {
                return BlockStamp {
                    base,
                    len: n,
                    ticket,
                };
            }
        }
    }

    /// Marks every write carrying a stamp from `block` as visible.
    ///
    /// Must only be called once *all* of the block's writes are in the
    /// in-memory component: the block publishes atomically, so a
    /// snapshot granted afterwards sees either none or all of them
    /// (with respect to the `Active`-set wait; per-stamp visibility
    /// still follows timestamp order).
    pub fn publish_block(&self, block: BlockStamp) {
        self.active.remove(block.ticket);
    }

    /// Algorithm 2, `getSnap` (minus the snapshot-registry bookkeeping,
    /// which the DB layer does under the shared-exclusive lock).
    ///
    /// Returns a timestamp `t` such that every write with timestamp
    /// ≤ `t` is already visible and no future write will receive a
    /// timestamp ≤ `t`.
    pub fn get_snap(&self) -> u64 {
        // Choose a time below every active write and publish it into
        // `snapTime` *before* validating the active set (Figure 4): no
        // later `getTS` can keep a timestamp at or below it.
        let mut ts = self.time_counter.load(Ordering::SeqCst);
        if let Some(min_active) = self.active.find_min() {
            ts = ts.min(min_active - 1);
        }
        self.snap_time.fetch_max(ts, Ordering::SeqCst);

        // Wait until every active write timestamp exceeds `snapTime`,
        // then return the validated `snapTime`.
        let mut spins = 0u32;
        // Span only the waiting case: the common no-wait path records
        // nothing.
        let mut wait_span = None;
        loop {
            let snap = self.snap_time.load(Ordering::SeqCst);
            match self.active.find_min() {
                Some(min) if min <= snap => {
                    // An in-flight put at or below our snapshot time: it
                    // will either publish (making its write visible) or
                    // roll back. Either way we wait it out.
                    if wait_span.is_none() {
                        wait_span = Some(T_SNAP_WAIT.span_with(min));
                    }
                    if spins < 64 {
                        spins += 1;
                        std::hint::spin_loop();
                    } else {
                        std::thread::yield_now();
                    }
                }
                _ => return snap,
            }
        }
    }

    /// Current value of `timeCounter` (diagnostics / recovery).
    pub fn current_time(&self) -> u64 {
        self.time_counter.load(Ordering::SeqCst)
    }

    /// Current `snapTime` high-water mark.
    pub fn snap_time(&self) -> u64 {
        self.snap_time.load(Ordering::SeqCst)
    }

    /// Direct access to the active set (used by tests and benches).
    pub fn active(&self) -> &ActiveSet {
        &self.active
    }
}

/// Registry of live snapshot handles, consulted by `beforeMerge` to
/// compute the version-GC watermark (§3.2.1): how many handles are
/// live at each timestamp.
///
/// A handle leaves only when its owner releases it (the paper's "API
/// call"), never on a timer: a snapshot read must find the newest
/// version at or below its time, so no version it may read can be
/// collected while it is live.
///
/// The paper protects this list with the shared-exclusive lock; callers
/// here do the same (register under shared mode, query under exclusive
/// mode), so a plain mutex-protected multiset suffices internally.
#[derive(Debug, Default)]
pub struct SnapshotRegistry {
    /// timestamp → number of live handles at that timestamp.
    live: Mutex<BTreeMap<u64, usize>>,
}

impl SnapshotRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a live snapshot at `ts`.
    pub fn register(&self, ts: u64) {
        *self.live.lock().entry(ts).or_default() += 1;
    }

    /// Releases one handle at `ts`, which must have been registered and
    /// not yet released.
    pub fn unregister(&self, ts: u64) {
        let mut live = self.live.lock();
        let count = live.get_mut(&ts);
        debug_assert!(count.is_some(), "no live snapshot at {ts}");
        if let Some(count) = count {
            *count -= 1;
            if *count == 0 {
                live.remove(&ts);
            }
        }
    }

    /// The oldest live snapshot, or `None` if there are no snapshots.
    ///
    /// The merge may discard any version that is not the newest version
    /// ≤ this watermark for its key.
    pub fn oldest(&self) -> Option<u64> {
        self.live.lock().keys().next().copied()
    }

    /// Number of live snapshot handles.
    pub fn len(&self) -> usize {
        self.live.lock().values().sum()
    }

    /// Returns `true` when no snapshots are live.
    pub fn is_empty(&self) -> bool {
        self.live.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn timestamps_are_unique_and_increasing_per_thread() {
        let oracle = TimestampOracle::default();
        let mut last = 0;
        for _ in 0..100 {
            let stamp = oracle.get_ts();
            assert!(stamp.ts > last);
            last = stamp.ts;
            oracle.publish(stamp);
        }
    }

    #[test]
    fn snapshot_excludes_active_writes() {
        let oracle = TimestampOracle::default();
        let s1 = oracle.get_ts(); // ts = 1, held active
        let s2 = oracle.get_ts(); // ts = 2, held active
        assert_eq!((s1.ts, s2.ts), (1, 2));
        // Figure 3 scenario: the snapshot must choose a time below both
        // active writes; it returns immediately because snapTime = 0 and
        // min(active) = 1 > 0.
        let snap = oracle.get_snap();
        assert_eq!(snap, 0);
        oracle.publish(s1);
        oracle.publish(s2);
        assert_eq!(oracle.get_snap(), 2);
    }

    #[test]
    fn get_ts_rolls_back_below_snap_time() {
        let oracle = TimestampOracle::default();
        // Take the counter to 5 and publish everything.
        for _ in 0..5 {
            let s = oracle.get_ts();
            oracle.publish(s);
        }
        let snap = oracle.get_snap();
        assert_eq!(snap, 5);
        // The next write timestamp must exceed the snapshot time even
        // though the counter already matches it.
        let s = oracle.get_ts();
        assert!(s.ts > snap);
        oracle.publish(s);
    }

    #[test]
    fn get_snap_blocks_on_in_flight_write() {
        // Figure 4's interleaving, frozen: a writer drew timestamp 3
        // and registered it in `Active`, and before its `snapTime`
        // re-check another snapshot published time 5. Until that writer
        // publishes or rolls back, no snapshot may return.
        let oracle = TimestampOracle::default();
        oracle.time_counter.store(5, Ordering::SeqCst);
        let in_flight = oracle.active.add(3);
        oracle.snap_time.store(5, Ordering::SeqCst);

        let resolved = std::sync::atomic::AtomicBool::new(false);
        let (entered_tx, entered_rx) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            let snapshotter = scope.spawn(|| {
                entered_tx.send(()).unwrap();
                let snap = oracle.get_snap();
                assert!(
                    resolved.load(Ordering::SeqCst),
                    "getSnap returned {snap} while a write at 3 was in flight"
                );
                snap
            });
            entered_rx.recv().unwrap();
            // Not needed for correctness: lets the snapshotter reach
            // its wait loop so the assertion above is not vacuous.
            std::thread::sleep(Duration::from_millis(20));
            resolved.store(true, Ordering::SeqCst);
            oracle.active.remove(in_flight);
            assert_eq!(snapshotter.join().unwrap(), 5);
        });
    }

    #[test]
    fn concurrent_writers_and_snapshots_stay_consistent() {
        let oracle = Arc::new(TimestampOracle::new(64));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let o = Arc::clone(&oracle);
            handles.push(std::thread::spawn(move || {
                for _ in 0..2000 {
                    let s = o.get_ts();
                    // Invariant from Algorithm 2: a granted write
                    // timestamp always exceeds the snapshot watermark
                    // at grant time.
                    assert!(s.ts > o.snap_time());
                    o.publish(s);
                }
            }));
        }
        for _ in 0..2 {
            let o = Arc::clone(&oracle);
            handles.push(std::thread::spawn(move || {
                let mut last = 0;
                for _ in 0..500 {
                    let snap = o.get_snap();
                    // Snapshots are monotone per thread.
                    assert!(snap >= last);
                    last = snap;
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn block_stamps_are_contiguous_and_fresh() {
        let oracle = TimestampOracle::default();
        let single = oracle.get_ts();
        assert_eq!(single.ts, 1);
        oracle.publish(single);
        let block = oracle.get_ts_block(4);
        assert_eq!((block.base, block.len), (2, 4));
        oracle.publish_block(block);
        // The counter moved past the whole block.
        let next = oracle.get_ts();
        assert_eq!(next.ts, 6);
        oracle.publish(next);
    }

    #[test]
    fn snapshot_excludes_whole_active_block() {
        let oracle = TimestampOracle::default();
        let block = oracle.get_ts_block(3); // ts 1..=3 in flight
        assert_eq!(block.base, 1);
        // Only the base is registered, but the snapshot time must still
        // exclude every stamp in the block: min(active) - 1 = 0.
        let snap = oracle.get_snap();
        assert_eq!(snap, 0);
        oracle.publish_block(block);
        assert_eq!(oracle.get_snap(), 3);
    }

    #[test]
    fn block_rolls_back_below_snap_time() {
        let oracle = TimestampOracle::default();
        for _ in 0..5 {
            let s = oracle.get_ts();
            oracle.publish(s);
        }
        let snap = oracle.get_snap();
        assert_eq!(snap, 5);
        // A block drawn now starts at 6 > snapTime, no rollback needed;
        // exercise the rollback path by rewinding the counter to force
        // base <= snapTime on the first draw.
        oracle.time_counter.store(2, Ordering::SeqCst);
        let block = oracle.get_ts_block(2);
        // First draw gave base 3 <= snapTime 5 and was rolled back; the
        // retry keeps adding until base exceeds snapTime.
        assert!(block.base > snap);
        oracle.publish_block(block);
    }

    #[test]
    fn blocks_interleave_with_single_stamps() {
        let oracle = Arc::new(TimestampOracle::new(64));
        let mut handles = Vec::new();
        for _ in 0..2 {
            let o = Arc::clone(&oracle);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    let b = o.get_ts_block(4);
                    assert!(b.base > o.snap_time());
                    o.publish_block(b);
                }
            }));
        }
        for _ in 0..2 {
            let o = Arc::clone(&oracle);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    let s = o.get_ts();
                    assert!(s.ts > o.snap_time());
                    o.publish(s);
                }
            }));
        }
        let o = Arc::clone(&oracle);
        handles.push(std::thread::spawn(move || {
            let mut last = 0;
            for _ in 0..500 {
                let snap = o.get_snap();
                assert!(snap >= last);
                last = snap;
            }
        }));
        for h in handles {
            h.join().unwrap();
        }
        // 2 threads × 1000 blocks × 4 + 2 threads × 1000 singles, minus
        // rollback holes — the counter must cover at least that many.
        assert!(oracle.current_time() >= 10_000);
    }

    /// The stripe invariant, hammered: while a writer holds a stamp
    /// (it is *live* — granted, not yet published), `min_active` must
    /// never exceed that stamp. Eight writer threads mix single stamps
    /// and blocks with constant add/remove churn; two snapshot threads
    /// hammer `find_min` through `get_snap` at the same time.
    #[test]
    fn striped_active_set_stress() {
        let oracle = &TimestampOracle::new(64);
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                scope.spawn(move || {
                    for i in 0..2000u64 {
                        if (t + i) % 4 == 0 {
                            let b = oracle.get_ts_block(3);
                            let min = oracle.active().find_min().expect("own block is live");
                            assert!(
                                min <= b.base,
                                "min_active {min} exceeds live block base {}",
                                b.base
                            );
                            oracle.publish_block(b);
                        } else {
                            let s = oracle.get_ts();
                            let min = oracle.active().find_min().expect("own stamp is live");
                            assert!(min <= s.ts, "min_active {min} exceeds live stamp {}", s.ts);
                            oracle.publish(s);
                        }
                    }
                });
            }
            for _ in 0..2 {
                scope.spawn(|| {
                    let mut last = 0;
                    for _ in 0..400 {
                        let snap = oracle.get_snap();
                        assert!(snap >= last, "snapshots must be monotone per thread");
                        last = snap;
                    }
                });
            }
        });
        assert!(oracle.active().is_empty());
        assert!(oracle.current_time() >= 8 * 2000);
    }

    #[test]
    fn capacity_rounds_up_to_whole_stripes() {
        for requested in [1usize, 7, 8, 9, 64, 100] {
            let set = ActiveSet::new(requested);
            assert!(set.capacity() >= requested);
            assert_eq!(set.capacity() % 8, 0, "stripes are 8 slots wide");
        }
    }

    #[test]
    fn add_overflows_into_neighbor_stripes() {
        // Two stripes, one thread: its home stripe fills after 8 adds,
        // so later adds must overflow into the neighbor instead of
        // spinning.
        let set = ActiveSet::new(16);
        let tickets: Vec<ActiveTicket> = (1..=16).map(|ts| set.add(ts)).collect();
        assert_eq!(set.len(), 16);
        assert_eq!(set.find_min(), Some(1));
        for t in tickets {
            set.remove(t);
        }
        assert!(set.is_empty());
    }

    #[test]
    fn active_set_add_remove_min() {
        let set = ActiveSet::new(8);
        assert!(set.is_empty());
        let t5 = set.add(5);
        let t3 = set.add(3);
        let t9 = set.add(9);
        assert_eq!(set.find_min(), Some(3));
        set.remove(t3);
        assert_eq!(set.find_min(), Some(5));
        set.remove(t5);
        set.remove(t9);
        assert!(set.is_empty());
    }

    #[test]
    fn active_set_handles_collisions() {
        // One slot: every add after the first probes the same slot.
        let set = ActiveSet::new(1);
        let t1 = set.add(7);
        assert_eq!(set.find_min(), Some(7));
        set.remove(t1);
        let t2 = set.add(8);
        assert_eq!(set.find_min(), Some(8));
        set.remove(t2);
    }

    #[test]
    fn snapshot_registry_watermark() {
        let reg = SnapshotRegistry::new();
        assert!(reg.oldest().is_none());
        reg.register(10);
        reg.register(5);
        reg.register(5);
        assert_eq!(reg.oldest(), Some(5));
        assert_eq!(reg.len(), 3);
        reg.unregister(5);
        assert_eq!(reg.oldest(), Some(5));
        reg.unregister(5);
        assert_eq!(reg.oldest(), Some(10));
        reg.unregister(10);
        assert!(reg.is_empty());
    }

    #[test]
    fn snapshot_registry_counts_handles_per_timestamp() {
        let reg = SnapshotRegistry::new();
        reg.register(7);
        reg.register(7);
        reg.register(9);
        // Releasing the newer timestamp leaves the watermark alone.
        reg.unregister(9);
        assert_eq!((reg.oldest(), reg.len()), (Some(7), 2));
        // A timestamp whose handles all went can be registered again.
        reg.unregister(7);
        reg.unregister(7);
        assert!(reg.is_empty());
        reg.register(7);
        assert_eq!((reg.oldest(), reg.len()), (Some(7), 1));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "no live snapshot at 5")]
    fn releasing_a_snapshot_twice_is_a_bug() {
        let reg = SnapshotRegistry::new();
        reg.register(5);
        reg.unregister(5);
        reg.unregister(5);
    }
}
