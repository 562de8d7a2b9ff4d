//! Adversarial schedule driver: seeded concurrent workloads recorded
//! through [`clsm_kv::record::RecordingSession`].
//!
//! Every written value is globally unique (`<kind><thread>-<seq>`), so
//! the checkers can map each observed value to exactly one write —
//! ambiguity-free histories make every check tight (see
//! [`crate::snapcheck`] on candidate sets).
//!
//! Keys follow the workload crate's heavy-tail generator: a few hot
//! keys collect most of the contention (that is where linearizability
//! bugs live), the tail keeps scans and absence checks honest. A
//! chaos hook, when provided, runs on its own thread and keeps poking
//! the store's internals (memtable rotations, forced compactions,
//! exclusive-lock holds) while the workload runs.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use clsm_kv::record::{KvEvent, RecordingSession};
use clsm_kv::{KvStore, RmwDecision, ScanRange, WriteBatch, WriteOptions};
use clsm_workloads::keygen::{KeyDistribution, KeyGen};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What the store under test supports; unsupported families are left
/// out of the schedule.
#[derive(Debug, Clone, Copy)]
pub struct SutCaps {
    /// Atomic `read_modify_write`.
    pub rmw: bool,
    /// Atomic `put_if_absent`.
    pub pia: bool,
    /// Atomic multi-key `write_batch`.
    pub atomic_batch: bool,
    /// Consistent snapshots and scans (a store composed of independent
    /// partitions has none; the driver then skips snapshot traffic).
    pub snapshots: bool,
}

impl SutCaps {
    /// Everything supported (cLSM's `Db`).
    pub fn full() -> SutCaps {
        SutCaps {
            rmw: true,
            pia: true,
            atomic_batch: true,
            snapshots: true,
        }
    }
}

/// One seeded schedule's shape.
#[derive(Debug, Clone)]
pub struct ScheduleCfg {
    /// Seed for every thread's RNG (xor'd with the thread id).
    pub seed: u64,
    /// Worker thread count.
    pub threads: usize,
    /// Operations per worker.
    pub ops_per_thread: usize,
    /// Distinct keys; small spaces maximize contention.
    pub key_space: u64,
    /// What op families to include.
    pub caps: SutCaps,
}

impl ScheduleCfg {
    /// A contended default: few keys, mixed ops.
    pub fn new(seed: u64) -> ScheduleCfg {
        ScheduleCfg {
            seed,
            threads: 4,
            ops_per_thread: 300,
            key_space: 24,
            caps: SutCaps::full(),
        }
    }
}

/// Runs one seeded schedule and returns the recorded history, sorted
/// by invoke tick. `chaos`, when given, runs on a dedicated thread
/// until the workers finish.
pub fn run_schedule(
    store: Arc<dyn KvStore>,
    chaos: Option<Arc<dyn Fn() + Send + Sync>>,
    cfg: &ScheduleCfg,
) -> Vec<KvEvent> {
    let session = RecordingSession::new(store);
    let stop = Arc::new(AtomicBool::new(false));

    let chaos_thread = chaos.map(|hook| {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Acquire) {
                hook();
                std::thread::sleep(std::time::Duration::from_micros(500));
            }
        })
    });

    let workers: Vec<_> = (0..cfg.threads)
        .map(|t| {
            let mut recorder = session.recorder();
            let cfg = cfg.clone();
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(cfg.seed ^ (0x9e37_79b9 * (t as u64 + 1)));
                let mut keys =
                    KeyGen::new(cfg.key_space, 16, KeyDistribution::HeavyTail { theta: 0.8 });
                for seq in 0..cfg.ops_per_thread {
                    let key = keys.next_key(&mut rng);
                    let tag = |kind: char| format!("{kind}{t}-{seq}").into_bytes();
                    let mut roll = rng.random_range(0u32..100);
                    // Re-route rolls for unsupported families into puts.
                    if !cfg.caps.rmw && (55..75).contains(&roll) {
                        roll = 0;
                    }
                    if !cfg.caps.pia && (75..80).contains(&roll) {
                        roll = 0;
                    }
                    if !cfg.caps.atomic_batch && (80..86).contains(&roll) {
                        roll = 0;
                    }
                    if !cfg.caps.snapshots && roll >= 86 {
                        roll = 30;
                    }
                    match roll {
                        // 30% puts, 5% deletes, 20% gets.
                        0..30 => {
                            let _ = recorder.put(&key, &tag('p'));
                        }
                        30..35 => {
                            let _ = recorder.delete(&key);
                        }
                        35..55 => {
                            let _ = recorder.get(&key);
                        }
                        // 20% RMW: append-style update with an
                        // occasional delete or abort decision.
                        55..75 => {
                            let value = tag('r');
                            let choice = rng.random_range(0u32..10);
                            let _ = recorder.read_modify_write(&key, &mut |_prev| match choice {
                                0 => RmwDecision::Delete,
                                1 => RmwDecision::Abort,
                                _ => RmwDecision::Update(value.clone()),
                            });
                        }
                        // 5% put-if-absent.
                        75..80 => {
                            let _ = recorder.put_if_absent(&key, &tag('a'));
                        }
                        // 6% atomic batches over 2-4 distinct keys.
                        80..86 => {
                            let mut batch = WriteBatch::new();
                            let mut used: Vec<Vec<u8>> = Vec::new();
                            let n = rng.random_range(2usize..=4);
                            for j in 0..n {
                                let k = keys.next_key(&mut rng);
                                if used.contains(&k) {
                                    continue;
                                }
                                used.push(k.clone());
                                match (!rng.random_bool(0.15))
                                    .then(|| format!("b{t}-{seq}-{j}").into_bytes())
                                {
                                    Some(v) => batch.put(k, v),
                                    None => batch.delete(k),
                                };
                            }
                            let _ = recorder.write(batch, &WriteOptions::new());
                        }
                        // 8% snapshot sessions: a couple of point reads
                        // plus one scan through the same snapshot.
                        86..94 => {
                            if let Ok(snap) = recorder.snapshot() {
                                for _ in 0..2 {
                                    let k = keys.next_key(&mut rng);
                                    let _ = recorder.snapshot_get(&snap, &k);
                                }
                                let _ = recorder.snapshot_scan(
                                    &snap,
                                    random_range(&mut rng, &mut keys),
                                    rng.random_range(4usize..40),
                                );
                            }
                        }
                        // 6% store-level scans (implicit snapshots).
                        _ => {
                            let _ = recorder.scan(
                                random_range(&mut rng, &mut keys),
                                rng.random_range(4usize..40),
                            );
                        }
                    }
                }
            })
        })
        .collect();

    for w in workers {
        w.join().expect("worker panicked");
    }
    stop.store(true, Ordering::Release);
    if let Some(c) = chaos_thread {
        c.join().expect("chaos thread panicked");
    }
    session.take_events()
}

/// A random scan range: usually bounded by two generated keys, with
/// unbounded and exclusive edges mixed in.
fn random_range(rng: &mut StdRng, keys: &mut KeyGen) -> ScanRange {
    use std::ops::Bound;
    let a = keys.next_key(rng);
    let b = keys.next_key(rng);
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    let start = match rng.random_range(0u32..4) {
        0 => Bound::Unbounded,
        1 => Bound::Excluded(lo),
        _ => Bound::Included(lo),
    };
    let end = match rng.random_range(0u32..4) {
        0 => Bound::Unbounded,
        1 => Bound::Included(hi),
        _ => Bound::Excluded(hi),
    };
    ScanRange { start, end }
}

/// All keys a schedule with `key_space` keys can touch (for post-crash
/// audits).
pub fn schedule_keys(key_space: u64) -> Vec<Vec<u8>> {
    (0..key_space)
        .map(|i| clsm_workloads::keygen::format_key(i, 16))
        .collect()
}
