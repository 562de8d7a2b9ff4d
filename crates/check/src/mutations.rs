//! Deliberately broken store wrappers: the checker's mutation tests.
//!
//! A checker that never fails is indistinguishable from one that
//! checks nothing. Each wrapper here re-introduces a classic bug on
//! top of a correct store, and the test suite asserts the checker
//! *catches* it — with a minimized counterexample — while the
//! unmodified store keeps passing the same seeds.
//!
//! | mutation        | bug re-introduced                                | caught by                  |
//! |-----------------|--------------------------------------------------|----------------------------|
//! | `non-atomic-rmw`| RMW as unlocked get-then-put (no conflict check) | lin: lost update           |
//! | `lost-write`    | every 8th put acked but dropped                  | lin: stale read            |
//! | `stale-snapshot`| snapshots pinned to the first one ever taken     | snapcheck: stale-read      |
//! | `torn-batch`    | batches applied entry-by-entry, non-atomically   | snapcheck: torn-batch      |

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use clsm_kv::{KvSnapshot, KvStore, RmwDecision, RmwResult, ScanRange, WriteBatch, WriteOptions};
use clsm_util::error::Result;
use parking_lot::Mutex;

/// Mutation names [`mutate`] accepts.
pub(crate) const MUTATIONS: &[&str] = &[
    "non-atomic-rmw",
    "lost-write",
    "stale-snapshot",
    "torn-batch",
];

/// Wraps `store` with the named bug.
pub fn mutate(name: &str, store: Arc<dyn KvStore>) -> Result<Arc<dyn KvStore>> {
    match name {
        "non-atomic-rmw" => Ok(Arc::new(Mutated {
            inner: store,
            bug: Bug::NonAtomicRmw,
            counter: AtomicU64::new(0),
            pinned: Mutex::new(None),
        })),
        "lost-write" => Ok(Arc::new(Mutated {
            inner: store,
            bug: Bug::LostWrite,
            counter: AtomicU64::new(0),
            pinned: Mutex::new(None),
        })),
        "stale-snapshot" => Ok(Arc::new(Mutated {
            inner: store,
            bug: Bug::StaleSnapshot,
            counter: AtomicU64::new(0),
            pinned: Mutex::new(None),
        })),
        "torn-batch" => Ok(Arc::new(Mutated {
            inner: store,
            bug: Bug::TornBatch,
            counter: AtomicU64::new(0),
            pinned: Mutex::new(None),
        })),
        other => Err(clsm_util::error::Error::invalid_argument(format!(
            "unknown mutation {other:?}; known: {MUTATIONS:?}"
        ))),
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Bug {
    NonAtomicRmw,
    LostWrite,
    StaleSnapshot,
    TornBatch,
}

/// One wrapper type for all mutations: every path forwards to the
/// inner store except the one the selected bug corrupts.
struct Mutated {
    inner: Arc<dyn KvStore>,
    bug: Bug,
    /// `lost-write`: counts puts to drop every 8th.
    counter: AtomicU64,
    /// `stale-snapshot`: the first snapshot ever taken, pinned.
    pinned: Mutex<Option<Arc<Box<dyn KvSnapshot>>>>,
}

/// Shares one pinned snapshot across many handles.
struct SharedSnapshot(Arc<Box<dyn KvSnapshot>>);

impl KvSnapshot for SharedSnapshot {
    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.0.get(key)
    }

    fn scan(&self, range: ScanRange, limit: usize) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        self.0.scan(range, limit)
    }
}

impl KvStore for Mutated {
    fn write(&self, batch: WriteBatch, opts: &WriteOptions) -> Result<()> {
        // `lost-write`: single puts acked but dropped every 8th time.
        if self.bug == Bug::LostWrite
            && batch.len() == 1
            && batch.ops()[0].1.is_some()
            && self
                .counter
                .fetch_add(1, Ordering::Relaxed)
                .is_multiple_of(8)
        {
            // Acked, never applied.
            return Ok(());
        }
        // `torn-batch`: entry by entry, with a widened window in
        // between so a concurrent snapshot reliably lands mid-batch.
        if self.bug == Bug::TornBatch && batch.len() > 1 {
            let mut entries = batch.into_iter().peekable();
            while let Some((key, value)) = entries.next() {
                let single = match value {
                    Some(v) => WriteBatch::single_put(&key, &v),
                    None => WriteBatch::single_delete(&key),
                };
                self.inner.write(single, opts)?;
                if entries.peek().is_some() {
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
            }
            return Ok(());
        }
        self.inner.write(batch, opts)
    }

    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.inner.get(key)
    }

    fn snapshot(&self) -> Result<Box<dyn KvSnapshot>> {
        if self.bug != Bug::StaleSnapshot {
            return self.inner.snapshot();
        }
        let mut pinned = self.pinned.lock();
        let snap = match &*pinned {
            Some(snap) => Arc::clone(snap),
            None => {
                let first = Arc::new(self.inner.snapshot()?);
                *pinned = Some(Arc::clone(&first));
                first
            }
        };
        Ok(Box::new(SharedSnapshot(snap)))
    }

    fn scan(&self, range: ScanRange, limit: usize) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        if self.bug == Bug::StaleSnapshot {
            return self.snapshot()?.scan(range, limit);
        }
        self.inner.scan(range, limit)
    }

    fn put_if_absent(&self, key: &[u8], value: &[u8]) -> Result<bool> {
        self.inner.put_if_absent(key, value)
    }

    fn read_modify_write(
        &self,
        key: &[u8],
        f: &mut dyn FnMut(Option<&[u8]>) -> RmwDecision,
    ) -> Result<RmwResult> {
        if self.bug != Bug::NonAtomicRmw {
            return self.inner.read_modify_write(key, f);
        }
        // Algorithm 3 without the conflict re-check: unlocked read,
        // decide, write, with a widened race window.
        let current = self.inner.get(key)?;
        for _ in 0..32 {
            std::thread::yield_now();
        }
        match f(current.as_deref()) {
            RmwDecision::Update(v) => {
                self.inner.put(key, &v)?;
                Ok(RmwResult {
                    committed: true,
                    previous: current,
                })
            }
            RmwDecision::Delete => {
                self.inner.delete(key)?;
                Ok(RmwResult {
                    committed: true,
                    previous: current,
                })
            }
            RmwDecision::Abort => Ok(RmwResult {
                committed: false,
                previous: current,
            }),
        }
    }

    fn quiesce(&self) -> Result<()> {
        self.inner.quiesce()
    }

    fn name(&self) -> &'static str {
        match self.bug {
            Bug::NonAtomicRmw => "mutated:non-atomic-rmw",
            Bug::LostWrite => "mutated:lost-write",
            Bug::StaleSnapshot => "mutated:stale-snapshot",
            Bug::TornBatch => "mutated:torn-batch",
        }
    }
}
