//! Atomic read-modify-write operations (Algorithm 3).
//!
//! cLSM provides "fully-general non-blocking atomic read-modify-write"
//! over the lock-free skip list: the caller's function sees the current
//! value and decides the new one; optimistic conflict detection in the
//! list retries the operation when a concurrent write to the same key
//! slips in between the read and the insert.

use std::time::Instant;

use clsm_util::error::{Error, Result};

use lsm_storage::wal::SyncMode;

use crate::db::Db;

/// What a read-modify-write function wants done with the key.
///
/// Re-exported from [`clsm_kv`] — the type lives in the interface
/// crate so [`clsm_kv::KvStore::read_modify_write`] can be exercised
/// black-box against every evaluated system.
pub use clsm_kv::{RmwDecision, RmwResult};

impl Db {
    /// Atomically applies `f` to the current value of `key`
    /// (Algorithm 3).
    ///
    /// `f` may run several times (once per conflict retry); it must be
    /// a pure function of its input. Each retry re-reads the key, so
    /// the paper's lock-free progress guarantee holds: a retry implies
    /// some other writer made progress.
    ///
    /// # Examples
    ///
    /// ```
    /// use clsm::{Db, Options, RmwDecision};
    ///
    /// let dir = std::env::temp_dir().join(format!("clsm-rmw-doc-{}", std::process::id()));
    /// let db = Db::open(&dir, Options::small_for_tests()).unwrap();
    /// // An atomic counter increment:
    /// db.read_modify_write(b"ctr", |cur| {
    ///     let n = cur.map_or(0u64, |v| u64::from_le_bytes(v.try_into().unwrap()));
    ///     RmwDecision::Update((n + 1).to_le_bytes().to_vec())
    /// })
    /// .unwrap();
    /// assert_eq!(db.get(b"ctr").unwrap(), Some(1u64.to_le_bytes().to_vec()));
    /// drop(db);
    /// std::fs::remove_dir_all(&dir).unwrap();
    /// ```
    pub fn read_modify_write<F>(&self, key: &[u8], mut f: F) -> Result<RmwResult>
    where
        F: FnMut(Option<&[u8]>) -> RmwDecision,
    {
        let inner = &self.inner;
        if key.is_empty() {
            return Err(Error::invalid_argument("empty keys are not supported"));
        }
        let began = Instant::now();
        // The new value is known only once `f` has run, under the lock:
        // admission charges the key now and the value at commit.
        inner.admit_write(key.len() as u64)?;

        // Algorithm 3 line 2/16: the whole operation runs under the
        // shared lock, so the component pointers cannot swing between
        // the read (line 4) and the insert (line 12).
        let _shared = inner.lock.lock_shared();
        loop {
            let (latest, in_mutable) =
                inner
                    .components
                    .lookup(&inner.store, key, lsm_storage::format::MAX_TS)?;
            let current = latest.as_ref().and_then(|(_, v)| v.as_deref());

            let decision = f(current);
            let value: Option<&[u8]> = match &decision {
                RmwDecision::Update(v) => Some(v.as_slice()),
                RmwDecision::Delete => None,
                RmwDecision::Abort => {
                    return Ok(RmwResult {
                        committed: false,
                        previous: current.map(<[u8]>::to_vec),
                    });
                }
            };

            // The conflict check compares against the latest version
            // *in the mutable memtable*: versions living in `P'm`/`Cd`
            // cannot change (those components are immutable), so for
            // them the expectation is "no version in `Pm` yet".
            let expected = if in_mutable {
                latest.as_ref().map(|(ts, _)| *ts)
            } else {
                None
            };

            // Algorithm 3 line 9: the timestamp is acquired after
            // locating the read point.
            let stamp = inner.oracle.get_ts();
            let pm = inner.components.pm();
            match pm.insert_if_latest(key, stamp.ts, value, expected) {
                Ok(()) => {
                    let logged = inner
                        .store
                        .log_writes([(stamp.ts, key, value)], SyncMode::Async);
                    // Publish even when the log append failed: an
                    // unpublished stamp would wedge snapshot creation.
                    inner.oracle.publish(stamp);
                    drop(_shared);
                    logged?;
                    if inner.opts.sync_writes {
                        inner.store.sync_wal()?;
                    }
                    inner.metrics.rmw_latency.record_duration(began.elapsed());
                    inner.charge_committed(value.map_or(0, <[u8]>::len) as u64);
                    inner.maybe_schedule_flush();
                    return Ok(RmwResult {
                        committed: true,
                        previous: current.map(<[u8]>::to_vec),
                    });
                }
                Err(_conflict) => {
                    // Algorithm 3 line 13: roll the timestamp back and
                    // retry with a fresh read.
                    inner.oracle.publish(stamp);
                    inner.metrics.rmw_conflicts.inc();
                }
            }
        }
    }

    /// Stores `value` only if `key` has no live value (the "put-if-
    /// absent flavor" benchmarked in §5.1). Returns `true` if stored.
    pub fn put_if_absent(&self, key: &[u8], value: &[u8]) -> Result<bool> {
        let r = self.read_modify_write(key, |current| match current {
            Some(_) => RmwDecision::Abort,
            None => RmwDecision::Update(value.to_vec()),
        })?;
        Ok(r.committed)
    }
}
