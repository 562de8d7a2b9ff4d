//! Range-sharded composition of cLSM stores sharing one timestamp
//! oracle — partitioned throughput *with* cross-shard consistent scans.
//!
//! Figure 1 of the paper shows that splitting a store into independent
//! partitions buys throughput but costs consistency: "the data store's
//! consistent snapshot scans do not span multiple partitions" (§2.2).
//! That limitation is not fundamental — it is an artifact of each
//! partition running its own clock. cLSM derives snapshot consistency
//! entirely from Algorithm 2's oracle (`timeCounter`, the `Active`
//! set, `snapTime`), so N shards that share **one** oracle hand out
//! globally ordered write timestamps, and a single `getSnap` timestamp
//! is a serializable cut across *every* shard at once.
//!
//! [`ShardedDb`] composes N full [`Db`] instances (each with its own
//! directory, WAL, memtables, levels, and background workers) behind
//! one shared [`TimestampOracle`] and [`SnapshotRegistry`]:
//!
//! - **Point operations** route by range ([`partition_of`]) and run at
//!   full per-shard concurrency — the Figure 1 throughput win.
//! - **Cross-shard batches** ([`ShardedDb::write`]) take *one*
//!   write timestamp for every entry. While that stamp sits in the
//!   shared `Active` set, no snapshot can be granted a time at or
//!   above it, so scanners observe either the whole batch or none of
//!   it — never one shard's half.
//! - **Snapshots** ([`ShardedDb::snapshot`]) publish one `getSnap`
//!   timestamp that is simultaneously valid on every shard; scans
//!   stitch per-shard iterators in range order into one serializable
//!   cross-shard view.
//!
//! # Locking protocol (deadlock freedom)
//!
//! Both multi-shard operations acquire per-shard locks in **ascending
//! shard order** and do only non-blocking work while holding them:
//!
//! - `write` (cross-shard case): lock touched shards (exclusive,
//!   ascending — see [`ShardedDb::write`] for why exclusive) → `getTS`
//!   (one stamp) → log + insert on each shard → `publish` → unlock.
//!   A batch whose keys all land on one shard instead delegates to
//!   that shard's [`Db::write`].
//! - `snapshot`: lock all shards (shared, ascending) →
//!   [`TimestampOracle::get_snap_publish`] (non-blocking half) →
//!   register → unlock → [`TimestampOracle::wait_snap_visible`].
//!
//! Waiting for in-flight writers happens strictly *after* the locks
//! are released; a flush's exclusive acquisition on one shard never
//! waits, directly or transitively, on a thread that is waiting for
//! that same flush. Combined with the ascending acquisition order this
//! rules out cycles. Registering the snapshot *before* waiting is
//! GC-safe: the registry only ever protects more versions than needed.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use clsm_kv::{WriteBatch, WriteOptions};
use clsm_util::env::Env;
use clsm_util::error::{Error, Result};
use clsm_util::metrics::{MetricsRegistry, MetricsSnapshot};
use clsm_util::oracle::{SnapshotRegistry, TimestampOracle};
use clsm_util::trace::now_ns;

use lsm_storage::format::WriteRecord;
use lsm_storage::store::{Recovered, RecoveryReport};
use lsm_storage::wal::SyncMode;
use lsm_storage::Store;

use crate::db::Db;
use crate::doctor::DoctorReport;
use crate::options::Options;
use crate::snapshot::{bounds_to_keys, Snapshot, SnapshotIter};
use crate::stats::StatsSnapshot;

/// Name of the shard-layout manifest inside a sharded directory.
const MANIFEST: &str = "SHARDS";
/// First line of the manifest (format version guard).
const MANIFEST_HEADER: &str = "clsm-sharded-manifest v1";

/// Index of the shard owning `key`, given the exclusive upper
/// boundaries of all shards but the last (`boundaries` sorted strictly
/// ascending). Shard `i` owns `[boundaries[i-1], boundaries[i])`, with
/// the first shard unbounded below and the last unbounded above.
pub fn partition_of(boundaries: &[Vec<u8>], key: &[u8]) -> usize {
    boundaries.partition_point(|b| b.as_slice() <= key)
}

/// Evenly spaced single-byte boundaries for `shards` ranges: shard `i`
/// gets first bytes `[256*i/N, 256*(i+1)/N)`.
fn default_boundaries(shards: usize) -> Vec<Vec<u8>> {
    (1..shards)
        .map(|i| vec![(256 * i / shards) as u8])
        .collect()
}

fn shard_dir(root: &Path, index: usize) -> PathBuf {
    root.join(format!("shard-{index:03}"))
}

fn hex_encode(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn hex_decode(s: &str) -> Result<Vec<u8>> {
    if !s.len().is_multiple_of(2) || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err(Error::corruption(format!("bad hex key in manifest: {s:?}")));
    }
    Ok((0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("checked hex"))
        .collect())
}

/// Persists the shard layout (count + boundaries) so reopening uses
/// the same ranges regardless of the options passed later. Durable
/// write + atomic rename + directory sync: a crash leaves either the
/// old manifest or the new one, never a torn mixture.
fn write_manifest(env: &dyn Env, root: &Path, boundaries: &[Vec<u8>]) -> Result<()> {
    let mut text = String::new();
    text.push_str(MANIFEST_HEADER);
    text.push('\n');
    text.push_str(&format!("shards {}\n", boundaries.len() + 1));
    for b in boundaries {
        text.push_str(&format!("boundary {}\n", hex_encode(b)));
    }
    let tmp = root.join(format!("{MANIFEST}.tmp"));
    env.write(&tmp, text.as_bytes())?;
    env.rename(&tmp, &root.join(MANIFEST))?;
    env.sync_dir(root)?;
    Ok(())
}

/// Reads the persisted shard layout, or `None` when the directory has
/// no manifest (fresh directory, or a plain `Db` directory).
fn read_manifest(env: &dyn Env, root: &Path) -> Result<Option<Vec<Vec<u8>>>> {
    let path = root.join(MANIFEST);
    let text = match env.read(&path) {
        Ok(bytes) => String::from_utf8(bytes).map_err(|_| {
            Error::corruption(format!("shard manifest {} is not UTF-8", path.display()))
        })?,
        Err(e) if e.is_not_found() => return Ok(None),
        Err(e) => return Err(e),
    };
    let mut lines = text.lines();
    if lines.next() != Some(MANIFEST_HEADER) {
        return Err(Error::corruption(format!(
            "unrecognized shard manifest header in {}",
            path.display()
        )));
    }
    let shards: usize = lines
        .next()
        .and_then(|l| l.strip_prefix("shards "))
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| Error::corruption("shard manifest missing `shards N` line"))?;
    let mut boundaries = Vec::with_capacity(shards.saturating_sub(1));
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let hex = line
            .strip_prefix("boundary ")
            .ok_or_else(|| Error::corruption(format!("unexpected manifest line: {line:?}")))?;
        boundaries.push(hex_decode(hex)?);
    }
    if boundaries.len() + 1 != shards || !boundaries.windows(2).all(|w| w[0] < w[1]) {
        return Err(Error::corruption(
            "shard manifest boundaries inconsistent with shard count",
        ));
    }
    Ok(Some(boundaries))
}

/// A range-sharded cLSM: N full [`Db`] instances sharing one timestamp
/// oracle, with serializable cross-shard snapshots.
///
/// Cheap operations (`put`/`get`/`delete`) touch exactly one shard;
/// [`ShardedDb::snapshot`] and [`ShardedDb::write`] coordinate
/// through the shared oracle as described in the [module docs]
/// (crate::sharded).
///
/// # Examples
///
/// ```
/// use clsm::{Options, ShardedDb};
///
/// let dir = std::env::temp_dir().join(format!("clsm-sharded-doc-{}", std::process::id()));
/// let mut opts = Options::small_for_tests();
/// opts.shards = 4;
/// let db = ShardedDb::open(&dir, opts).unwrap();
/// db.put(b"apple", b"1").unwrap();
/// db.put(b"zebra", b"2").unwrap();
/// let snap = db.snapshot().unwrap();
/// db.put(b"apple", b"3").unwrap();
/// // The snapshot is one consistent cut across all shards.
/// assert_eq!(snap.get(b"apple").unwrap(), Some(b"1".to_vec()));
/// assert_eq!(snap.get(b"zebra").unwrap(), Some(b"2".to_vec()));
/// drop((snap, db));
/// std::fs::remove_dir_all(&dir).unwrap();
/// ```
pub struct ShardedDb {
    shards: Vec<Db>,
    /// Exclusive upper bound of shard `i`, for `i < shards.len() - 1`.
    boundaries: Vec<Vec<u8>>,
    oracle: Arc<TimestampOracle>,
    snapshots: Arc<SnapshotRegistry>,
    /// Timestamps of cross-shard batches found torn (and dropped) by
    /// the recovery audit, ascending.
    torn_batches: Vec<u64>,
}

impl ShardedDb {
    /// Opens (or creates) a sharded database rooted at `path`.
    ///
    /// A fresh directory is split into [`Options::shards`] ranges with
    /// evenly spaced single-byte boundaries and the layout is persisted
    /// in a `SHARDS` manifest. On reopen the manifest is authoritative:
    /// the store comes back with the ranges it was created with, and
    /// `opts.shards` is ignored.
    pub fn open(path: &Path, opts: impl Into<Options>) -> Result<ShardedDb> {
        let opts: Options = opts.into();
        opts.validate()?;
        let env = Arc::clone(&opts.store.env);
        env.create_dir_all(path)?;
        let boundaries = match read_manifest(env.as_ref(), path)? {
            Some(b) => b,
            None => {
                let b = default_boundaries(opts.shards);
                write_manifest(env.as_ref(), path, &b)?;
                b
            }
        };
        Self::open_inner(path, opts, boundaries)
    }

    /// Opens (or creates) a sharded database with explicit range
    /// boundaries (strictly ascending; `boundaries.len() + 1` shards).
    /// Reopening a directory whose persisted layout differs is an
    /// error.
    pub fn open_with_boundaries(
        path: &Path,
        opts: impl Into<Options>,
        boundaries: Vec<Vec<u8>>,
    ) -> Result<ShardedDb> {
        let opts: Options = opts.into();
        opts.validate()?;
        if !boundaries.windows(2).all(|w| w[0] < w[1]) {
            return Err(Error::invalid_argument(
                "shard boundaries must be strictly ascending",
            ));
        }
        if boundaries.len() + 1 > 256 {
            return Err(Error::invalid_argument("at most 256 shards"));
        }
        let env = Arc::clone(&opts.store.env);
        env.create_dir_all(path)?;
        match read_manifest(env.as_ref(), path)? {
            Some(existing) if existing != boundaries => {
                return Err(Error::invalid_argument(
                    "existing shard layout differs from the requested boundaries",
                ));
            }
            Some(_) => {}
            None => write_manifest(env.as_ref(), path, &boundaries)?,
        }
        Self::open_inner(path, opts, boundaries)
    }

    fn open_inner(path: &Path, opts: Options, boundaries: Vec<Vec<u8>>) -> Result<ShardedDb> {
        let oracle = Arc::new(TimestampOracle::new(opts.active_slots));
        let snapshots = Arc::new(SnapshotRegistry::new());
        let mut child_opts = opts;
        child_opts.shards = 1;
        let num = boundaries.len() + 1;

        // Open every shard's *store* first, so the batch audit sees
        // the recovered records of all shards before any memtable is
        // filled.
        let mut opened: Vec<(Store, Recovered)> = Vec::with_capacity(num);
        for i in 0..num {
            opened.push(Store::open(&shard_dir(path, i), child_opts.store.clone())?);
        }
        let torn_batches = audit_cross_shard_batches(&mut opened);

        let mut shards = Vec::with_capacity(num);
        for (i, (store, recovered)) in opened.into_iter().enumerate() {
            // Shard 0 is the oracle primary: it registers the
            // `oracle.*` gauges and runs the watchdog's Active-set
            // detector, so shared state is reported exactly once.
            shards.push(Db::from_parts(
                store,
                recovered,
                child_opts.clone(),
                Some((Arc::clone(&oracle), Arc::clone(&snapshots), i == 0)),
            )?);
        }
        Ok(ShardedDb {
            shards,
            boundaries,
            oracle,
            snapshots,
            torn_batches,
        })
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The exclusive upper boundaries (one fewer than the shard count).
    pub fn boundaries(&self) -> &[Vec<u8>] {
        &self.boundaries
    }

    /// Direct access to one shard (diagnostics and shard-pinned
    /// drivers; the shard is a full [`Db`]).
    pub fn shard(&self, i: usize) -> &Db {
        &self.shards[i]
    }

    fn shard_for(&self, key: &[u8]) -> &Db {
        &self.shards[partition_of(&self.boundaries, key)]
    }

    /// Stores `value` under `key` on the owning shard.
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        self.shard_for(key).put(key, value)
    }

    /// Returns the latest value of `key` (non-blocking, single shard).
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.shard_for(key).get(key)
    }

    /// Deletes `key` on the owning shard.
    pub fn delete(&self, key: &[u8]) -> Result<()> {
        self.shard_for(key).delete(key)
    }

    /// Atomically stores `value` if `key` is absent; single shard.
    pub fn put_if_absent(&self, key: &[u8], value: &[u8]) -> Result<bool> {
        self.shard_for(key).put_if_absent(key, value)
    }

    /// Atomically applies `f` to the current value of `key`
    /// (Algorithm 3 on the owning shard).
    ///
    /// A key lives on exactly one shard, so the shard-local optimistic
    /// conflict detection carries the whole guarantee; the shared
    /// oracle stamps the write exactly as it would on a monolithic
    /// [`Db`].
    pub fn read_modify_write<F>(&self, key: &[u8], f: F) -> Result<crate::RmwResult>
    where
        F: FnMut(Option<&[u8]>) -> crate::RmwDecision,
    {
        self.shard_for(key).read_modify_write(key, f)
    }

    /// Applies a [`WriteBatch`] under the given [`WriteOptions`] — the
    /// single mutation entry point, batch-atomic even across shards.
    ///
    /// A batch whose keys all land on one shard (including every
    /// single-op batch) delegates to that shard's [`Db::write`]. Only
    /// genuinely cross-shard batches take the coarse-grained path
    /// below.
    ///
    /// Every cross-shard entry is written at **one** shared timestamp, acquired
    /// while holding the touched shards' locks (**exclusive** mode,
    /// ascending order — batches are the one operation cLSM keeps
    /// coarse-grained, as on [`Db`]) and published only after every
    /// shard's log append and memtable insert landed. A concurrent
    /// [`ShardedDb::snapshot`] therefore sees the whole batch or none
    /// of it: its `getSnap` time is below the batch stamp while the
    /// stamp is active, and at or above it only once all inserts are
    /// visible.
    ///
    /// Exclusive mode also guarantees the batch stamp is the newest
    /// version for every touched key: single-key writers (put, RMW)
    /// hold their shard's lock in shared mode across their whole
    /// stamp→insert window, so by the time the batch holds the lock no
    /// lower stamp destined for a touched shard is still in flight,
    /// and none can be issued until the batch releases. Without that,
    /// a racing RMW could read a pre-batch value, stamp later, and
    /// insert first — shadowing the batch's entry (a lost update).
    ///
    /// Duplicate keys keep the last occurrence (all entries share one
    /// timestamp, so "later wins within the batch" must be resolved
    /// here rather than by version order).
    pub fn write(&self, batch: WriteBatch, opts: &WriteOptions) -> Result<()> {
        opts.validate()?;
        if batch.is_empty() {
            return Ok(());
        }
        if batch.iter().any(|(key, _)| key.is_empty()) {
            // The empty key is reserved for batch-commit markers.
            return Err(Error::invalid_argument("empty keys are not supported"));
        }
        // Single-shard fast path: route to the owning shard.
        // Within-batch duplicates resolve by insertion order there (the
        // shard stamps entries with ascending timestamps), matching the
        // last-occurrence-wins dedup below.
        let first_shard = partition_of(&self.boundaries, &batch.ops()[0].0);
        if batch
            .iter()
            .all(|(key, _)| partition_of(&self.boundaries, key) == first_shard)
        {
            return self.shards[first_shard].write(batch, opts);
        }
        let began = Instant::now();
        // Deduplicate (last occurrence wins) and group by shard. The
        // BTreeMap keys double as the ascending lock-acquisition order.
        let mut last = std::collections::BTreeMap::new();
        for (key, value) in batch.ops() {
            last.insert(key.as_slice(), value);
        }
        type ShardEntries<'a> = Vec<(&'a [u8], &'a Option<Vec<u8>>)>;
        let mut per_shard: std::collections::BTreeMap<usize, ShardEntries> =
            std::collections::BTreeMap::new();
        for (key, value) in last {
            per_shard
                .entry(partition_of(&self.boundaries, key))
                .or_default()
                .push((key, value));
        }

        // Admission checks happen before any lock is held: a stalled
        // shard waits on its flush, which needs that shard's exclusive
        // lock.
        for &s in per_shard.keys() {
            self.shards[s].inner().admit_write();
        }

        // Attribution for the cross-shard path lands on the first
        // touched shard, matching the counter bump below (the merged
        // snapshot sums it all back together anyway).
        let wp = per_shard
            .keys()
            .next()
            .and_then(|&s| self.shards[s].inner().write_path());
        let mut wal_ns = 0u64;
        let mut mem_ns = 0u64;

        // Ascending exclusive locks on every touched shard, then one
        // stamp for the whole batch. Everything under the locks is
        // non-blocking (see the module docs' deadlock argument).
        let guards: Vec<_> = per_shard
            .keys()
            .map(|&s| self.shards[s].inner().lock.lock_exclusive())
            .collect();
        let stamp_start = if wp.is_some() { now_ns() } else { 0 };
        let stamp = self.oracle.get_ts();
        if let Some(wp) = wp {
            wp.rec_stamp(now_ns().saturating_sub(stamp_start));
        }
        let mut result = Ok(());
        let total_entries: u64 = per_shard.values().map(|v| v.len() as u64).sum();
        'apply: for (&s, entries) in &per_shard {
            let inner = self.shards[s].inner();
            if !opts.disable_wal {
                let mut records: Vec<WriteRecord> = entries
                    .iter()
                    .map(|&(key, value)| match value {
                        Some(v) => WriteRecord::put(stamp.ts, key, v.clone()),
                        None => WriteRecord::delete(stamp.ts, key),
                    })
                    .collect();
                // Batch-commit marker: rides in the same (per-shard
                // atomic) WAL payload as the entries, carrying the
                // batch's total entry count. Recovery counts entries
                // at this timestamp across all shards and drops the
                // batch when the count falls short — a shard's WAL
                // tail was lost mid-batch (see
                // [`audit_cross_shard_batches`]).
                records.push(WriteRecord::batch_marker(stamp.ts, total_entries));
                let wal_start = if wp.is_some() { now_ns() } else { 0 };
                let logged = inner.store.log(&records, SyncMode::Async);
                if wp.is_some() {
                    wal_ns += now_ns().saturating_sub(wal_start);
                }
                if let Err(e) = logged {
                    result = Err(e);
                    break 'apply;
                }
            }
            let mem_start = if wp.is_some() { now_ns() } else { 0 };
            let pm = inner.pm.load();
            for &(key, value) in entries {
                pm.insert(key, stamp.ts, value.as_deref());
            }
            if wp.is_some() {
                mem_ns += now_ns().saturating_sub(mem_start);
            }
        }
        if let Some(wp) = wp {
            if !opts.disable_wal {
                wp.rec_wal_enqueue(wal_ns);
            }
            wp.rec_memtable(mem_ns);
        }
        // Publish even on a failed log append — an unpublished stamp
        // would wedge every future snapshot. The failed shard's WAL is
        // poisoned and will surface the error on its own.
        let publish_start = if wp.is_some() { now_ns() } else { 0 };
        self.oracle.publish(stamp);
        if let Some(wp) = wp {
            wp.rec_publish(now_ns().saturating_sub(publish_start));
        }
        drop(guards);
        result?;

        // Two-phase durability: start every touched shard's fsync
        // before waiting on any, so the cross-shard sync costs one
        // (slowest) fsync instead of their sum. Each shard's WAL is a
        // separate logger thread, so the disk work genuinely overlaps.
        let sync_start = if wp.is_some() { now_ns() } else { 0 };
        let mut tickets = Vec::new();
        for &s in per_shard.keys() {
            let inner = self.shards[s].inner();
            if opts.sync || (inner.opts.sync_writes && !opts.disable_wal) {
                tickets.push(inner.store.sync_wal_begin()?);
            }
            inner.maybe_schedule_flush();
        }
        let synced = !tickets.is_empty();
        for ticket in tickets {
            ticket.wait()?;
        }
        if synced {
            if let Some(wp) = wp {
                wp.rec_durable(now_ns().saturating_sub(sync_start));
            }
        }
        // One bump on the first touched shard, matching `Db`'s
        // one-per-batch counter semantics after aggregation.
        if let Some(&s) = per_shard.keys().next() {
            let m = &self.shards[s].inner().metrics;
            m.puts.inc();
            m.write_batch_latency.record_duration(began.elapsed());
            if let Some(wp) = wp {
                wp.rec_total(u64::try_from(began.elapsed().as_nanos()).unwrap_or(u64::MAX));
            }
        }
        Ok(())
    }

    /// Creates one serializable snapshot spanning every shard
    /// (Algorithm 2's `getSnap` against the shared oracle).
    pub fn snapshot(&self) -> Result<ShardedSnapshot> {
        let began = Instant::now();
        let ts = {
            // All shard locks in shared mode close the same race the
            // single-store `getSnap` closes with its one lock: no
            // shard's `beforeMerge` can read the GC watermark between
            // our choosing `ts` and registering it. Only non-blocking
            // oracle work happens under the locks.
            let _guards: Vec<_> = self
                .shards
                .iter()
                .map(|s| s.inner().lock.lock_shared())
                .collect();
            let ts = self.oracle.get_snap_publish();
            self.snapshots.register(ts);
            ts
        };
        // Wait out in-flight writes at or below `ts` with no locks
        // held; `ts` is already registered, so GC cannot outrun us.
        self.oracle.wait_snap_visible(ts);
        let views = self
            .shards
            .iter()
            .map(|s| Snapshot::new_view(Arc::clone(s.inner()), ts))
            .collect();
        let m = &self.shards[0].inner().metrics;
        m.snapshots.inc();
        m.snapshot_latency.record_duration(began.elapsed());
        Ok(ShardedSnapshot {
            views,
            boundaries: self.boundaries.clone(),
            registration: Arc::new(SnapRegistration {
                snapshots: Arc::clone(&self.snapshots),
                ts,
            }),
        })
    }

    /// Scans all live pairs from an implicit fresh snapshot, in key
    /// order across all shards.
    pub fn iter(&self) -> Result<ShardedIter> {
        self.range(..)
    }

    /// Range query over an implicit fresh snapshot, spanning shards.
    pub fn range<R>(&self, range: R) -> Result<ShardedIter>
    where
        R: std::ops::RangeBounds<Vec<u8>>,
    {
        let began = Instant::now();
        let snap = self.snapshot()?;
        let it = snap.into_range_owned(range)?;
        self.shards[0]
            .inner()
            .metrics
            .scan_latency
            .record_duration(began.elapsed());
        Ok(it)
    }

    /// Blocks until every shard is flushed and compacted to
    /// quiescence.
    pub fn compact_to_quiescence(&self) -> Result<()> {
        for shard in &self.shards {
            shard.compact_to_quiescence()?;
        }
        Ok(())
    }

    /// Combined metrics across all shards: counters and gauges summed,
    /// latency histograms merged at bucket level (percentiles are
    /// computed over the union of samples, not averaged summaries).
    /// The `oracle.*` gauges appear exactly once — only the primary
    /// shard registers them.
    pub fn metrics(&self) -> MetricsSnapshot {
        MetricsRegistry::merged_snapshot(
            self.shards
                .iter()
                .map(|s| s.inner().metrics.registry.as_ref()),
        )
    }

    /// Write-path latency attribution across all shards, extracted
    /// from the bucket-merged [`ShardedDb::metrics`] snapshot: stage
    /// histograms are merged at bucket level, so the report reads as
    /// one system-wide write path.
    pub fn write_path_report(&self) -> crate::WritePathReport {
        crate::WritePathReport::from_snapshot(&self.metrics())
    }

    /// Per-shard metric snapshots, labeled `shard-000`, `shard-001`, …
    /// in range order.
    pub fn shard_metrics(&self) -> Vec<(String, MetricsSnapshot)> {
        self.shards
            .iter()
            .enumerate()
            .map(|(i, s)| (format!("shard-{i:03}"), s.metrics()))
            .collect()
    }

    /// Operation counters summed across shards.
    pub fn stats(&self) -> StatsSnapshot {
        let mut total = StatsSnapshot {
            puts: 0,
            gets: 0,
            deletes: 0,
            rmw_ops: 0,
            rmw_conflicts: 0,
            snapshots: 0,
            flushes: 0,
            compactions: 0,
            write_stalls: 0,
        };
        for s in &self.shards {
            let st = s.stats();
            total.puts += st.puts;
            total.gets += st.gets;
            total.deletes += st.deletes;
            total.rmw_ops += st.rmw_ops;
            total.rmw_conflicts += st.rmw_conflicts;
            total.snapshots += st.snapshots;
            total.flushes += st.flushes;
            total.compactions += st.compactions;
            total.write_stalls += st.write_stalls;
        }
        total
    }

    /// Write-amplification counters summed across shards.
    pub fn write_amp(&self) -> lsm_storage::store::WriteAmp {
        let mut total = lsm_storage::store::WriteAmp::default();
        for s in &self.shards {
            let wa = s.write_amp();
            total.flushed += wa.flushed;
            total.compacted += wa.compacted;
        }
        total
    }

    /// Force-releases snapshot handles older than `ttl` (the shared
    /// registry, so one call covers every shard).
    pub fn expire_snapshots(&self, ttl: std::time::Duration) -> usize {
        self.snapshots.expire_older_than(ttl)
    }

    /// Timestamps of cross-shard batches the recovery audit found torn
    /// (some shards' entries lost to a crash) and dropped to preserve
    /// batch atomicity. Empty after a clean shutdown.
    pub fn torn_batches(&self) -> &[u64] {
        &self.torn_batches
    }

    /// Per-shard recovery reports, in range order (see `clsm-doctor
    /// --crash-audit`).
    pub fn recovery_reports(&self) -> Vec<&RecoveryReport> {
        self.shards.iter().map(Db::recovery_report).collect()
    }

    /// Gathers per-shard [`DoctorReport`]s plus the shared-oracle view.
    pub fn doctor(&self) -> ShardedDoctorReport {
        ShardedDoctorReport {
            boundaries: self.boundaries.clone(),
            time_counter: self.oracle.current_time(),
            snap_time: self.oracle.snap_time(),
            active_writes: self.oracle.active().len(),
            live_snapshots: self.snapshots.len(),
            shards: self.shards.iter().map(Db::doctor).collect(),
        }
    }
}

impl std::fmt::Debug for ShardedDb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedDb")
            .field("shards", &self.shards.len())
            .field("time_counter", &self.oracle.current_time())
            .finish()
    }
}

/// Unregisters the shared snapshot timestamp exactly once, when the
/// last holder (the snapshot handle or any iterator derived from it)
/// goes away.
struct SnapRegistration {
    snapshots: Arc<SnapshotRegistry>,
    ts: u64,
}

impl Drop for SnapRegistration {
    fn drop(&mut self) {
        self.snapshots.unregister(self.ts);
    }
}

/// A serializable read-only view across every shard at one shared
/// timestamp — the capability plain partitioning gives up (§2.2).
pub struct ShardedSnapshot {
    /// Per-shard views at the shared timestamp; they do not own the
    /// registry entry (see [`SnapRegistration`]).
    views: Vec<Snapshot>,
    boundaries: Vec<Vec<u8>>,
    registration: Arc<SnapRegistration>,
}

impl ShardedSnapshot {
    /// The snapshot's shared timestamp.
    pub fn timestamp(&self) -> u64 {
        self.registration.ts
    }

    /// Reads `key` as of this snapshot (single shard).
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.views[partition_of(&self.boundaries, key)].get(key)
    }

    /// Returns up to `limit` live pairs with keys in `range`, in key
    /// order across shards. Accepts any standard range expression or a
    /// [`clsm_kv::ScanRange`].
    pub fn scan<R>(&self, range: R, limit: usize) -> Result<Vec<(Vec<u8>, Vec<u8>)>>
    where
        R: std::ops::RangeBounds<Vec<u8>>,
    {
        let (start, end) = bounds_to_keys(&range);
        let start = start.unwrap_or_default();
        let mut out = Vec::with_capacity(limit.min(1024));
        for view in &self.views[partition_of(&self.boundaries, &start)..] {
            for item in view.range(&start, end.as_deref())? {
                // Check before pushing so `limit = 0` yields nothing.
                if out.len() >= limit {
                    return Ok(out);
                }
                out.push(item?);
            }
            // Shard ranges are disjoint and ascending, so continuing
            // from the same `start` on the next shard keeps order.
        }
        Ok(out)
    }

    /// Consumes the snapshot into a cross-shard range iterator that
    /// keeps the registration alive for its duration.
    pub fn into_range_owned<R>(self, range: R) -> Result<ShardedIter>
    where
        R: std::ops::RangeBounds<Vec<u8>>,
    {
        let (start, end) = bounds_to_keys(&range);
        // Shards own disjoint ascending ranges, so the k-way merge of
        // per-shard iterators degenerates to ordered concatenation:
        // every shard filters to its own keys and the shard order *is*
        // the key order.
        let mut iters = Vec::with_capacity(self.views.len());
        for view in &self.views {
            let it = match &start {
                Some(s) => view.range(s, end.as_deref())?,
                None => match &end {
                    Some(e) => view.range_bounds(..e.clone())?,
                    None => view.iter()?,
                },
            };
            it.status()?;
            iters.push(it);
        }
        Ok(ShardedIter {
            iters,
            idx: 0,
            _views: self.views,
            _registration: self.registration,
        })
    }
}

impl std::fmt::Debug for ShardedSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedSnapshot")
            .field("ts", &self.registration.ts)
            .field("shards", &self.views.len())
            .finish()
    }
}

/// Iterator over a [`ShardedSnapshot`]'s live pairs across all shards,
/// in ascending key order. Inherits [`SnapshotIter`]'s semantics per
/// shard; the concatenation is ordered because shard ranges are
/// disjoint and ascending.
pub struct ShardedIter {
    iters: Vec<SnapshotIter>,
    idx: usize,
    /// Keeps the per-shard components pinned alongside the iterators.
    _views: Vec<Snapshot>,
    /// Keeps the shared timestamp registered (GC-safe) while
    /// iterating.
    _registration: Arc<SnapRegistration>,
}

impl Iterator for ShardedIter {
    type Item = Result<(Vec<u8>, Vec<u8>)>;

    fn next(&mut self) -> Option<Self::Item> {
        while self.idx < self.iters.len() {
            match self.iters[self.idx].next() {
                Some(item) => return Some(item),
                None => self.idx += 1,
            }
        }
        None
    }
}

/// Health snapshot of a [`ShardedDb`]: the shared-oracle view plus one
/// [`DoctorReport`] per shard.
#[derive(Debug, Clone)]
pub struct ShardedDoctorReport {
    /// Exclusive upper boundaries of all shards but the last.
    pub boundaries: Vec<Vec<u8>>,
    /// The shared oracle's `timeCounter`.
    pub time_counter: u64,
    /// The shared oracle's `snapTime`.
    pub snap_time: u64,
    /// In-flight writes in the shared `Active` set.
    pub active_writes: usize,
    /// Live handles in the shared snapshot registry.
    pub live_snapshots: usize,
    /// Per-shard reports, in range order.
    pub shards: Vec<DoctorReport>,
}

impl ShardedDoctorReport {
    /// Renders the combined report: shared-oracle summary first, then
    /// each shard's full [`DoctorReport::render`] under a
    /// `-- shard N --` header.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "== clsm-doctor (sharded) ==");
        let bounds: Vec<String> = self.boundaries.iter().map(|b| hex_encode(b)).collect();
        let _ = writeln!(
            out,
            "shards: {}, boundaries: [{}]",
            self.shards.len(),
            bounds.join(", ")
        );
        let _ = writeln!(
            out,
            "oracle (shared): timeCounter={} snapTime={} activeWrites={} liveSnapshots={}",
            self.time_counter, self.snap_time, self.active_writes, self.live_snapshots
        );
        for (i, report) in self.shards.iter().enumerate() {
            let _ = writeln!(out, "-- shard {i} --");
            out.push_str(&report.render());
        }
        out
    }

    /// `true` when any shard's watchdog flagged anything.
    pub fn unhealthy(&self) -> bool {
        self.shards.iter().any(DoctorReport::unhealthy)
    }
}

/// Audits cross-shard batch-commit markers across every shard's
/// recovered WAL records, dropping the surviving entries of torn
/// batches. Returns the timestamps dropped, ascending.
///
/// A batch is *torn* when a marker promises `total` entries at its
/// timestamp but fewer were recovered across all shards — some shard's
/// WAL tail (entries + marker, one atomic payload) was lost to a
/// crash. Dropping the survivors restores all-or-nothing visibility.
///
/// A marked timestamp at or below the highest *flushed* timestamp of
/// any shard is never dropped: a flush can only contain the batch's
/// entries after the cross-shard `write` finished appending on every shard (the
/// flush's exclusive lock excludes the batch's shared locks), so the
/// count fell short because a participant's WAL was legitimately
/// retired, not because data was lost. The converse corner — one shard
/// flushed its part durably while another shard's un-synced tail
/// vanished — is undetectable from the surviving WALs alone and is the
/// documented residual risk of asynchronous logging (§4: "a handful of
/// writes may be lost"); synchronous mode closes it because acked
/// batches are fsynced on every participant before the write
/// returns.
fn audit_cross_shard_batches(opened: &mut [(Store, Recovered)]) -> Vec<u64> {
    use std::collections::{BTreeMap, BTreeSet};
    let mut expected: BTreeMap<u64, u64> = BTreeMap::new();
    for (_, rec) in opened.iter() {
        for &(ts, total) in &rec.batch_markers {
            let slot = expected.entry(ts).or_insert(0);
            *slot = (*slot).max(total);
        }
    }
    if expected.is_empty() {
        return Vec::new();
    }
    let mut observed: BTreeMap<u64, u64> = BTreeMap::new();
    for (_, rec) in opened.iter() {
        for r in &rec.records {
            if expected.contains_key(&r.ts) {
                *observed.entry(r.ts).or_insert(0) += 1;
            }
        }
    }
    let max_flushed = opened.iter().map(|(_, r)| r.flushed_ts).max().unwrap_or(0);
    let torn: BTreeSet<u64> = expected
        .iter()
        .filter(|&(&ts, &total)| {
            ts > max_flushed && observed.get(&ts).copied().unwrap_or(0) < total
        })
        .map(|(&ts, _)| ts)
        .collect();
    if !torn.is_empty() {
        for (_, rec) in opened.iter_mut() {
            rec.records.retain(|r| !torn.contains(&r.ts));
        }
    }
    torn.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use clsm_util::env::RealEnv;

    #[test]
    fn partition_of_matches_reference() {
        let boundaries = vec![b"c".to_vec(), b"m".to_vec(), b"t".to_vec()];
        assert_eq!(partition_of(&boundaries, b""), 0);
        assert_eq!(partition_of(&boundaries, b"b"), 0);
        assert_eq!(partition_of(&boundaries, b"c"), 1);
        assert_eq!(partition_of(&boundaries, b"cc"), 1);
        assert_eq!(partition_of(&boundaries, b"m"), 2);
        assert_eq!(partition_of(&boundaries, b"t"), 3);
        assert_eq!(partition_of(&boundaries, b"zzz"), 3);
        assert_eq!(partition_of(&[], b"anything"), 0);
    }

    #[test]
    fn default_boundaries_are_even_and_ascending() {
        for shards in [1usize, 2, 3, 4, 8, 16, 256] {
            let b = default_boundaries(shards);
            assert_eq!(b.len(), shards - 1);
            assert!(b.windows(2).all(|w| w[0] < w[1]), "shards={shards}");
        }
        assert_eq!(default_boundaries(2), vec![vec![128u8]]);
        assert_eq!(
            default_boundaries(4),
            vec![vec![64u8], vec![128], vec![192]]
        );
    }

    #[test]
    fn hex_roundtrip_and_rejects_garbage() {
        for key in [&b""[..], b"\x00", b"abc", b"\xff\x00\x7f"] {
            assert_eq!(hex_decode(&hex_encode(key)).unwrap(), key);
        }
        assert!(hex_decode("abc").is_err()); // odd length
        assert!(hex_decode("zz").is_err()); // not hex
    }

    #[test]
    fn manifest_roundtrip_and_corruption() {
        let dir = std::env::temp_dir().join(format!(
            "clsm-manifest-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        assert!(read_manifest(&RealEnv, &dir).unwrap().is_none());
        let boundaries = vec![b"g".to_vec(), b"p".to_vec()];
        write_manifest(&RealEnv, &dir, &boundaries).unwrap();
        assert_eq!(read_manifest(&RealEnv, &dir).unwrap(), Some(boundaries));

        std::fs::write(dir.join(MANIFEST), "not a manifest\n").unwrap();
        assert!(read_manifest(&RealEnv, &dir).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
