//! The three embedded closed-loop workloads. Each of a workload's load
//! threads owns a disjoint share of the keys it writes (index ≡ thread
//! mod threads), so every key has one writer and every read can be
//! bounded by that writer's version counters.

use std::sync::Arc;

use clsm::{Db, RmwDecision};
use clsm_workloads::keygen::{format_key, KeyDistribution, KeyGen};
use clsm_workloads::zipf::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::{self, Sizes, THREADS};
use crate::harness::{LoadThread, OpKind, Recorder, Result, Versions};
use crate::trace::Kind;
use crate::values;

/// Maps a drawn key index to the nearest key `thread` of `threads`
/// owns.
fn own(index: u64, thread: u64, threads: u64) -> u64 {
    index - index % threads + thread
}

fn thread_rng(seed: u64, thread: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ (thread as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// State every embedded load thread carries.
struct Common {
    thread: u64,
    /// Load threads of the workload, this one included.
    threads: u64,
    sizes: Sizes,
    rng: StdRng,
    versions: Arc<Versions>,
}

impl Common {
    fn new(
        seed: u64,
        (thread, threads): (usize, usize),
        sizes: Sizes,
        versions: &Arc<Versions>,
    ) -> Common {
        Common {
            thread: thread as u64,
            threads: threads as u64,
            sizes,
            rng: thread_rng(seed, thread),
            versions: Arc::clone(versions),
        }
    }

    /// A put of the next version of `drawn`'s owned neighbour.
    fn put(&mut self, db: &Db, rec: &mut Recorder, gen_start: u64, drawn: u64) {
        let index = own(drawn, self.thread, self.threads);
        let key = format_key(index, self.sizes.key_len);
        let version = self.versions.begin_write(index);
        let value = values::encode(index, version, self.sizes.value_len);
        let start = rec.now();
        let result = db.put(&key, &value);
        let end = rec.now();
        if result.is_ok() {
            self.versions.ack(index, version);
            rec.wrote(self.sizes.pair_bytes());
        }
        rec.finish(
            OpKind::Put,
            index,
            gen_start,
            &[(Kind::Put, start, end)],
            result.map_err(|e| e.to_string()),
        );
    }

    /// A get of `index`, checked against its writer's counters.
    fn get(&mut self, db: &Db, rec: &mut Recorder, gen_start: u64, index: u64) {
        let key = format_key(index, self.sizes.key_len);
        let lo = self.versions.acked(index);
        let start = rec.now();
        let result = db.get(&key);
        let end = rec.now();
        let verdict = match result {
            Ok(found) => self.versions.check_read(index, lo, found.as_deref()),
            Err(e) => Err(e.to_string()),
        };
        rec.finish(
            OpKind::Get,
            index,
            gen_start,
            &[(Kind::Get, start, end)],
            verdict,
        );
    }
}

// ---------------------------------------------------------------------
// ingest
// ---------------------------------------------------------------------

/// `ingest` load thread: 100 % put, uniform over the keys it owns.
pub struct IngestThread(Common);

impl IngestThread {
    /// The load threads of one run.
    pub fn all(seed: u64, versions: &Arc<Versions>) -> Vec<IngestThread> {
        (0..config::INGEST_THREADS)
            .map(|t| {
                let slot = (t, config::INGEST_THREADS);
                IngestThread(Common::new(seed, slot, config::INGEST, versions))
            })
            .collect()
    }
}

impl LoadThread for IngestThread {
    fn step(&mut self, db: &Db, rec: &mut Recorder) {
        let gen_start = rec.now();
        let drawn = self.0.rng.random_range(0..self.0.sizes.key_space);
        self.0.put(db, rec, gen_start, drawn);
    }
}

// ---------------------------------------------------------------------
// prod-mix
// ---------------------------------------------------------------------

/// `prod-mix` load thread: 93 % get / 7 % put, heavy-tail popularity
/// (paper Fig 10a).
pub struct ProdMixThread {
    common: Common,
    keys: KeyGen,
}

impl ProdMixThread {
    /// The load threads of one run.
    pub fn all(seed: u64, versions: &Arc<Versions>) -> Vec<ProdMixThread> {
        let sizes = config::PROD_MIX;
        (0..THREADS)
            .map(|t| ProdMixThread {
                common: Common::new(seed, (t, THREADS), sizes, versions),
                keys: KeyGen::new(
                    sizes.key_space,
                    sizes.key_len,
                    KeyDistribution::HeavyTail { theta: 0.99 },
                ),
            })
            .collect()
    }
}

impl LoadThread for ProdMixThread {
    fn step(&mut self, db: &Db, rec: &mut Recorder) {
        let gen_start = rec.now();
        let drawn = self.keys.next_index(&mut self.common.rng);
        if self.common.rng.random_range(0..100u32) < 93 {
            self.common.get(db, rec, gen_start, drawn);
        } else {
            self.common.put(db, rec, gen_start, drawn);
        }
    }
}

// ---------------------------------------------------------------------
// scan-rmw
// ---------------------------------------------------------------------

/// Key of RMW counter `counter` (sorts after every data key).
pub fn counter_key(counter: u64) -> Vec<u8> {
    format!("ctr{counter:013}").into_bytes()
}

fn counter_value(bytes: Option<&[u8]>) -> Option<u64> {
    match bytes {
        None => Some(0),
        Some(b) => Some(u64::from_le_bytes(b.try_into().ok()?)),
    }
}

/// `scan-rmw` load thread: 10 % snapshot scan of 10–20 keys from a
/// popular-blocks start (Fig 7b), 45 % RMW increment of one of 1 024
/// zipf-chosen counters (Fig 9), 45 % put.
pub struct ScanRmwThread {
    common: Common,
    scan_starts: KeyGen,
    counters: Zipf,
    /// Per data key, the newest version any of this thread's snapshots
    /// saw: snapshot times never go back, so neither may versions.
    snapshot_floor: Vec<u32>,
    /// Per counter, one more than the newest value this thread read.
    counter_floor: Vec<u64>,
    /// Times the RMW closure ran.
    pub closure_calls: u64,
    /// RMWs that committed, in any phase.
    pub committed: u64,
}

impl ScanRmwThread {
    /// The load threads of one run.
    pub fn all(seed: u64, versions: &Arc<Versions>) -> Vec<ScanRmwThread> {
        let sizes = config::SCAN_RMW;
        (0..THREADS)
            .map(|t| ScanRmwThread {
                common: Common::new(seed, (t, THREADS), sizes, versions),
                scan_starts: KeyGen::new(
                    sizes.key_space,
                    sizes.key_len,
                    KeyDistribution::PopularBlocks {
                        popular_pct: 0.9,
                        popular_space_pct: 0.1,
                        blocks: 64,
                    },
                ),
                counters: Zipf::new(config::RMW_COUNTERS, 0.99),
                snapshot_floor: vec![1; sizes.key_space as usize],
                counter_floor: vec![0; config::RMW_COUNTERS as usize],
                closure_calls: 0,
                committed: 0,
            })
            .collect()
    }

    fn scan(&mut self, db: &Db, rec: &mut Recorder, gen_start: u64) {
        let sizes = self.common.sizes;
        let first = self.scan_starts.next_index(&mut self.common.rng);
        let limit = self.common.rng.random_range(10..=20usize);
        let range = format_key(first, sizes.key_len)..format_key(sizes.key_space, sizes.key_len);
        let start = rec.now();
        let snapshot = db.snapshot();
        let mid = rec.now();
        let rows = snapshot.and_then(|s| s.scan(range, limit));
        let end = rec.now();
        let verdict = rows
            .map_err(|e| e.to_string())
            .and_then(|rows| self.check_scan(first, limit, &rows));
        rec.finish(
            OpKind::Scan,
            first,
            gen_start,
            &[(Kind::Snapshot, start, mid), (Kind::Scan, mid, end)],
            verdict,
        );
    }

    /// Every data key exists, so a scan of `limit` from `first` must
    /// return exactly the next keys in order, each at a version no
    /// older than this thread's earlier snapshots saw.
    fn check_scan(&mut self, first: u64, limit: usize, rows: &[(Vec<u8>, Vec<u8>)]) -> Result<()> {
        let sizes = self.common.sizes;
        let expect = (limit as u64).min(sizes.key_space - first) as usize;
        if rows.len() != expect {
            return Err(format!(
                "scan from {first}: {} rows, expected {expect}",
                rows.len()
            ));
        }
        for (i, (key, value)) in rows.iter().enumerate() {
            let index = first + i as u64;
            if *key != format_key(index, sizes.key_len) {
                return Err(format!("scan from {first}: row {i} is not key {index}"));
            }
            let floor = &mut self.snapshot_floor[index as usize];
            self.common
                .versions
                .check_read(index, u64::from(*floor), Some(value))?;
            let (_, version) = values::decode(value).expect("checked above");
            *floor = version as u32;
        }
        Ok(())
    }

    fn rmw(&mut self, db: &Db, rec: &mut Recorder, gen_start: u64) {
        let counter = self.counters.sample(&mut self.common.rng);
        let key = counter_key(counter);
        let mut calls = 0;
        let start = rec.now();
        let result = db.read_modify_write(&key, |current| {
            calls += 1;
            match counter_value(current) {
                Some(n) => RmwDecision::Update((n + 1).to_le_bytes().to_vec()),
                None => RmwDecision::Abort,
            }
        });
        let end = rec.now();
        self.closure_calls += calls;
        let verdict = match result {
            Err(e) => Err(e.to_string()),
            Ok(r) if !r.committed => Err(format!("counter {counter}: not committed")),
            Ok(r) => match counter_value(r.previous.as_deref()) {
                Some(n) if n >= self.counter_floor[counter as usize] => {
                    self.counter_floor[counter as usize] = n + 1;
                    self.committed += 1;
                    rec.wrote(key.len() as u64 + 8);
                    Ok(())
                }
                other => Err(format!(
                    "counter {counter}: previous {other:?} below {}",
                    self.counter_floor[counter as usize]
                )),
            },
        };
        rec.finish(
            OpKind::Rmw,
            counter,
            gen_start,
            &[(Kind::Rmw, start, end)],
            verdict,
        );
    }
}

impl LoadThread for ScanRmwThread {
    fn step(&mut self, db: &Db, rec: &mut Recorder) {
        let gen_start = rec.now();
        match self.common.rng.random_range(0..100u32) {
            0..=9 => self.scan(db, rec, gen_start),
            10..=54 => self.rmw(db, rec, gen_start),
            _ => {
                let drawn = self.common.rng.random_range(0..self.common.sizes.key_space);
                self.common.put(db, rec, gen_start, drawn);
            }
        }
    }
}

/// Sum of all counters as the store holds them now.
pub fn counter_sum(db: &Db) -> Result<u64> {
    let mut sum = 0;
    for counter in 0..config::RMW_COUNTERS {
        let found = db.get(&counter_key(counter)).map_err(|e| e.to_string())?;
        sum += counter_value(found.as_deref())
            .ok_or_else(|| format!("counter {counter} is not 8 bytes"))?;
    }
    Ok(sum)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ownership_partitions_the_key_space() {
        for index in 0..100 {
            for thread in 0..THREADS as u64 {
                let owned = own(index, thread, THREADS as u64);
                assert_eq!(owned % THREADS as u64, thread);
                assert!(owned.abs_diff(index) < THREADS as u64);
            }
            assert_eq!(own(index, 0, 1), index);
        }
        assert!(counter_key(5) > format_key(u64::MAX / 2, 16));
        assert_eq!(counter_key(5).len(), 16);
    }
}
