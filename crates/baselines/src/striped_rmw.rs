//! The §5.1 read-modify-write baseline: lock striping over a
//! LevelDB-style store.
//!
//! "To establish a comparison baseline, we augment LevelDB with a
//! textbook RMW implementation based on lock striping. The algorithm
//! protects each RMW and write operation with an exclusive granular
//! lock to the accessed key. The basic read and write implementations
//! remain the same." (§5.1, citing Gray & Reuter.)

use std::path::Path;

use parking_lot::Mutex;

use clsm::Options;
use clsm_kv::{KvSnapshot, KvStore, RmwDecision, RmwResult, ScanRange, WriteBatch, WriteOptions};
use clsm_util::bloom::hash_seeded;
use clsm_util::error::Result;

use crate::leveldb_like::LevelDbLike;

/// Number of stripes (a power of two).
const STRIPES: usize = 64;

/// A LevelDB-style store with lock-striped RMW.
pub struct StripedRmw {
    db: LevelDbLike,
    stripes: Vec<Mutex<()>>,
}

impl StripedRmw {
    /// Opens (or creates) a store at `path`.
    pub fn open(path: &Path, opts: Options) -> Result<StripedRmw> {
        Ok(StripedRmw {
            db: LevelDbLike::open(path, opts)?,
            stripes: (0..STRIPES).map(|_| Mutex::new(())).collect(),
        })
    }

    fn stripe(&self, key: &[u8]) -> &Mutex<()> {
        &self.stripes[hash_seeded(key, 0x1357_9bdf) as usize % STRIPES]
    }

    /// Generic striped read-modify-write: lock the key's stripe, read,
    /// compute, write.
    pub fn rmw<F>(&self, key: &[u8], f: F) -> Result<()>
    where
        F: FnOnce(Option<&[u8]>) -> Option<Vec<u8>>,
    {
        let _stripe = self.stripe(key).lock();
        let current = self.db.get(key)?;
        match f(current.as_deref()) {
            Some(new) => self.db.put(key, &new),
            None => Ok(()),
        }
    }
}

impl KvStore for StripedRmw {
    fn write(&self, batch: WriteBatch, opts: &WriteOptions) -> Result<()> {
        // Each operation takes its key's stripe so writes serialize
        // against RMW on the same key, as the baseline prescribes.
        for (key, value) in batch.iter() {
            let _stripe = self.stripe(key).lock();
            let single = match value {
                Some(v) => WriteBatch::single_put(key, v),
                None => WriteBatch::single_delete(key),
            };
            self.db.write(single, opts)?;
        }
        Ok(())
    }

    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.db.get(key)
    }

    fn snapshot(&self) -> Result<Box<dyn KvSnapshot>> {
        self.db.snapshot()
    }

    fn scan(&self, range: ScanRange, limit: usize) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        self.db.scan(range, limit)
    }

    fn put_if_absent(&self, key: &[u8], value: &[u8]) -> Result<bool> {
        let _stripe = self.stripe(key).lock();
        if self.db.get(key)?.is_some() {
            return Ok(false);
        }
        self.db.put(key, value)?;
        Ok(true)
    }

    fn read_modify_write(
        &self,
        key: &[u8],
        f: &mut dyn FnMut(Option<&[u8]>) -> RmwDecision,
    ) -> Result<RmwResult> {
        // The textbook striped protocol: hold the key's stripe across
        // read, decide, and write.
        let _stripe = self.stripe(key).lock();
        let current = self.db.get(key)?;
        match f(current.as_deref()) {
            RmwDecision::Update(v) => {
                self.db.put(key, &v)?;
                Ok(RmwResult {
                    committed: true,
                    previous: current,
                })
            }
            RmwDecision::Delete => {
                self.db.delete(key)?;
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
        self.db.quiesce()
    }

    fn name(&self) -> &'static str {
        "LevelDB+striping"
    }
}
