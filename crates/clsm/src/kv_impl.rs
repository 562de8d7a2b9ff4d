//! [`KvStore`] implementation for [`Db`], making cLSM a drop-in peer
//! of the baseline systems in the workload driver and benchmarks.

use clsm_kv::{KvSnapshot, KvStore, RmwDecision, RmwResult, ScanRange, WriteBatch, WriteOptions};
use clsm_util::error::Result;
use clsm_util::metrics::MetricsSnapshot;

use crate::db::Db;
use crate::snapshot::Snapshot;

impl KvStore for Db {
    fn write(&self, batch: WriteBatch, opts: &WriteOptions) -> Result<()> {
        Db::write(self, batch, opts)
    }

    fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        Db::put(self, key, value)
    }

    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        Db::get(self, key)
    }

    fn delete(&self, key: &[u8]) -> Result<()> {
        Db::delete(self, key)
    }

    fn snapshot(&self) -> Result<Box<dyn KvSnapshot>> {
        Ok(Box::new(Db::snapshot(self)?))
    }

    fn scan(&self, range: ScanRange, limit: usize) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        Db::snapshot(self)?.scan(range, limit)
    }

    fn put_if_absent(&self, key: &[u8], value: &[u8]) -> Result<bool> {
        Db::put_if_absent(self, key, value)
    }

    fn read_modify_write(
        &self,
        key: &[u8],
        f: &mut dyn FnMut(Option<&[u8]>) -> RmwDecision,
    ) -> Result<RmwResult> {
        Db::read_modify_write(self, key, f)
    }

    fn quiesce(&self) -> Result<()> {
        self.compact_to_quiescence()
    }

    fn name(&self) -> &'static str {
        "cLSM"
    }

    fn stats(&self) -> MetricsSnapshot {
        self.metrics()
    }

    fn write_amp(&self) -> Option<lsm_storage::store::WriteAmp> {
        Some(Db::write_amp(self))
    }
}

impl KvSnapshot for Snapshot {
    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        Snapshot::get(self, key)
    }

    fn scan(&self, range: ScanRange, limit: usize) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        Snapshot::scan(self, range, limit)
    }
}
