//! Atomic write batches — re-exported from [`clsm_kv`].
//!
//! The batch type used to live here as a cLSM-only builder; it now
//! lives in the `clsm-kv` crate so the [`KvStore`](crate::KvStore)
//! trait, the baselines, and cLSM all share one mutation vocabulary.
//! Apply a batch with [`Db::write`](crate::Db::write):
//!
//! ```
//! use clsm::{Db, Options, WriteBatch, WriteOptions};
//!
//! let dir = std::env::temp_dir().join(format!("clsm-batch-doc-{}", std::process::id()));
//! let db = Db::open(&dir, Options::small_for_tests()).unwrap();
//! let mut batch = WriteBatch::new();
//! batch.put(b"a".as_slice(), b"1".as_slice());
//! batch.put(b"b".as_slice(), b"2".as_slice());
//! batch.delete(b"c".as_slice());
//! db.write(batch, &WriteOptions::new()).unwrap();
//! assert_eq!(db.get(b"a").unwrap(), Some(b"1".to_vec()));
//! drop(db);
//! std::fs::remove_dir_all(&dir).unwrap();
//! ```

pub use clsm_kv::{WriteBatch, WriteOptions};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Db, Options};

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "clsm-batch-{tag}-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ))
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let dir = tmpdir("empty");
        let db = Db::open(&dir, Options::small_for_tests()).unwrap();
        db.write(WriteBatch::new(), &WriteOptions::new()).unwrap();
        assert_eq!(db.metrics().counters["db.puts"], 0);
        drop(db);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
