//! The registry of systems under test.
//!
//! Each evaluated system is a [`System`] trait object pairing a display
//! name with the recipe for opening an instance; benchmarks iterate
//! over `&'static dyn System` slices instead of matching on an enum, so
//! adding a system means adding one impl and one registry entry —
//! no central dispatch to edit.

use std::path::Path;
use std::sync::Arc;

use clsm::{Db, Options};
use clsm_baselines::{BlsmLike, HyperLike, KvStore, LevelDbLike, RocksLike, StripedRmw};
use clsm_util::error::Result;

/// One system under test: a stable display name plus an opener.
pub trait System: Send + Sync {
    /// Display name used in tables (matches the paper's legends).
    fn name(&self) -> &'static str;

    /// Opens an instance at `dir` with shared options.
    fn open(&self, dir: &Path, opts: Options) -> Result<Arc<dyn KvStore>>;
}

macro_rules! declare_system {
    ($ty:ident, $static_name:ident, $label:literal, $store:ty) => {
        struct $ty;

        impl System for $ty {
            fn name(&self) -> &'static str {
                $label
            }

            fn open(&self, dir: &Path, opts: Options) -> Result<Arc<dyn KvStore>> {
                Ok(Arc::new(<$store>::open(dir, opts)?))
            }
        }

        /// The registry entry for this system.
        pub static $static_name: &dyn System = &$ty;
    };
}

declare_system!(ClsmSystem, CLSM, "cLSM", Db);
declare_system!(LevelDbSystem, LEVELDB, "LevelDB", LevelDbLike);
declare_system!(HyperSystem, HYPER, "HyperLevelDB", HyperLike);
declare_system!(RocksSystem, ROCKS, "rocksDB", RocksLike);
declare_system!(BlsmSystem, BLSM, "bLSM", BlsmLike);
declare_system!(StripedSystem, STRIPED, "LevelDB+striping", StripedRmw);

/// The standard five-way comparison set (Figures 5–7).
pub fn all_systems() -> &'static [&'static dyn System] {
    static ALL: [&dyn System; 5] = [
        &RocksSystem,
        &BlsmSystem,
        &LevelDbSystem,
        &HyperSystem,
        &ClsmSystem,
    ];
    &ALL
}

/// The four-way set used where bLSM is excluded (scans, production).
pub fn no_blsm_systems() -> &'static [&'static dyn System] {
    static SET: [&dyn System; 4] = [&RocksSystem, &LevelDbSystem, &HyperSystem, &ClsmSystem];
    &SET
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_system_opens_and_serves() {
        for sys in [CLSM, LEVELDB, HYPER, ROCKS, BLSM, STRIPED] {
            let dir = std::env::temp_dir().join(format!(
                "bench-sys-{}-{}-{}",
                std::process::id(),
                std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .unwrap()
                    .as_nanos(),
                sys.name()
                    .replace(|c: char| !c.is_ascii_alphanumeric(), "_")
            ));
            std::fs::create_dir_all(&dir).unwrap();
            let store = sys.open(&dir, Options::small_for_tests()).unwrap();
            store.put(b"k", b"v").unwrap();
            assert_eq!(store.get(b"k").unwrap(), Some(b"v".to_vec()));
            drop(store);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}
