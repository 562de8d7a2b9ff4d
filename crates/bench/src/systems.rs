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

/// The cLSM store behind an embedded loopback `clsm-server`, accessed
/// through the pipelined TCP client: every measurement through this
/// system is client-observed over the wire. The
/// [`clsm_net::RemoteStore`] owns the server handle, so the server
/// lives exactly as long as the returned store.
struct ClsmNetSystem;

impl System for ClsmNetSystem {
    fn name(&self) -> &'static str {
        "cLSM-net"
    }

    fn open(&self, dir: &Path, opts: Options) -> Result<Arc<dyn KvStore>> {
        let db: Arc<dyn KvStore> = Arc::new(Db::open(dir, opts)?);
        let net = clsm_net::NetOptions::builder()
            .addr("127.0.0.1:0")
            .workers(2)
            .build()?;
        Ok(Arc::new(clsm_net::RemoteStore::with_embedded_server(
            db, &net,
        )?))
    }
}

/// The registry entry for the networked system.
pub static CLSM_NET: &dyn System = &ClsmNetSystem;
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

/// Every registered system, including ones outside the standard
/// comparison sets.
pub fn registry() -> &'static [&'static dyn System] {
    static ALL: [&dyn System; 7] = [
        &RocksSystem,
        &BlsmSystem,
        &LevelDbSystem,
        &HyperSystem,
        &ClsmSystem,
        &ClsmNetSystem,
        &StripedSystem,
    ];
    &ALL
}

/// Looks a system up by its display name (case-insensitive).
pub fn system_by_name(name: &str) -> Option<&'static dyn System> {
    registry()
        .iter()
        .copied()
        .find(|s| s.name().eq_ignore_ascii_case(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_system_opens_and_serves() {
        for sys in registry() {
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

    #[test]
    fn lookup_by_name_is_case_insensitive() {
        assert_eq!(system_by_name("clsm").unwrap().name(), "cLSM");
        assert_eq!(system_by_name("clsm-net").unwrap().name(), "cLSM-net");
        assert_eq!(system_by_name("LEVELDB").unwrap().name(), "LevelDB");
        assert!(system_by_name("nonexistent").is_none());
    }
}
