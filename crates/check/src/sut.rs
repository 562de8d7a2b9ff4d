//! Systems under test: factories the checker binary and CI matrix use.
//!
//! Every system opens in a test-sized configuration (small memtables,
//! so schedules cross memtable rotations and compactions).

use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use clsm::{Db, Options};
use clsm_baselines::{BlsmLike, HyperLike, LevelDbLike, Partitioned, RocksLike, StripedRmw};
use clsm_kv::KvStore;
use clsm_util::env::{Env, FaultEnv};
use clsm_util::error::{Error, Result};

use crate::driver::SutCaps;

/// An opened system plus its capabilities and optional chaos hook.
pub struct Sut {
    /// The store, behind the uniform trait.
    pub store: Arc<dyn KvStore>,
    /// What op families the schedule may include.
    pub caps: SutCaps,
    /// Internals-poking hook the driver runs on a side thread.
    pub chaos: Option<Arc<dyn Fn() + Send + Sync>>,
}

/// Every system name [`open_sut`] accepts.
pub const SYSTEMS: &[&str] = &[
    "clsm",
    "clsm-net",
    "leveldb",
    "rocksdb",
    "blsm",
    "hyper",
    "striped",
    "partitioned-4",
];

/// Systems that support crash-reopen checking (the fault-injecting
/// [`FaultEnv`] plumbs through their `Options`): cLSM and every baseline
/// store, which share its WAL, flush and recovery.
pub const CRASH_SYSTEMS: &[&str] = &[
    "clsm",
    "leveldb",
    "rocksdb",
    "hyper",
    "blsm",
    "striped",
    "partitioned-4",
];

/// Opens `name` at `dir`.
pub fn open_sut(name: &str, dir: &Path) -> Result<Sut> {
    open_sut_with(name, dir, None, false)
}

/// Opens `name` at `dir`, optionally routing I/O through `env` and
/// forcing synchronous logging (the crash matrix needs both).
pub fn open_sut_with(name: &str, dir: &Path, env: Option<Arc<dyn Env>>, sync: bool) -> Result<Sut> {
    let mut opts = Options::small_for_tests();
    if let Some(env) = env {
        opts.store.env = env;
    }
    opts.sync_writes = sync;

    if name == "clsm" {
        let db = Arc::new(Db::open(dir, opts)?);
        let chaos_db = Arc::clone(&db);
        let tick = std::sync::atomic::AtomicU64::new(0);
        return Ok(Sut {
            store: db,
            caps: SutCaps::full(),
            chaos: Some(Arc::new(move || {
                match tick.fetch_add(1, std::sync::atomic::Ordering::Relaxed) % 3 {
                    0 => chaos_db.inject_exclusive_hold(Duration::from_micros(100)),
                    1 => {
                        let _ = chaos_db.compact_range(b"", &[0xff; 17]);
                    }
                    _ => {}
                }
            })),
        });
    }
    if name == "clsm-net" {
        // The cLSM store behind an embedded loopback server, checked
        // through the pipelined TCP client: the histories the driver
        // records are client-observed over the wire, so the checker
        // audits the whole protocol/dispatch stack, not
        // just the store. The RemoteStore owns the server handle —
        // dropping the store shuts the server down. RMW needs a
        // closure and cannot cross the wire; everything else can.
        let db: Arc<dyn KvStore> = Arc::new(Db::open(dir, opts)?);
        let net = clsm_net::NetOptions::builder()
            .addr("127.0.0.1:0")
            .workers(2)
            .connections(4)
            .build()?;
        let remote = clsm_net::RemoteStore::with_embedded_server(db, &net)?;
        return Ok(Sut {
            store: Arc::new(remote),
            caps: SutCaps {
                rmw: false,
                ..SutCaps::full()
            },
            chaos: None,
        });
    }
    // Baselines: their capability gaps are part of what the suite
    // documents, in clean and crash mode alike.
    let base_caps = SutCaps {
        rmw: true,
        pia: true,
        atomic_batch: false, // baselines apply batches as a plain loop
        snapshots: true,
    };
    match name {
        "leveldb" => Ok(Sut {
            store: Arc::new(LevelDbLike::open(dir, opts)?),
            caps: base_caps,
            chaos: None,
        }),
        "rocksdb" => Ok(Sut {
            store: Arc::new(RocksLike::open(dir, opts)?),
            caps: base_caps,
            chaos: None,
        }),
        "blsm" => Ok(Sut {
            store: Arc::new(BlsmLike::open(dir, opts)?),
            caps: base_caps,
            chaos: None,
        }),
        // HyperLevelDB's put_if_absent is racy by design (the check
        // runs outside the critical section) and it has no RMW; the
        // schedule must not treat either as atomic.
        "hyper" => Ok(Sut {
            store: Arc::new(HyperLike::open(dir, opts)?),
            caps: SutCaps {
                rmw: false,
                pia: false,
                ..base_caps
            },
            chaos: None,
        }),
        "striped" => Ok(Sut {
            store: Arc::new(StripedRmw::open(dir, opts)?),
            caps: base_caps,
            chaos: None,
        }),
        // Independent partitions: single-key ops are as atomic as the
        // children, but snapshots do not span partitions (§2.2), so
        // snapshot traffic is excluded.
        "partitioned-4" => {
            let boundaries: Vec<Vec<u8>> = [0x40u8, 0x80, 0xc0].iter().map(|b| vec![*b]).collect();
            let parts = (0..4)
                .map(|i| LevelDbLike::open(&dir.join(format!("part-{i}")), opts.clone()))
                .collect::<Result<Vec<_>>>()?;
            Ok(Sut {
                store: Arc::new(Partitioned::new(parts, boundaries)),
                caps: SutCaps {
                    snapshots: false,
                    ..base_caps
                },
                chaos: None,
            })
        }
        other => Err(Error::invalid_argument(format!(
            "unknown system {other:?}; known: {SYSTEMS:?}"
        ))),
    }
}

/// A crash-checkable system: the store, the fault env driving it, and
/// a way to reopen after power loss.
pub struct CrashSut {
    /// The live store (drop every `Arc` before calling `power_loss`).
    pub store: Arc<dyn KvStore>,
    /// What op families the schedule may include.
    pub caps: SutCaps,
    /// The shared fault environment.
    pub env: Arc<FaultEnv>,
}

impl CrashSut {
    /// Opens `name` with a fresh seeded [`FaultEnv`] and synchronous
    /// logging (so every acknowledged write must survive the crash).
    pub fn open(name: &str, dir: &Path, seed: u64) -> Result<CrashSut> {
        if !CRASH_SYSTEMS.contains(&name) {
            return Err(Error::invalid_argument(format!(
                "system {name:?} does not support crash checking; known: {CRASH_SYSTEMS:?}"
            )));
        }
        let env = Arc::new(FaultEnv::new(seed));
        let sut = open_sut_with(name, dir, Some(env.clone() as Arc<dyn Env>), true)?;
        Ok(CrashSut {
            store: sut.store,
            caps: sut.caps,
            env,
        })
    }
}
