//! Write-path tests: the guarantees `Db::write` provides under
//! concurrency — no lost updates under contention, batch atomicity
//! against snapshots, and per-call durability options.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use clsm::{Db, Options, RmwDecision, WriteBatch, WriteOptions};

struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(name: &str) -> TempDir {
        let p = std::env::temp_dir().join(format!(
            "clsm-write-{}-{}-{}",
            std::process::id(),
            name,
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::create_dir_all(&p).unwrap();
        TempDir(p)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn open(dir: &std::path::Path) -> Db {
    Db::open(dir, Options::small_for_tests()).unwrap()
}

/// Nine threads hammer the store at once: six RMW incrementers share
/// one contended counter key while three writers alternate single puts
/// and multi-op batches. Every RMW increment must survive (a put's
/// restamp-on-conflict must not step over Algorithm 3's conflict
/// check), and every write must be readable afterwards.
#[test]
fn contended_key_hammer_loses_no_updates() {
    let dir = TempDir::new("hammer");
    let db = Arc::new(open(&dir.0));
    let rmw_threads = 6u64;
    let increments = 400u64;
    let writer_threads = 3u64;
    let writes = 300u64;

    let mut handles = Vec::new();
    for _ in 0..rmw_threads {
        let db = Arc::clone(&db);
        handles.push(std::thread::spawn(move || {
            for _ in 0..increments {
                let r = db
                    .read_modify_write(b"ctr", |cur| {
                        let n = cur.map_or(0u64, |v| u64::from_le_bytes(v.try_into().unwrap()));
                        RmwDecision::Update((n + 1).to_le_bytes().to_vec())
                    })
                    .unwrap();
                assert!(r.committed);
            }
        }));
    }
    for t in 0..writer_threads {
        let db = Arc::clone(&db);
        handles.push(std::thread::spawn(move || {
            for i in 0..writes {
                // Alternate single puts (shared lock) and multi-op
                // batches (exclusive lock) so both lock modes run
                // against the RMW threads.
                let key = format!("w{t}-{i:05}");
                if i % 2 == 0 {
                    db.write(
                        WriteBatch::single_put(key.as_bytes(), key.as_bytes()),
                        &WriteOptions::new(),
                    )
                    .unwrap();
                } else {
                    let mut batch = WriteBatch::new();
                    batch.put(key.as_bytes(), key.as_bytes());
                    batch.put(format!("{key}-b").into_bytes(), key.as_bytes());
                    db.write(batch, &WriteOptions::new()).unwrap();
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }

    let got = db.get(b"ctr").unwrap().unwrap();
    assert_eq!(
        u64::from_le_bytes(got.try_into().unwrap()),
        rmw_threads * increments,
        "lost RMW updates on the contended key"
    );
    for t in 0..writer_threads {
        for i in 0..writes {
            let key = format!("w{t}-{i:05}");
            assert_eq!(
                db.get(key.as_bytes()).unwrap(),
                Some(key.clone().into_bytes()),
                "write {key} lost"
            );
            if i % 2 == 1 {
                assert_eq!(
                    db.get(format!("{key}-b").as_bytes()).unwrap(),
                    Some(key.into_bytes())
                );
            }
        }
    }
}

/// Multi-op batches commit under the exclusive lock with one timestamp
/// block, so a snapshot taken at any moment sees either all of a
/// batch's entries or none of them — even while another writer keeps
/// single puts flowing under the shared lock.
#[test]
fn batches_are_atomic_under_concurrent_snapshots() {
    let dir = TempDir::new("atomic");
    let db = Arc::new(open(&dir.0));
    db.write(
        WriteBatch::from(
            &[
                (b"a".to_vec(), Some(0u64.to_le_bytes().to_vec())),
                (b"b".to_vec(), Some(0u64.to_le_bytes().to_vec())),
            ][..],
        ),
        &WriteOptions::new(),
    )
    .unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    // Two snapshot readers assert the a == b invariant continuously.
    for _ in 0..2 {
        let db = Arc::clone(&db);
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let snap = db.snapshot().unwrap();
                let a = snap.get(b"a").unwrap().unwrap();
                let b = snap.get(b"b").unwrap().unwrap();
                assert_eq!(a, b, "snapshot observed a torn batch");
            }
        }));
    }
    // A noise writer keeps unrelated single puts contending for the
    // lock the batches take exclusively.
    {
        let db = Arc::clone(&db);
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                db.put(format!("noise-{i}").as_bytes(), b"x").unwrap();
                i += 1;
            }
        }));
    }
    for i in 1..=500u64 {
        let v = i.to_le_bytes().to_vec();
        db.write(
            WriteBatch::from(&[(b"a".to_vec(), Some(v.clone())), (b"b".to_vec(), Some(v))][..]),
            &WriteOptions::new(),
        )
        .unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(db.get(b"a").unwrap(), Some(500u64.to_le_bytes().to_vec()));
}
