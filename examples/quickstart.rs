//! Quickstart: open a cLSM database, write, read, scan, and RMW.
//!
//! Run with: `cargo run --example quickstart`

use clsm_repro::clsm::{Db, Options, RmwDecision};

fn main() -> clsm_repro::clsm::Result<()> {
    let dir = std::env::temp_dir().join(format!("clsm-quickstart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Open (or create) a database. `Options::default()` matches the
    // paper's setup (128 MiB memtable, asynchronous logging, one
    // background compaction thread).
    let db = Db::open(&dir, Options::default())?;

    // Basic puts and gets — atomic, and gets never block.
    db.put(b"user:1:name", b"Ada")?;
    db.put(b"user:2:name", b"Grace")?;
    db.put(b"user:1:email", b"ada@example.com")?;
    println!(
        "user:1:name = {:?}",
        String::from_utf8(db.get(b"user:1:name")?.unwrap())
    );

    // Deletes store the paper's ⊥ marker.
    db.delete(b"user:2:name")?;
    assert_eq!(db.get(b"user:2:name")?, None);

    // Consistent snapshot scans: the snapshot is a frozen point in
    // time, immune to concurrent writes.
    let snapshot = db.snapshot()?;
    db.put(b"user:3:name", b"Edsger")?; // not visible to `snapshot`
    println!("snapshot contents:");
    for item in snapshot.iter()? {
        let (k, v) = item?;
        println!(
            "  {} = {}",
            String::from_utf8_lossy(&k),
            String::from_utf8_lossy(&v)
        );
    }
    assert_eq!(snapshot.get(b"user:3:name")?, None);
    assert!(db.get(b"user:3:name")?.is_some());

    // Range queries over a snapshot.
    let user1: Vec<_> = snapshot
        .range(b"user:1:", Some(b"user:2:"))?
        .collect::<Result<Vec<_>, _>>()?;
    println!("user:1 has {} attributes", user1.len());

    // Non-blocking atomic read-modify-write (Algorithm 3): an atomic
    // counter that never loses increments under concurrency.
    for _ in 0..10 {
        db.read_modify_write(b"page:views", |current| {
            let n = current.map_or(0u64, |v| u64::from_le_bytes(v.try_into().unwrap()));
            RmwDecision::Update((n + 1).to_le_bytes().to_vec())
        })?;
    }
    let views = u64::from_le_bytes(db.get(b"page:views")?.unwrap().try_into().unwrap());
    println!("page views: {views}");
    assert_eq!(views, 10);

    // Put-if-absent (the paper's RMW benchmark flavor).
    assert!(db.put_if_absent(b"config:theme", b"dark")?);
    assert!(!db.put_if_absent(b"config:theme", b"light")?);

    println!("counters: {:?}", db.metrics().counters);
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
    println!("quickstart OK");
    Ok(())
}
