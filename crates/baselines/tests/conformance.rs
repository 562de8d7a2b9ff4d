//! Conformance tests: every baseline must implement the same observable
//! KV semantics as cLSM, since the benchmarks attribute differences
//! purely to concurrency control.

use std::ops::Bound;
use std::sync::Arc;

use clsm::Options;
use clsm_baselines::{
    BlsmLike, HyperLike, KvStore, LevelDbLike, Partitioned, RocksLike, ScanRange, StripedRmw,
};
use clsm_kv::{WriteBatch, WriteOptions};

struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(name: &str) -> TempDir {
        let p = std::env::temp_dir().join(format!(
            "baseline-{}-{}-{}",
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

/// The shared semantic checklist.
fn exercise(store: &dyn KvStore) {
    // CRUD.
    assert_eq!(store.get(b"k").unwrap(), None);
    store.put(b"k", b"v1").unwrap();
    assert_eq!(store.get(b"k").unwrap(), Some(b"v1".to_vec()));
    store.put(b"k", b"v2").unwrap();
    assert_eq!(store.get(b"k").unwrap(), Some(b"v2".to_vec()));
    store.delete(b"k").unwrap();
    assert_eq!(store.get(b"k").unwrap(), None);

    // put_if_absent.
    assert!(store.put_if_absent(b"pia", b"one").unwrap());
    assert!(!store.put_if_absent(b"pia", b"two").unwrap());
    assert_eq!(store.get(b"pia").unwrap(), Some(b"one".to_vec()));

    // Bulk data through flushes.
    for i in 0..1500u32 {
        store
            .put(
                format!("bulk{i:06}").as_bytes(),
                format!("val{i}").as_bytes(),
            )
            .unwrap();
    }
    store.quiesce().unwrap();
    for i in (0..1500u32).step_by(137) {
        assert_eq!(
            store.get(format!("bulk{i:06}").as_bytes()).unwrap(),
            Some(format!("val{i}").into_bytes()),
            "{} bulk{i}",
            store.name()
        );
    }

    // Scans: ordered, bounded, and live-only.
    store.delete(b"bulk000100").unwrap();
    let got = store
        .scan(ScanRange::from_start(&b"bulk000098"[..]), 5)
        .unwrap();
    let keys: Vec<&[u8]> = got.iter().map(|(k, _)| k.as_slice()).collect();
    assert_eq!(
        keys,
        vec![
            &b"bulk000098"[..],
            b"bulk000099",
            b"bulk000101", // 100 deleted
            b"bulk000102",
            b"bulk000103",
        ],
        "{}",
        store.name()
    );

    // End-bounded ranges: a half-open range stops before its end key
    // even when the limit allows more, and an inclusive end includes it.
    let half_open = store
        .scan((b"bulk000098".to_vec()..b"bulk000102".to_vec()).into(), 100)
        .unwrap();
    let keys: Vec<&[u8]> = half_open.iter().map(|(k, _)| k.as_slice()).collect();
    assert_eq!(
        keys,
        vec![&b"bulk000098"[..], b"bulk000099", b"bulk000101"],
        "{}: half-open range",
        store.name()
    );
    let inclusive = store
        .scan(
            (b"bulk000098".to_vec()..=b"bulk000102".to_vec()).into(),
            100,
        )
        .unwrap();
    assert_eq!(
        inclusive.last().map(|(k, _)| k.as_slice()),
        Some(&b"bulk000102"[..]),
        "{}: inclusive range end",
        store.name()
    );

    // ScanRange edge cases. An inverted range (start past end) selects
    // nothing — it must return empty, not wrap or panic.
    let inverted = store
        .scan((b"bulk000200".to_vec()..b"bulk000100".to_vec()).into(), 100)
        .unwrap();
    assert!(
        inverted.is_empty(),
        "{}: inverted range returned {} entries",
        store.name(),
        inverted.len()
    );
    // `Excluded(k) .. Included(k)` pinches to the empty set: the start
    // normalizes to successor(k) (the PR 4 `start_key` rule), which
    // lies strictly past the only key the end would admit.
    let pinched = store
        .scan(
            ScanRange {
                start: Bound::Excluded(b"bulk000102".to_vec()),
                end: Bound::Included(b"bulk000102".to_vec()),
            },
            100,
        )
        .unwrap();
    assert!(
        pinched.is_empty(),
        "{}: Excluded(k)..=k must be empty",
        store.name()
    );
    // An excluded start skips its own key but nothing else.
    let excluded_start = store
        .scan(
            ScanRange {
                start: Bound::Excluded(b"bulk000098".to_vec()),
                end: Bound::Unbounded,
            },
            2,
        )
        .unwrap();
    let keys: Vec<&[u8]> = excluded_start.iter().map(|(k, _)| k.as_slice()).collect();
    assert_eq!(
        keys,
        vec![&b"bulk000099"[..], b"bulk000101"], // 100 deleted above
        "{}: excluded start",
        store.name()
    );
    // The unbounded-start mirror of `from_start`: an end-bounded range
    // beginning at the smallest key in the store.
    let head = store.scan((..=b"bulk000001".to_vec()).into(), 100).unwrap();
    let keys: Vec<&[u8]> = head.iter().map(|(k, _)| k.as_slice()).collect();
    assert_eq!(
        keys,
        vec![&b"bulk000000"[..], b"bulk000001"],
        "{}: unbounded start",
        store.name()
    );
    // A zero limit is a valid request for nothing.
    assert!(
        store.scan(ScanRange::all(), 0).unwrap().is_empty(),
        "{}: zero limit",
        store.name()
    );

    // Batched writes: puts and deletes land; atomicity is only
    // guaranteed by systems that override the default (cLSM).
    store
        .write(
            WriteBatch::from(
                &[
                    (b"batch-a".to_vec(), Some(b"1".to_vec())),
                    (b"batch-b".to_vec(), Some(b"2".to_vec())),
                    (b"batch-a".to_vec(), None),
                ][..],
            ),
            &WriteOptions::new(),
        )
        .unwrap();
    assert_eq!(store.get(b"batch-a").unwrap(), None, "{}", store.name());
    assert_eq!(
        store.get(b"batch-b").unwrap(),
        Some(b"2".to_vec()),
        "{}",
        store.name()
    );

    // Snapshots: a view taken now must not observe later writes.
    let snap = store.snapshot().unwrap();
    assert_eq!(snap.get(b"bulk000098").unwrap(), Some(b"val98".to_vec()));
    store.put(b"bulk000098", b"overwritten").unwrap();
    store.delete(b"bulk000099").unwrap();
    assert_eq!(
        snap.get(b"bulk000098").unwrap(),
        Some(b"val98".to_vec()),
        "{}: snapshot observed a later overwrite",
        store.name()
    );
    assert_eq!(
        snap.get(b"bulk000099").unwrap(),
        Some(b"val99".to_vec()),
        "{}: snapshot observed a later delete",
        store.name()
    );
    let snap_scan = snap
        .scan(ScanRange::from_start(&b"bulk000098"[..]), 2)
        .unwrap();
    assert_eq!(
        snap_scan,
        vec![
            (b"bulk000098".to_vec(), b"val98".to_vec()),
            (b"bulk000099".to_vec(), b"val99".to_vec()),
        ],
        "{}: snapshot scan not frozen at capture time",
        store.name()
    );
    drop(snap);
    // Restore the pre-snapshot state for the checks below.
    store.put(b"bulk000098", b"val98").unwrap();
    store.put(b"bulk000099", b"val99").unwrap();

    // Stats: the text exposition has a row for every name. Systems
    // without a registry return an empty snapshot.
    let stats = store.stats();
    let text = stats.to_text();
    let names = stats.counters.keys().chain(stats.gauges.keys());
    for name in names.chain(stats.histograms.keys()) {
        let row = text
            .lines()
            .any(|l| l.split_whitespace().next() == Some(name));
        assert!(row, "{}: no {name} row in {text}", store.name());
    }

    // Concurrency smoke: writers + readers.
    std::thread::scope(|scope| {
        for t in 0..3u32 {
            scope.spawn(move || {
                for i in 0..400u32 {
                    let key = format!("conc-{t}-{i:05}");
                    store.put(key.as_bytes(), key.as_bytes()).unwrap();
                    assert_eq!(store.get(key.as_bytes()).unwrap(), Some(key.into_bytes()));
                }
            });
        }
        scope.spawn(move || {
            for i in 0..2000u32 {
                let key = format!("bulk{:06}", (i * 7) % 1500);
                let _ = store.get(key.as_bytes()).unwrap();
            }
        });
    });
    for t in 0..3u32 {
        for i in (0..400u32).step_by(97) {
            let key = format!("conc-{t}-{i:05}");
            assert_eq!(
                store.get(key.as_bytes()).unwrap(),
                Some(key.clone().into_bytes()),
                "{} {key}",
                store.name()
            );
        }
    }
}

#[test]
fn leveldb_like_conforms() {
    let dir = TempDir::new("leveldb");
    let store = LevelDbLike::open(&dir.0, Options::small_for_tests()).unwrap();
    exercise(&store);
}

#[test]
fn hyper_like_conforms() {
    let dir = TempDir::new("hyper");
    let store = HyperLike::open(&dir.0, Options::small_for_tests()).unwrap();
    exercise(&store);
}

#[test]
fn rocks_like_conforms() {
    let dir = TempDir::new("rocks");
    let mut opts = Options::small_for_tests();
    opts.compaction_threads = 2; // the §5.3 configuration
    let store = RocksLike::open(&dir.0, opts).unwrap();
    exercise(&store);
}

#[test]
fn blsm_like_conforms() {
    let dir = TempDir::new("blsm");
    let store = BlsmLike::open(&dir.0, Options::small_for_tests()).unwrap();
    exercise(&store);
}

#[test]
fn striped_rmw_conforms() {
    let dir = TempDir::new("striped");
    let store = StripedRmw::open(&dir.0, Options::small_for_tests()).unwrap();
    exercise(&store);
}

#[test]
fn clsm_conforms_to_the_same_contract() {
    let dir = TempDir::new("clsm");
    let store = clsm::Db::open(&dir.0, Options::small_for_tests()).unwrap();
    exercise(&store);
}

#[test]
fn partitioned_composition_conforms() {
    // The full checklist against the Figure-1 partitioned composition;
    // boundaries split the bulk range itself so stitched scans cross a
    // partition edge mid-family.
    let dirs: Vec<TempDir> = (0..4).map(|i| TempDir::new(&format!("pconf{i}"))).collect();
    let parts: Vec<LevelDbLike> = dirs
        .iter()
        .map(|d| LevelDbLike::open(&d.0, Options::small_for_tests()).unwrap())
        .collect();
    let store = Partitioned::new(
        parts,
        vec![b"bulk000500".to_vec(), b"conc-1".to_vec(), b"k".to_vec()],
    );
    exercise(&store);
}

#[test]
fn striped_rmw_increments_are_atomic() {
    let dir = TempDir::new("striped-inc");
    let store = Arc::new(StripedRmw::open(&dir.0, Options::small_for_tests()).unwrap());
    let threads = 4u64;
    let per = 400u64;
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let store = Arc::clone(&store);
            scope.spawn(move || {
                for _ in 0..per {
                    store
                        .rmw(b"ctr", |cur| {
                            let n = cur.map_or(0u64, |v| u64::from_le_bytes(v.try_into().unwrap()));
                            Some((n + 1).to_le_bytes().to_vec())
                        })
                        .unwrap();
                }
            });
        }
    });
    let v = store.get(b"ctr").unwrap().unwrap();
    assert_eq!(u64::from_le_bytes(v.try_into().unwrap()), threads * per);
}

#[test]
fn baselines_survive_reopen() {
    let dir = TempDir::new("reopen");
    {
        let store = LevelDbLike::open(&dir.0, Options::small_for_tests()).unwrap();
        store.put(b"persist", b"me").unwrap();
    }
    let store = LevelDbLike::open(&dir.0, Options::small_for_tests()).unwrap();
    assert_eq!(store.get(b"persist").unwrap(), Some(b"me".to_vec()));
}

#[test]
fn partitioned_routes_and_stitches() {
    let dirs: Vec<TempDir> = (0..4).map(|i| TempDir::new(&format!("part{i}"))).collect();
    let parts: Vec<LevelDbLike> = dirs
        .iter()
        .map(|d| LevelDbLike::open(&d.0, Options::small_for_tests()).unwrap())
        .collect();
    let store = Partitioned::new(parts, vec![b"g".to_vec(), b"n".to_vec(), b"t".to_vec()]);
    assert_eq!(store.partition_of(b"apple"), 0);
    assert_eq!(store.partition_of(b"g"), 1);
    assert_eq!(store.partition_of(b"monkey"), 1);
    assert_eq!(store.partition_of(b"night"), 2);
    assert_eq!(store.partition_of(b"zebra"), 3);

    for key in [
        "apple", "grape", "night", "zebra", "fig", "melon", "swan", "yak",
    ] {
        store.put(key.as_bytes(), key.as_bytes()).unwrap();
    }
    for key in [
        "apple", "grape", "night", "zebra", "fig", "melon", "swan", "yak",
    ] {
        assert_eq!(
            store.get(key.as_bytes()).unwrap(),
            Some(key.as_bytes().to_vec())
        );
    }
    // Cross-partition scan stitches all four shards in order.
    let all = store.scan(ScanRange::all(), 100).unwrap();
    let keys: Vec<String> = all
        .iter()
        .map(|(k, _)| String::from_utf8(k.clone()).unwrap())
        .collect();
    assert_eq!(
        keys,
        vec!["apple", "fig", "grape", "melon", "night", "swan", "yak", "zebra"]
    );
    // Bounded cross-partition scan.
    let some = store.scan(ScanRange::from_start(&b"f"[..]), 3).unwrap();
    assert_eq!(some.len(), 3);
    assert_eq!(some[0].0, b"fig");
}

#[test]
fn partitioned_clsm_composition_conforms() {
    // Figure 1 also needs cLSM to compose under partitioning (the
    // paper argues AGAINST it, but the mechanism must still work).
    let dirs: Vec<TempDir> = (0..2).map(|i| TempDir::new(&format!("pclsm{i}"))).collect();
    let parts: Vec<clsm::Db> = dirs
        .iter()
        .map(|d| clsm::Db::open(&d.0, Options::small_for_tests()).unwrap())
        .collect();
    let store = Partitioned::new(parts, vec![b"m".to_vec()]);
    for key in ["alpha", "zulu", "mike", "lima"] {
        store.put(key.as_bytes(), key.as_bytes()).unwrap();
    }
    assert_eq!(store.get(b"alpha").unwrap(), Some(b"alpha".to_vec()));
    assert_eq!(store.get(b"zulu").unwrap(), Some(b"zulu".to_vec()));
    let all: Vec<String> = store
        .scan(ScanRange::all(), 10)
        .unwrap()
        .into_iter()
        .map(|(k, _)| String::from_utf8(k).unwrap())
        .collect();
    assert_eq!(all, vec!["alpha", "lima", "mike", "zulu"]);
    assert!(!store.put_if_absent(b"alpha", b"x").unwrap());
    store.quiesce().unwrap();
}
