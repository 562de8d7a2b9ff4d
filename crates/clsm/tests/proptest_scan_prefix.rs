//! Property: while a writer applies an arbitrary sequence of puts and
//! deletes to a `Db`, every concurrent snapshot scan equals the
//! state produced by *some prefix* of the applied-write log — scans
//! are serializable (§3.2), never torn across the write order.
//!
//! The admissible prefix window for one scan is bracketed by the
//! applied-op counter read around snapshot acquisition:
//!
//! - lower bound `lo`: ops completed before `snapshot()` was invoked
//!   have published their stamps, and with a single writer no earlier
//!   stamp is still pending, so the snapshot's timestamp covers them
//!   all — they must be visible;
//! - upper bound `hi + 1`: ops that start after `snapshot()` returns
//!   draw stamps above the snapshot's timestamp and must be invisible;
//!   the one op possibly in flight while the snapshot was stamped may
//!   land on either side.
//!
//! Visibility is a timestamp cut and the writer stamps in op order, so
//! the visible set is prefix-closed: the scan must equal exactly one
//! of those prefixes, byte for byte.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use clsm::{Db, Options};
use proptest::prelude::*;

/// Materializes the state after applying the first `p` ops. Put values
/// are the op's index, so distinct prefixes rarely collide.
fn apply_prefix(ops: &[(Vec<u8>, bool)], p: usize) -> BTreeMap<Vec<u8>, Vec<u8>> {
    let mut m = BTreeMap::new();
    for (i, (key, is_put)) in ops[..p].iter().enumerate() {
        if *is_put {
            m.insert(key.clone(), (i as u32).to_le_bytes().to_vec());
        } else {
            m.remove(key);
        }
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn concurrent_scans_observe_a_prefix_of_the_write_log(
        // (key, is_put) over a tiny alphabet so keys collide often and
        // deletes actually kill live versions.
        ops in prop::collection::vec(
            (prop::collection::vec(0u8..4, 1..4), any::<bool>()),
            20..120,
        ),
    ) {
        let stamp = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos();
        let dir = std::env::temp_dir().join(format!(
            "clsm-prop-prefix-{}-{stamp}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();

        let db = Arc::new(Db::open(&dir, Options::small_for_tests()).unwrap());
        let applied = Arc::new(AtomicUsize::new(0));
        let total = ops.len();

        let writer = {
            let db = Arc::clone(&db);
            let applied = Arc::clone(&applied);
            let ops = ops.clone();
            std::thread::spawn(move || {
                for (i, (key, is_put)) in ops.iter().enumerate() {
                    if *is_put {
                        db.put(key, &(i as u32).to_le_bytes()).unwrap();
                    } else {
                        db.delete(key).unwrap();
                    }
                    applied.store(i + 1, Ordering::Release);
                }
            })
        };

        // Scan as fast as possible while the writer runs, then once
        // more after it finishes — that last round has lo == total, so
        // it demands the complete final state.
        let mut done = false;
        while !done {
            let lo = applied.load(Ordering::Acquire);
            done = lo == total;
            let snap = db.snapshot().unwrap();
            let hi = (applied.load(Ordering::Acquire) + 1).min(total);
            let scan = snap.scan(.., usize::MAX).unwrap();
            let matched = (lo..=hi).any(|p| {
                apply_prefix(&ops, p).into_iter().collect::<Vec<_>>() == scan
            });
            prop_assert!(
                matched,
                "scan of {} pairs matches no prefix in {lo}..={hi} of {total} ops",
                scan.len()
            );
        }
        writer.join().unwrap();

        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
