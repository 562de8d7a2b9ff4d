//! Write admission charges only for work that is behind: a write is
//! delayed while a flush or L0 is behind, never because the memtable is
//! filling toward a flush that has not started.

use std::path::Path;
use std::sync::Arc;

use clsm_repro::clsm::{Db, Options};
use clsm_repro::util::env::FaultEnv;

#[test]
fn a_filling_memtable_with_no_flush_behind_is_never_delayed() {
    let mut opts = Options {
        memtable_bytes: 4 << 20,
        ..Options::default()
    };
    opts.store.env = Arc::new(FaultEnv::new(0xf10c));
    let db = Db::open(Path::new("/flow-control"), opts).unwrap();

    // 499 puts of 16 B + 8 176 B = 3.9 MiB from one writer: the
    // memtable ends 97 % full and no flush ever starts.
    let value = vec![0x5au8; 8176];
    for i in 0..499u32 {
        db.put(format!("fill.{i:011}").as_bytes(), &value).unwrap();
    }
    assert!(
        db.memtable_bytes() < 4 << 20,
        "the memtable filled ({} bytes): the premise needs it short of a flush",
        db.memtable_bytes()
    );
    assert_eq!(db.stats().flushes, 0);

    let counters = db.metrics().counters;
    let counter = |name: &str| counters.get(name).copied().unwrap_or(0);
    assert_eq!(
        counter("admission.delayed_writes"),
        0,
        "{} ns of admission sleep charged toward a flush that had not started",
        counter("admission.delay_ns")
    );
    assert_eq!(counter("admission.hard_stalls"), 0);
}
