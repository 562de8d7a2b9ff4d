//! Ablation — asynchronous vs. synchronous logging.
//!
//! §2.3/§4: asynchronous logging (the default) lets puts complete at
//! memory speed, at the risk of losing a torn tail on a crash;
//! synchronous logging group-commits an fsync per acknowledged write.
//! This ablation measures the write-throughput gap, which is what the
//! paper's "writes occur at memory speed" design choice buys.

use bench::driver::{emit, sweep_threads, Metric};
use bench::report::Table;
use bench::systems::CLSM;
use clsm_workloads::{RunConfig, WorkloadSpec};

/// `(storage.wal_sync_ns sample count, db.puts)` so far.
fn sync_waits_and_writes(store: &dyn clsm_baselines::KvStore) -> (u64, u64) {
    let snap = store.stats();
    (
        snap.histograms
            .get("storage.wal_sync_ns")
            .map_or(0, |h| h.count),
        snap.counters.get("db.puts").copied().unwrap_or(0),
    )
}

fn main() {
    let args = bench::parse_args();
    let spec = WorkloadSpec::write_only(args.key_space());

    // Async mode: the regular Figure 5 write path for cLSM only.
    let async_tables = sweep_threads(
        &args,
        "Ablation sync-logging (async)",
        &[CLSM],
        &spec,
        &[(
            Metric::KopsPerSec,
            "cLSM write throughput, async logging (Kops/s)",
        )],
    )
    .expect("async run failed");
    emit(&args, &async_tables).expect("emit");

    // Sync mode: same sweep with an fsync wait per write (the WAL's
    // logging queue group-commits the physical fsyncs).
    let columns: Vec<String> = args.threads.iter().map(|t| t.to_string()).collect();
    let mut table = Table::new(
        "Ablation sync-logging (sync) — cLSM write throughput, fsync per write (Kops/s)",
        "threads",
        columns,
    );
    let mut opts = args.store_options();
    opts.sync_writes = true;
    let dir = args.scratch("ablate-sync").expect("scratch");
    let store = CLSM.open(&dir, opts).expect("open");
    for (col, &threads) in args.threads.iter().enumerate() {
        let cfg = RunConfig {
            threads,
            duration: args.cell(),
            seed: args.seed,
        };
        let before = sync_waits_and_writes(store.as_ref());
        let r = bench::driver::run_one(&store, &spec, &cfg).expect("run");
        let after = sync_waits_and_writes(store.as_ref());
        // Hardware-independent: how many `Store::sync_wal` waits the
        // cell issued per acknowledged write (`storage.wal_sync_ns`
        // samples ÷ `db.puts`). Each wait may share its physical fsync
        // with other writers in the WAL's logging queue.
        let (waits, writes) = (after.0 - before.0, after.1 - before.1);
        eprintln!(
            "[ablate-sync] sync  threads={threads:<3} {:>10.1} ops/s  p90={:.1}us  \
             sync_waits={waits} writes={writes} waits/write={:.3}",
            r.ops_per_sec(),
            r.p90_latency_us(),
            waits as f64 / writes.max(1) as f64
        );
        table.set("cLSM sync", col, Metric::KopsPerSec.extract(&r));
    }
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    table.print();
    table.to_csv(&args.out_dir).expect("csv");
}
