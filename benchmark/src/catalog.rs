//! The metric catalogue: every name the benchmark prints, its unit and
//! direction, where it is read from, and — for per-layer metrics — the
//! end-to-end metric and workload it should move. `BENCHMARK.json` and
//! the README table are generated from here (`clsm-benchmark catalog`),
//! and a self-test keeps `BENCHMARK.json` in step.

/// One catalogue entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// Name as printed and as keyed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
    /// Layer (repo module) the metric belongs to.
    pub layer: &'static str,
    /// Public surface it is read from.
    pub source: &'static str,
    /// Which end-to-end metric it should move, on which workload.
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    layer: &'static str,
    source: &'static str,
    moves: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: false,
        layer,
        source,
        moves,
    }
}

const fn up(mut metric: Metric) -> Metric {
    metric.higher_is_better = true;
    metric
}

/// The gated end-to-end metrics: defined and never 0 on every workload,
/// as the driver contract requires, and steady enough on this host —
/// spread under a third of the bound — to carry one of at most 0.25
/// (see `calibration.json`).
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", "harness", "median of 3 × (fresh directory → Db::open → prefill in 256-entry batches → compact_to_quiescence)", "-"),
    up(m("ops_per_s", "1/s", "whole store", "completed, validated ops ÷ timed window; closed loop: threads ÷ mean latency; net-open: the achieved rate", "-")),
    m("write_amp", "ratio", "whole store", "CountingEnv bytes written (WAL + tables + manifest) ÷ user bytes, after quiescence", "-"),
    m("space_amp", "ratio", "whole store", "(tables the current version references, Db::approximate_size over the whole key range, + WAL + manifest) ÷ live user bytes, after quiescence", "-"),
];

/// End-to-end metrics the contract cannot gate, carried ungated among
/// the per-layer metrics and printed by every run, with the reason.
pub const DEMOTED: &[Metric] = &[
    m("cpu_us_per_op", "us", "whole store", "process CPU time (user + kernel of every thread: load, flush, compaction, WAL logger, server; /proc/self/stat) over the timed window ÷ completed, validated ops; net-open: without the sender thread, which yield-spins up to each due time", "spread 0.03–0.28 over seeds: this host's cores run 2–4× slower for seconds at a time. The closed loops spend most of their wall time in admission sleeps, so a cheaper operation shows here and not in ops_per_s"),
    m("peak_rss_mib", "MiB", "process", "VmHWM of /proc/self/status", "spread 0.04–0.25 over seeds and never under a third of any bound: one to three retired 8 MiB memtables outlive their flush until the epoch advances, and how many is a race"),
    m("get_p50_us", "us", "whole store", "harness samples around Db::get (net-open: due time → decoded response; ingest, scan-rmw: read-back after reopen)", "spread 0.06–0.28 over ten seeds, and shifts up to 2× with the host's state between sets of runs"),
    m("get_p99_us", "us", "whole store", "as get_p50_us", "spread 0.08–0.46 over seeds"),
    m("put_p50_us", "us", "whole store", "harness samples around Db::put (net-open: due time → decoded response)", "spread up to 0.58: about half of all puts are admission-delayed, so the median sits on a mode boundary"),
    m("put_p99_us", "us", "whole store", "as put_p50_us", "spread up to 0.94: lands on either side of one or two admission sleeps"),
    m("scan_p50_us", "us", "whole store", "harness samples around Db::snapshot + Snapshot::scan", "defined on scan-rmw only"),
    m("scan_p99_us", "us", "whole store", "as scan_p50_us", "defined on scan-rmw only"),
    m("rmw_p50_us", "us", "whole store", "harness samples around Db::read_modify_write", "defined on scan-rmw only"),
    m("rmw_p99_us", "us", "whole store", "as rmw_p50_us", "defined on scan-rmw only"),
    m("failed_frac", "ratio", "harness", "failed ÷ attempted (also the contract's `failed`/`attempted` keys)", "always 0 on a correct store, so it cannot carry a relative bound"),
];

/// The per-layer metrics of the traced run.
pub const LAYERS: &[Metric] = &[
    m("gen.ns_per_op", "ns", "workloads", "harness `gen` spans", "excluded from every latency; lowers closed-loop ops_per_s"),
    m("gen.late_p99_us", "us", "workloads", "net-open sender: send time − due time", "validity of net-open latencies"),
    m("gen.backlog_max", "count", "workloads", "net-open: max requests sent and unanswered", "validity of net-open latencies"),
    m("clsm.write.admission_ns", "ns", "clsm write pipeline", "Db::metrics() write_path.admission_ns Δsum ÷ Δcount", "ops_per_s, put_p99_us on ingest"),
    m("clsm.write.queue_wait_ns", "ns", "clsm write pipeline", "write_path.queue_wait_ns", "put_p50_us on ingest"),
    m("clsm.write.stamp_ns", "ns", "clsm write pipeline", "write_path.stamp_ns", "put_p50_us on ingest"),
    m("clsm.write.memtable_ns", "ns", "clsm write pipeline", "write_path.memtable_ns", "put_p50_us on ingest"),
    m("clsm.write.wal_enqueue_ns", "ns", "clsm write pipeline", "write_path.wal_enqueue_ns", "put_p50_us on ingest"),
    m("clsm.write.publish_ns", "ns", "clsm write pipeline", "write_path.publish_ns", "put_p50_us on ingest"),
    m("clsm.write.durable_ns", "ns", "clsm write pipeline", "write_path.durable_ns", "none with async logging"),
    m("clsm.write.wake_ns", "ns", "clsm write pipeline", "write_path.wake_ns", "put_p50_us on ingest"),
    m("clsm.write.unattributed_frac", "ratio", "clsm write pipeline", "1 − Σ write_path stage sums ÷ harness Σ put and RMW time", "how much of put time the stages explain"),
    m("clsm.admission.delayed_frac", "ratio", "clsm admission", "admission.delayed_writes ÷ puts", "ops_per_s, put_p99_us on ingest; put_p99_us on prod-mix"),
    m("clsm.admission.delay_s", "s", "clsm admission", "admission.delay_ns", "ops_per_s on ingest"),
    m("clsm.stall.count", "count", "clsm admission", "db.write_stalls + admission.hard_stalls", "put_p99_us on ingest"),
    m("clsm.stall_s", "s", "clsm admission", "db.write_stall_ns", "put_p99_us on ingest"),
    m("clsm.commit.group_size_mean", "count", "clsm write pipeline", "db.commit.group_requests ÷ db.commit.groups", "put_p50_us on ingest"),
    m("clsm.gets", "count", "clsm", "db.gets over the timed window", "0 on ingest: the read path is bypassed"),
    m("clsm.puts", "count", "clsm", "db.puts over the timed window", "-"),
    m("clsm.snapshot.create_ns", "ns", "clsm snapshot", "op.snapshot.latency_ns Δsum ÷ Δcount", "scan_p50_us on scan-rmw"),
    m("clsm.rmw.conflict_ratio", "ratio", "clsm rmw", "db.rmw_conflicts ÷ db.rmw_ops", "rmw_p99_us on scan-rmw"),
    m("clsm.rmw.attempts_per_op", "count", "clsm rmw", "closure calls ÷ committed RMWs", "rmw_p99_us on scan-rmw"),
    m("oracle.get_ts_publish_ns", "ns", "util::oracle", "probe: TimestampOracle::get_ts + publish", "put_p50_us on ingest"),
    m("oracle.get_ts_block_ns", "ns", "util::oracle", "probe: get_ts_block(16) + publish_block", "put_p50_us on ingest (groups)"),
    m("oracle.get_snap_ns", "ns", "util::oracle", "probe: get_snap", "scan_p50_us on scan-rmw"),
    m("skiplist.insert_ns", "ns", "skiplist", "probe: SkipList::insert, 200 k workload-shaped entries", "put_p50_us on ingest"),
    m("skiplist.get_ns", "ns", "skiplist", "probe: SkipList::get_latest", "get_p50_us on net-open (memtable hits)"),
    m("skiplist.next_ns_per_key", "ns", "skiplist", "probe: Cursor::advance over the list", "scan_p50_us on scan-rmw"),
    m("skiplist.bytes_per_entry", "B", "skiplist", "probe: memory_usage ÷ entries", "peak_rss_mib, flush cadence on ingest"),
    m("wal.append_ns", "ns", "lsm-storage::wal", "probe: LogQueue::append (async)", "put_p50_us on ingest"),
    m("wal.sync_ns", "ns", "lsm-storage::wal", "probe: LogQueue::sync_timed round trip", "none with async logging; the sandbox's fsync"),
    m("wal.bytes_per_user_byte", "ratio", "lsm-storage::wal", "CountingEnv WAL bytes ÷ user bytes", "write_amp on ingest"),
    m("sstable.build_ns_per_entry", "ns", "lsm-storage::sstable", "probe: TableBuilder::add + finish", "flush and compaction time on ingest"),
    m("sstable.get_hit_ns", "ns", "lsm-storage::sstable", "probe: Table::get on present keys", "get_p99_us on prod-mix"),
    m("sstable.get_absent_ns", "ns", "lsm-storage::sstable", "probe: Table::get on absent keys (bloom rejects)", "get_p99_us on prod-mix"),
    m("sstable.iter_ns_per_entry", "ns", "lsm-storage::sstable", "probe: TableIter over the table", "compaction time on ingest; scan_p50_us"),
    m("bloom.probe_ns", "ns", "util::bloom", "probe: BloomFilterPolicy::key_may_match", "get_p99_us on prod-mix"),
    m("bloom.fp_ratio", "ratio", "util::bloom", "probe: false positives ÷ absent keys probed", "get_p99_us on prod-mix"),
    up(m("cache.hit_ratio", "ratio", "lsm-storage::cache", "Db::cache_stats() Δhits ÷ Δ(hits + misses)", "get_p50_us on prod-mix")),
    m("cache.hit_ns", "ns", "lsm-storage::cache", "probe: BlockCache::get from 2 threads", "get_p50_us on prod-mix"),
    m("cache.miss_insert_ns", "ns", "lsm-storage::cache", "probe: BlockCache::insert from 2 threads", "get_p99_us on prod-mix"),
    m("store.get_ns_p50", "ns", "lsm-storage::store", "reopen as Store, replay recorded get keys through Store::get", "get_p99_us on prod-mix"),
    m("store.get_ns_p99", "ns", "lsm-storage::store", "as store.get_ns_p50", "get_p99_us on prod-mix"),
    m("store.reads_per_get", "count", "lsm-storage::store", "CountingEnv table reads ÷ replayed gets", "get_p99_us on prod-mix"),
    m("store.levels_files_final", "count", "lsm-storage::store", "Σ Db::level_file_counts() after quiescence", "space_amp, get_p99_us"),
    m("store.garbage_frac", "ratio", "lsm-storage::store", "share of the data directory's bytes in tables no version references, after quiescence", "what a user's `du` shows beyond space_amp; 0 to 0.6 run to run, a race with epoch-deferred version drops"),
    m("store.l0_files_max", "count", "lsm-storage::store", "max L0 of Db::level_file_counts() sampled at 1 Hz", "put_p99_us on ingest (L0 debt)"),
    m("flush.count", "count", "lsm-storage flush", "db.flushes", "write_amp on ingest"),
    m("flush.ns_mean", "ns", "lsm-storage flush", "storage.flush_ns Δsum ÷ Δcount", "put_p99_us on ingest"),
    m("flush.bytes", "B", "lsm-storage flush", "storage.bytes_flushed", "write_amp on ingest"),
    m("compaction.count", "count", "lsm-storage::compaction", "db.compactions", "write_amp on ingest; ≈ 0 on net-open"),
    m("compaction.busy_frac", "ratio", "lsm-storage::compaction", "storage.compaction_ns Δsum ÷ window", "ops_per_s, put_p99_us on ingest; ≈ 0 on net-open"),
    m("compaction.bytes", "B", "lsm-storage::compaction", "storage.bytes_compacted", "write_amp on ingest"),
    m("clsm.quiesce_s", "s", "lsm-storage::compaction", "final Db::compact_to_quiescence()", "compaction debt left by the window"),
    m("env.wal.write_bytes", "B", "util::env", "CountingEnv", "write_amp on ingest"),
    m("env.wal.sync_count", "count", "util::env", "CountingEnv", "hardware-independent fsync count"),
    m("env.sst.write_bytes", "B", "util::env", "CountingEnv", "write_amp on ingest"),
    m("env.sst.read_count", "count", "util::env", "CountingEnv", "get_p99_us on prod-mix; ≈ 0 on net-open"),
    m("env.sst.read_bytes", "B", "util::env", "CountingEnv", "get_p99_us on prod-mix"),
    m("env.sst.read_ns_mean", "ns", "util::env", "CountingEnv", "get_p99_us on prod-mix (the sandbox's page cache)"),
    m("env.sync_ns_mean", "ns", "util::env", "CountingEnv, all file syncs", "the sandbox's fsync, not a device's"),
    m("env.manifest.sync_count", "count", "util::env", "CountingEnv", "flush and compaction cost on ingest"),
    m("env.syncs_per_kop", "count", "util::env", "CountingEnv syncs ÷ 1000 ops", "hardware-independent cost per op"),
    m("env.write_bytes_per_user_byte", "ratio", "util::env", "CountingEnv bytes written ÷ user bytes, timed window only", "write_amp on ingest"),
    m("net.encode_req_ns", "ns", "net", "probe: proto::encode_request", "get_p50_us, put_p50_us on net-open"),
    m("net.decode_req_ns", "ns", "net", "probe: proto::decode_request", "get_p50_us, put_p50_us on net-open"),
    m("net.encode_resp_ns", "ns", "net", "probe: proto::encode_response", "get_p50_us on net-open"),
    m("net.decode_resp_ns", "ns", "net", "probe: proto::decode_response", "get_p50_us on net-open"),
    m("net.frame_ns", "ns", "net", "probe: frame::write_frame + FrameReader::next_frame", "get_p50_us, put_p50_us on net-open"),
    m("kv.dispatch_ns", "ns", "kv::api", "probe: api::dispatch on the live Db", "get_p50_us, put_p50_us on net-open"),
    m("net.rtt_idle_us", "us", "net", "depth-1 Client::call on the idle server", "floor of get_p50_us on net-open"),
    m("net.coalesce_mean", "count", "net", "ServerHandle::registry() net.coalesced_ops ÷ net.coalesced_batches", "put_p50_us on net-open"),
    m("net.bytes_per_req", "B", "net", "net.bytes_read + net.bytes_written ÷ net.requests", "hardware-independent wire cost"),
    m("net.wire_overhead_us", "us", "net", "net-open get_p50_us − embedded Db::get p50 on the same keys", "the embedded-vs-loopback gap"),
    m("net.unattributed_us", "us", "net", "wire overhead − codec, framing and dispatch probes", "syscalls, scheduling, loopback TCP"),
    m("trace.overhead_frac", "ratio", "whole run", "1 − traced ÷ untraced ops_per_s (untraced result of the same workload in the out directory)", "how far per-layer numbers may be trusted"),
    m("clsm.reopen_ms", "ms", "whole run", "Db::open on the used directory", "-"),
    m("host.cpu_user_s", "s", "whole run", "/proc/self/stat utime over the timed window", "-"),
    m("host.cpu_sys_s", "s", "whole run", "/proc/self/stat stime over the timed window", "-"),
];

/// The per-layer list of `BENCHMARK.json`: layer metrics, then the
/// demoted end-to-end metrics.
pub fn per_layer() -> impl Iterator<Item = &'static Metric> {
    LAYERS.iter().chain(DEMOTED)
}

/// Finds a catalogue entry by name.
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END
        .iter()
        .chain(per_layer())
        .find(|m| m.name == name)
}

/// The README's catalogue table.
pub fn markdown() -> String {
    let mut out = String::from(
        "| metric | unit | better | layer | read from | should move (ungated end-to-end metrics: why ungated) |\n|---|---|---|---|---|---|\n",
    );
    for metric in END_TO_END.iter().chain(DEMOTED).chain(LAYERS) {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} | {} | {} |\n",
            metric.name,
            metric.unit,
            if metric.higher_is_better {
                "higher"
            } else {
                "lower"
            },
            metric.layer,
            metric.source,
            metric.moves
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for metric in END_TO_END.iter().chain(per_layer()) {
            assert!(seen.insert(metric.name), "duplicate {}", metric.name);
            assert!(metric.name.len() <= 64 && metric.unit.len() <= 16);
            assert!(metric.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(metric
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(metric
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.len() <= 16 && per_layer().count() <= 128);
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }
}
