//! `clsm-doctor` — database introspection CLI.
//!
//! Two modes:
//!
//! - `clsm-doctor <db-dir> [--populate N]` opens (or
//!   creates) a database and prints a [`clsm::DoctorReport`]: memtable
//!   fill, immutable-queue state, level geometry, live snapshots,
//!   oracle timestamps, and stall-event verdicts. `--populate`
//!   writes N keys first (through the normal put path, so flushes and
//!   compactions run), which makes the tool usable as a smoke test on
//!   an empty directory. `--crash-audit` prints the durability
//!   forensics of the open instead: which WALs recovery replayed, how
//!   many records came back, torn WAL tails and manifest damage.
//! - `clsm-doctor --connect HOST:PORT [--shutdown]` dials a running
//!   `clsm-server` over the binary protocol, fetches its merged
//!   metrics via the stats opcode (`net.*` counters, per-opcode
//!   latency histograms, and the store's own registry), and prints
//!   them. `--shutdown` then asks the server to exit cleanly.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use clsm::{Db, Options};
use clsm_util::error::Result;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match run(&argv) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("clsm-doctor: {e}");
            1
        }
    };
    std::process::exit(code);
}

fn run(argv: &[String]) -> Result<()> {
    let mut dir: Option<PathBuf> = None;
    let mut populate: u64 = 0;
    let mut crash_audit = false;
    let mut watch_ms: Option<u64> = None;
    let mut watch_count: Option<u64> = None;
    let mut connect: Option<String> = None;
    let mut shutdown = false;

    let mut iter = argv.iter();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--connect" => {
                connect = Some(
                    iter.next()
                        .cloned()
                        .unwrap_or_else(|| usage("--connect needs HOST:PORT")),
                );
            }
            "--shutdown" => shutdown = true,
            "--populate" => {
                populate = iter
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--populate needs a count"));
            }
            "--crash-audit" => crash_audit = true,
            "--watch" => {
                watch_ms = Some(
                    iter.next()
                        .and_then(|s| s.parse().ok())
                        .filter(|&ms| ms >= 1)
                        .unwrap_or_else(|| usage("--watch needs an interval in ms >= 1")),
                );
            }
            "--watch-count" => {
                watch_count = Some(
                    iter.next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage("--watch-count needs a count")),
                );
            }
            "--help" | "-h" => usage(""),
            other if other.starts_with('-') => usage(&format!("unknown flag {other}")),
            path => {
                if dir.is_some() {
                    usage("only one db directory");
                }
                dir = Some(PathBuf::from(path));
            }
        }
    }

    if let Some(addr) = connect {
        if dir.is_some() {
            usage("--connect cannot be combined with <db-dir>");
        }
        return connect_server(&addr, shutdown);
    }
    if shutdown {
        usage("--shutdown only makes sense with --connect");
    }
    match dir {
        Some(dir) if crash_audit => audit_db(&dir),
        Some(dir) => match watch_ms {
            Some(ms) => watch_db(&dir, populate, ms, watch_count),
            None => examine_db(&dir, populate),
        },
        None => usage("pass exactly one of <db-dir> or --connect ADDR"),
    }
}

/// Dials a running `clsm-server`, prints the merged stats the server
/// returns over the wire (net.* registry + store registry), and
/// optionally asks it to shut down.
fn connect_server(addr: &str, shutdown: bool) -> Result<()> {
    let net = clsm_net::NetOptions::builder()
        .addr(addr)
        .connections(1)
        .build()?;
    let client = clsm_net::Client::connect(&net)?;
    let mut out = String::new();
    {
        use std::fmt::Write as _;
        let _ = writeln!(out, "== clsm-doctor connect: {addr} ==");
    }
    out.push_str(&client.stats_text()?);
    if shutdown {
        client.shutdown_server()?;
        out.push_str("server shutdown requested: ok\n");
    }
    print_all(&out)
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!(
        "usage: clsm-doctor <db-dir> [--populate N] [--crash-audit] \
         [--watch MS [--watch-count N]]"
    );
    eprintln!("       clsm-doctor --connect HOST:PORT [--shutdown]");
    std::process::exit(if msg.is_empty() { 0 } else { 2 });
}

/// Opens the database and prints the doctor report. Small tables and
/// memtable so `--populate` on an empty directory exercises flushes
/// and compactions rather than parking everything in memory.
fn examine_db(dir: &std::path::Path, populate: u64) -> Result<()> {
    let db = Db::open(dir, Options::small_for_tests())?;
    populate_keys(populate, |k, v| db.put(k, v))?;
    if populate > 0 {
        db.compact_to_quiescence()?;
    }
    print_all(&db.doctor().render())
}

/// Live dashboard mode (`--watch MS`): samples the store's metrics
/// every `interval_ms` and prints one rates/p99 line per tick (see
/// [`clsm::watch_dashboard_line`] for column semantics). With
/// `--populate N` the keys are written by a background thread while
/// the dashboard runs, and the watch ends when the writer finishes;
/// `--watch-count N` caps the tick count instead (and without either
/// bound the watch runs until interrupted).
fn watch_db(
    dir: &std::path::Path,
    populate: u64,
    interval_ms: u64,
    watch_count: Option<u64>,
) -> Result<()> {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let store: Arc<dyn clsm::KvStore> = Arc::new(Db::open(dir, Options::small_for_tests())?);

    let done = Arc::new(AtomicBool::new(false));
    let writer = (populate > 0).then(|| {
        let store = Arc::clone(&store);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let r = populate_keys(populate, |k, v| store.put(k, v));
            done.store(true, Ordering::Release);
            r
        })
    });

    print_all(&format!("{}\n", clsm::watch_dashboard_header()))?;
    let interval = Duration::from_millis(interval_ms);
    let mut prev = store.stats();
    // Rates must divide by the time the window actually covered, not
    // the nominal sleep: sampling and printing add overhead every
    // tick, and under load the sleep itself oversleeps. Dividing by
    // the nominal interval inflated every rate by that slack.
    let mut prev_at = Instant::now();
    let mut ticks = 0u64;
    loop {
        std::thread::sleep(interval);
        let cur = store.stats();
        let sampled_at = Instant::now();
        print_all(&format!(
            "{}\n",
            clsm::watch_dashboard_line(&prev, &cur, sampled_at - prev_at)
        ))?;
        prev_at = sampled_at;
        prev = cur;
        ticks += 1;
        if watch_count.is_some_and(|n| ticks >= n) {
            break;
        }
        if watch_count.is_none() && populate > 0 && done.load(Ordering::Acquire) {
            break;
        }
    }
    if let Some(writer) = writer {
        writer.join().expect("populate thread panicked")?;
    }
    Ok(())
}

/// Opens the database and prints what recovery found: WALs replayed,
/// records recovered, torn tails and manifest damage. Exit is nonzero
/// only when the open itself fails — torn tails are a report, not an
/// error.
fn audit_db(dir: &std::path::Path) -> Result<()> {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "== clsm-doctor crash audit: {} ==", dir.display());
    let db = Db::open(dir, Options::small_for_tests())?;
    render_recovery(&mut out, "db", db.recovery_report());
    print_all(&out)
}

fn render_recovery(out: &mut String, label: &str, report: &clsm::RecoveryReport) {
    use std::fmt::Write as _;
    let _ = writeln!(
        out,
        "{label}: replayed {} WAL(s) {:?}, {} record(s) recovered",
        report.wals_replayed.len(),
        report.wals_replayed,
        report.records_recovered
    );
    if report.torn_tails.is_empty() {
        let _ = writeln!(out, "{label}:   WAL tails clean");
    } else {
        for (wal, offset) in &report.torn_tails {
            let _ = writeln!(
                out,
                "{label}:   WAL {wal} torn at byte {offset} (un-acked tail, dropped)"
            );
        }
    }
    if let Some(at) = report.manifest_torn_at {
        let _ = writeln!(out, "{label}:   MANIFEST torn at byte {at} (tail dropped)");
    }
}

/// Writes `populate` fixed-size keys through the given put closure.
fn populate_keys(populate: u64, mut put: impl FnMut(&[u8], &[u8]) -> Result<()>) -> Result<()> {
    if populate == 0 {
        return Ok(());
    }
    eprintln!("populating {populate} keys…");
    let value = vec![0xabu8; 100];
    for i in 0..populate {
        put(format!("doctor.{i:012}").as_bytes(), &value)?;
    }
    Ok(())
}

/// Writes the report to stdout; a closed pipe (`clsm-doctor … | head`)
/// is a normal way to consume the output, not an error.
fn print_all(out: &str) -> Result<()> {
    use std::io::Write as _;
    match std::io::stdout().write_all(out.as_bytes()) {
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => Ok(()),
        other => Ok(other?),
    }
}
