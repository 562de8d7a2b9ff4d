//! `clsm-doctor` — database and trace introspection CLI.
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
//! - `clsm-doctor --replay <trace.json>` parses a flight-recorder
//!   artifact (the Chrome trace-format JSON written by the bench
//!   binaries' `--trace` flag) and prints per-span duration
//!   statistics, no running database required.
//! - `clsm-doctor --connect HOST:PORT [--shutdown]` dials a running
//!   `clsm-server` over the binary protocol, fetches its merged
//!   metrics via the stats opcode (`net.*` counters, per-opcode
//!   latency histograms, and the store's own registry), and prints
//!   them. `--shutdown` then asks the server to exit cleanly.

use std::collections::HashMap;
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
    let mut replay: Option<PathBuf> = None;
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
            "--replay" => {
                replay = Some(PathBuf::from(
                    iter.next()
                        .map(String::as_str)
                        .unwrap_or_else(|| usage("--replay needs a trace file")),
                ));
            }
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
        if dir.is_some() || replay.is_some() {
            usage("--connect cannot be combined with <db-dir> or --replay");
        }
        return connect_server(&addr, shutdown);
    }
    if shutdown {
        usage("--shutdown only makes sense with --connect");
    }
    match (dir, replay) {
        (None, Some(trace)) => replay_trace(&trace),
        (Some(dir), None) if crash_audit => audit_db(&dir),
        (Some(dir), None) => match watch_ms {
            Some(ms) => watch_db(&dir, populate, ms, watch_count),
            None => examine_db(&dir, populate),
        },
        _ => usage("pass exactly one of <db-dir>, --replay FILE, or --connect ADDR"),
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
    eprintln!("       clsm-doctor --replay <trace.json>");
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

/// Statistics accumulated per span name while replaying a trace file.
#[derive(Default)]
struct ReplayStat {
    count: u64,
    total_ns: u64,
    max_ns: u64,
    instants: u64,
}

/// Parses the one-event-per-line Chrome trace JSON and prints span
/// statistics. The writer (`TraceSnapshot::to_chrome_json`) guarantees
/// one self-contained object per line, so a field-scraping parser is
/// enough — no JSON library in the workspace, none needed.
fn replay_trace(path: &std::path::Path) -> Result<()> {
    let text = std::fs::read_to_string(path)?;
    // (tid, name) -> stack of open begin timestamps (ns).
    let mut open: HashMap<(u64, String), Vec<u64>> = HashMap::new();
    let mut stats: HashMap<String, ReplayStat> = HashMap::new();
    let mut events = 0u64;
    let mut threads = std::collections::HashSet::new();

    for line in text.lines() {
        let line = line.trim().trim_end_matches(',');
        if !line.starts_with('{') {
            continue;
        }
        let Some(ph) = str_field(line, "ph") else {
            continue;
        };
        if ph == "M" {
            continue; // metadata (process/thread names)
        }
        let Some(name) = str_field(line, "name") else {
            continue;
        };
        let tid = num_field(line, "tid").unwrap_or(0.0) as u64;
        let ts_ns = (num_field(line, "ts").unwrap_or(0.0) * 1000.0) as u64;
        events += 1;
        threads.insert(tid);
        match ph.as_str() {
            "B" => open.entry((tid, name)).or_default().push(ts_ns),
            "E" => {
                if let Some(begin) = open
                    .get_mut(&(tid, name.clone()))
                    .and_then(std::vec::Vec::pop)
                {
                    let d = ts_ns.saturating_sub(begin);
                    let s = stats.entry(name).or_default();
                    s.count += 1;
                    s.total_ns += d;
                    s.max_ns = s.max_ns.max(d);
                }
            }
            "i" => stats.entry(name).or_default().instants += 1,
            _ => {}
        }
    }

    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "== clsm-doctor replay ==");
    let _ = writeln!(
        out,
        "trace: {} ({} events, {} threads)",
        path.display(),
        events,
        threads.len()
    );
    let mut rows: Vec<(String, ReplayStat)> = stats.into_iter().collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.1.total_ns));
    let _ = writeln!(
        out,
        "{:<36} {:>8} {:>12} {:>12} {:>9}",
        "span", "count", "total", "max", "instants"
    );
    for (name, s) in rows {
        let _ = writeln!(
            out,
            "{:<36} {:>8} {:>12} {:>12} {:>9}",
            name,
            s.count,
            format!("{:.3?}", Duration::from_nanos(s.total_ns)),
            format!("{:.3?}", Duration::from_nanos(s.max_ns)),
            s.instants
        );
    }
    print_all(&out)
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

/// Extracts `"key":"value"` from a single-line JSON object.
fn str_field(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":\"");
    let start = line.find(&pat)? + pat.len();
    let end = line[start..].find('"')?;
    Some(line[start..start + end].to_string())
}

/// Extracts `"key":<number>` from a single-line JSON object.
fn num_field(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}
