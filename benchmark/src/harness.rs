//! The load harness shared by the four workloads: set-up, per-key
//! version bookkeeping for output validation, the closed-loop driver,
//! per-op latency recording, and the close → reopen → read-back check.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use clsm::{Db, WriteBatch, WriteOptions};
use clsm_workloads::keygen::format_key;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::{self, Sizes};
use crate::counting_env::CountingEnv;
use crate::stats;
use crate::trace::{Kind, Tracer};
use crate::values;

/// Error type of the harness: a message for the operator.
pub type Error = String;
/// Result alias over [`Error`].
pub type Result<T> = std::result::Result<T, Error>;

/// Command-line arguments of one run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Workload seed; the store only ever sees generated operations.
    pub seed: u64,
    /// Length of the timed window in seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Directory for results, span files and the data directory.
    pub out_dir: PathBuf,
    /// Overrides the frozen `net-open` rate (testing phase only).
    pub rate: Option<u64>,
    /// Index of this run within a set of repeats; names the result files.
    pub repeat: u32,
}

impl RunArgs {
    /// Warm-up before the timed window: a fifth of it, at most 5 s.
    pub fn warmup(&self) -> Duration {
        Duration::from_secs_f64((self.seconds / 5.0).min(5.0))
    }
}

/// Operation types with their own latency metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Point read.
    Get = 0,
    /// Blind write.
    Put,
    /// One snapshot plus one scan.
    Scan,
    /// Atomic read-modify-write.
    Rmw,
}

/// Number of [`OpKind`]s.
pub const N_OPS: usize = 4;

impl OpKind {
    /// Every op kind, in discriminant order.
    pub const ALL: [OpKind; N_OPS] = [OpKind::Get, OpKind::Put, OpKind::Scan, OpKind::Rmw];

    /// Metric-name prefix (`get`, `put`, `scan`, `rmw`).
    pub fn name(self) -> &'static str {
        ["get", "put", "scan", "rmw"][self as usize]
    }
}

// ---------------------------------------------------------------------
// Version bookkeeping
// ---------------------------------------------------------------------

/// Per-key version counters. Every key has one writer thread, which
/// bumps `issued` before a write and `acked` after it returns; any
/// thread may then bound the version a read is allowed to return:
/// at least what was acked before the read was issued, at most what was
/// issued when it returned.
#[derive(Debug)]
pub struct Versions {
    issued: Vec<AtomicU32>,
    acked: Vec<AtomicU32>,
    value_len: usize,
}

impl Versions {
    /// Counters for `keys` keys whose first `prefilled` hold version 1.
    pub fn new(sizes: &Sizes) -> Versions {
        let counters = || {
            (0..sizes.key_space)
                .map(|i| AtomicU32::new(u32::from(i < sizes.prefill)))
                .collect()
        };
        Versions {
            issued: counters(),
            acked: counters(),
            value_len: sizes.value_len,
        }
    }

    /// Starts a write of `key` by its owner; returns the new version.
    pub fn begin_write(&self, key: u64) -> u64 {
        let slot = &self.issued[key as usize];
        let version = slot.load(Ordering::Relaxed) + 1;
        slot.store(version, Ordering::Release);
        u64::from(version)
    }

    /// Marks `version` of `key` acknowledged.
    pub fn ack(&self, key: u64, version: u64) {
        self.acked[key as usize].store(version as u32, Ordering::Release);
    }

    /// Last acknowledged version (0 = never written).
    pub fn acked(&self, key: u64) -> u64 {
        u64::from(self.acked[key as usize].load(Ordering::Acquire))
    }

    /// Last issued version.
    pub fn issued(&self, key: u64) -> u64 {
        u64::from(self.issued[key as usize].load(Ordering::Acquire))
    }

    /// Keys that were ever acknowledged.
    pub fn written_keys(&self) -> Vec<u64> {
        (0..self.acked.len() as u64)
            .filter(|k| self.acked(*k) > 0)
            .collect()
    }

    /// Checks what a read of `key` returned, given the acked version
    /// `lo` read before it was issued. Call after the read returned.
    pub fn check_read(&self, key: u64, lo: u64, found: Option<&[u8]>) -> Result<()> {
        let hi = self.issued(key);
        match found {
            None if lo == 0 => Ok(()),
            None => Err(format!("key {key}: absent, but version {lo} was acked")),
            Some(value) => {
                if value.len() != self.value_len {
                    return Err(format!("key {key}: value of {} bytes", value.len()));
                }
                match values::decode(value) {
                    Some((k, v)) if k == key && (lo..=hi).contains(&v) => Ok(()),
                    Some((k, v)) => Err(format!(
                        "key {key}: read (key {k}, version {v}), allowed versions {lo}..={hi}"
                    )),
                    None => Err(format!("key {key}: value fails its checksum")),
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Recording
// ---------------------------------------------------------------------

const PHASE_WARMUP: u8 = 0;
const PHASE_TIMED: u8 = 1;
const PHASE_STOP: u8 = 2;

/// Most keys a traced run keeps per op kind and thread for the probes.
const KEY_STREAM_CAP: usize = 100_000;
/// Most spans a traced run keeps in detail per thread.
const SPAN_CAP: usize = 200_000;

/// Phase switch shared by the coordinator and the load threads.
#[derive(Debug)]
pub struct Ctl {
    epoch: Instant,
    phase: AtomicU8,
    stop_ns: AtomicU64,
}

impl Ctl {
    /// A control block in the warm-up phase whose clock starts now.
    pub fn new() -> Arc<Ctl> {
        Arc::new(Ctl {
            epoch: Instant::now(),
            phase: AtomicU8::new(PHASE_WARMUP),
            stop_ns: AtomicU64::new(0),
        })
    }

    /// Nanoseconds since the run's epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens the timed window.
    pub fn start_timed(&self) {
        self.phase.store(PHASE_TIMED, Ordering::Release);
    }

    /// Tells the load threads to stop after their current operation.
    pub fn stop(&self) {
        self.stop_ns.store(self.now(), Ordering::Release);
        self.phase.store(PHASE_STOP, Ordering::Release);
    }

    /// When [`Ctl::stop`] was called, if it was.
    pub fn stopped_at(&self) -> Option<u64> {
        self.stopped().then(|| self.stop_ns.load(Ordering::Acquire))
    }

    /// Whether [`Ctl::stop`] was called.
    pub fn stopped(&self) -> bool {
        self.phase.load(Ordering::Acquire) == PHASE_STOP
    }

    /// Whether the timed window is open.
    pub fn timed(&self) -> bool {
        self.phase.load(Ordering::Acquire) == PHASE_TIMED
    }
}

/// What one load thread measured.
#[derive(Debug)]
pub struct Recorder {
    ctl: Arc<Ctl>,
    /// Whether the operation being run started inside the timed window.
    pub timed: bool,
    /// `[op]` latency samples of the timed window, in nanoseconds.
    lat: [Vec<u32>; N_OPS],
    /// Operations issued in any phase.
    pub attempted: u64,
    /// Operations that errored or returned a wrong result, any phase.
    pub failed: u64,
    /// Validated operations that started inside the timed window.
    pub completed_timed: u64,
    /// Key and value bytes of acknowledged writes, any phase.
    pub user_bytes: u64,
    /// Key and value bytes of acknowledged writes in the timed window.
    pub user_bytes_timed: u64,
    /// First few failure messages.
    pub failures: Vec<String>,
    /// Spans of this thread (disabled unless traced).
    pub tracer: Tracer,
    /// `[op]` key indices seen in the timed window (traced runs only).
    pub keys: [Vec<u32>; N_OPS],
}

impl Recorder {
    /// A recorder for load thread `thread`.
    pub fn new(ctl: &Arc<Ctl>, args: &RunArgs, thread: usize) -> Recorder {
        Recorder {
            ctl: Arc::clone(ctl),
            timed: false,
            lat: Default::default(),
            attempted: 0,
            failed: 0,
            completed_timed: 0,
            user_bytes: 0,
            user_bytes_timed: 0,
            failures: Vec::new(),
            tracer: Tracer::new(args.trace, thread as u8, SPAN_CAP),
            keys: Default::default(),
        }
    }

    /// Nanoseconds since the run's epoch.
    pub fn now(&self) -> u64 {
        self.ctl.now()
    }

    /// Counts one failed operation.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(message);
        }
    }

    /// Credits an acknowledged write of `bytes` user bytes.
    pub fn wrote(&mut self, bytes: u64) {
        self.user_bytes += bytes;
        if self.timed {
            self.user_bytes_timed += bytes;
        }
    }

    /// Records a latency sample of `op`.
    pub fn sample(&mut self, op: OpKind, latency_ns: u64) {
        self.lat[op as usize].push(u32::try_from(latency_ns).unwrap_or(u32::MAX));
    }

    /// Finishes one closed-loop operation on key `key`: `gen_start` is
    /// when the harness began generating it, `calls` the timed calls it
    /// made into the store (latency runs from the first call's start to
    /// the last call's end), `verdict` the result of validation.
    pub fn finish(
        &mut self,
        op: OpKind,
        key: u64,
        gen_start: u64,
        calls: &[(Kind, u64, u64)],
        verdict: Result<()>,
    ) {
        let (start, end) = (calls[0].1, calls[calls.len() - 1].2);
        self.attempted += 1;
        let ok = verdict.is_ok();
        if let Err(message) = verdict {
            self.fail(format!("{}: {message}", op.name()));
        }
        if !self.timed {
            return;
        }
        self.sample(op, end - start);
        self.completed_timed += u64::from(ok);
        if self.tracer.enabled() {
            let done = self.now();
            let mut children = [(Kind::Gen, gen_start, start); 4];
            children[1..=calls.len()].copy_from_slice(calls);
            children[calls.len() + 1] = (Kind::Validate, end, done);
            self.tracer
                .record((Kind::Op, gen_start, done), &children[..calls.len() + 2]);
            self.note_key(op, key);
        }
    }

    /// Remembers a key index of the timed window for the layer probes.
    pub fn note_key(&mut self, op: OpKind, key: u64) {
        let keys = &mut self.keys[op as usize];
        if keys.len() < KEY_STREAM_CAP {
            keys.push(key as u32);
        }
    }

    /// The latency samples of `op`.
    pub fn samples(&self, op: OpKind) -> &[u32] {
        &self.lat[op as usize]
    }
}

/// Pools the latency samples of `op` over threads and summarises them.
pub fn latency_summary(recorders: &[Recorder], op: OpKind) -> Option<stats::LatencySummary> {
    let mut all: Vec<u32> = recorders
        .iter()
        .flat_map(|r| r.samples(op).iter().copied())
        .collect();
    stats::summarize_ns(&mut all)
}

// ---------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------

/// An open store under test and the device counters behind it.
#[derive(Debug)]
pub struct Bench {
    /// The store.
    pub db: Arc<Db>,
    /// Device counters of everything the store did since it was opened.
    pub env: Arc<CountingEnv>,
    /// Its data directory.
    pub dir: PathBuf,
    /// Median set-up time over the repeats, in seconds.
    pub setup_s: f64,
    /// User bytes written by the prefill.
    pub prefill_bytes: u64,
}

fn err<E: std::fmt::Display>(context: &'static str) -> impl Fn(E) -> Error {
    move |e| format!("{context}: {e}")
}

/// Writes keys `0..sizes.prefill` at version 1 in 256-entry batches;
/// returns the user bytes written.
pub fn prefill(db: &Db, sizes: &Sizes) -> Result<u64> {
    let mut next = 0;
    while next < sizes.prefill {
        let end = (next + config::PREFILL_BATCH).min(sizes.prefill);
        let mut batch = WriteBatch::new();
        for key in next..end {
            batch.put(
                format_key(key, sizes.key_len),
                values::encode(key, 1, sizes.value_len),
            );
        }
        db.write(batch, &WriteOptions::new())
            .map_err(err("prefill"))?;
        next = end;
    }
    Ok(sizes.prefill * sizes.pair_bytes())
}

/// Sets the workload up [`config::SETUP_REPEATS`] times — fresh
/// directory, open, `fill`, compact to quiescence — and keeps the last
/// store. `fill` returns the user bytes it wrote.
pub fn setup(args: &RunArgs, fill: impl Fn(&Db) -> Result<u64>) -> Result<Bench> {
    let data = args.out_dir.join("data");
    let mut times = Vec::new();
    let mut kept = None;
    for repeat in 0..config::SETUP_REPEATS {
        drop(kept.take());
        let dir = data.join(format!("{}-{}-{repeat}", args.workload, std::process::id()));
        remove_dir(&dir)?;
        let began = Instant::now();
        std::fs::create_dir_all(&dir).map_err(err("create data directory"))?;
        let env = CountingEnv::new(args.trace);
        let db = Db::open(&dir, config::store_options(env.clone())).map_err(err("open"))?;
        let prefill_bytes = fill(&db)?;
        db.compact_to_quiescence().map_err(err("quiesce"))?;
        times.push(began.elapsed().as_secs_f64());
        if repeat + 1 < config::SETUP_REPEATS {
            drop(db);
            remove_dir(&dir)?;
        } else {
            kept = Some(Bench {
                db: Arc::new(db),
                env,
                dir,
                setup_s: 0.0,
                prefill_bytes,
            });
        }
    }
    let mut bench = kept.expect("at least one set-up");
    bench.setup_s = stats::median(&times).expect("at least one set-up");
    Ok(bench)
}

/// Removes a data directory if it exists.
pub fn remove_dir(dir: &Path) -> Result<()> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(format!("remove {}: {e}", dir.display())),
    }
}

/// Bytes of the regular files directly in `dir`: `(tables, others)`,
/// the others being WALs, the manifest and `CURRENT`.
pub fn dir_bytes(dir: &Path) -> Result<(u64, u64)> {
    let (mut tables, mut others) = (0, 0);
    for entry in std::fs::read_dir(dir).map_err(err("read data directory"))? {
        let entry = entry.map_err(err("read data directory"))?;
        let meta = entry.metadata().map_err(err("stat data file"))?;
        if !meta.is_file() {
            continue;
        }
        if entry.path().extension().is_some_and(|ext| ext == "sst") {
            tables += meta.len();
        } else {
            others += meta.len();
        }
    }
    Ok((tables, others))
}

// ---------------------------------------------------------------------
// Closed loop
// ---------------------------------------------------------------------

/// One load thread of a closed-loop workload.
pub trait LoadThread: Send {
    /// Generates, issues, times and validates one operation.
    fn step(&mut self, db: &Db, rec: &mut Recorder);
}

/// Moments of the timed window the coordinator reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tick {
    /// The window just opened.
    Start,
    /// About one more second has passed.
    Second,
    /// The load was just told to stop.
    End,
}

/// Runs `threads` against `db` in a closed loop: warm-up, then the
/// timed window, whose moments are reported to `tick`. Returns the
/// recorders and the exact length of the timed window in seconds.
pub fn run_closed_loop<T: LoadThread>(
    db: &Db,
    args: &RunArgs,
    ctl: &Arc<Ctl>,
    threads: &mut [T],
    mut tick: impl FnMut(Tick),
) -> (Vec<Recorder>, f64) {
    let mut recorders: Vec<Recorder> = (0..threads.len())
        .map(|t| Recorder::new(ctl, args, t))
        .collect();
    let mut window_s = 0.0;
    std::thread::scope(|scope| {
        for (thread, rec) in threads.iter_mut().zip(recorders.iter_mut()) {
            let ctl = Arc::clone(ctl);
            scope.spawn(move || loop {
                let phase = ctl.phase.load(Ordering::Acquire);
                if phase == PHASE_STOP {
                    break;
                }
                rec.timed = phase == PHASE_TIMED;
                thread.step(db, rec);
            });
        }
        std::thread::sleep(args.warmup());
        window_s = timed_window(ctl, args.seconds, &mut tick);
    });
    (recorders, window_s)
}

/// Opens the timed window, reports its start, every second or so and
/// its end to `tick`, stops the load after `seconds` and returns the
/// window's exact length.
pub fn timed_window(ctl: &Ctl, seconds: f64, tick: &mut impl FnMut(Tick)) -> f64 {
    ctl.start_timed();
    let began = Instant::now();
    tick(Tick::Start);
    let total = Duration::from_secs_f64(seconds);
    loop {
        let elapsed = began.elapsed();
        if elapsed >= total {
            break;
        }
        std::thread::sleep((total - elapsed).min(Duration::from_secs(1)));
        tick(Tick::Second);
    }
    ctl.stop();
    let window_s = began.elapsed().as_secs_f64();
    tick(Tick::End);
    window_s
}

// ---------------------------------------------------------------------
// Read-back after reopen
// ---------------------------------------------------------------------

/// What the close → reopen → read-back check measured.
#[derive(Debug, Default)]
pub struct ReadBack {
    /// `Db::open` time on the used directory, in milliseconds.
    pub reopen_ms: f64,
    /// Keys read back.
    pub attempted: u64,
    /// Keys whose value was not exactly the last acknowledged version.
    pub failed: u64,
    /// First few failure messages.
    pub failures: Vec<String>,
    /// Latency of each read-back `Db::get`, in nanoseconds.
    pub get_ns: Vec<u32>,
    /// The key indices read, in order.
    pub keys: Vec<u32>,
}

/// Reopens the store in `dir` and reads back the last acknowledged
/// value of up to [`config::VERIFY_SAMPLE`] written keys, chosen by
/// `seed`. All writers must have stopped. Returns the reopened store.
pub fn reopen_and_read_back(
    dir: &Path,
    env: &Arc<CountingEnv>,
    sizes: &Sizes,
    versions: &Versions,
    seed: u64,
) -> Result<(Db, ReadBack)> {
    let began = Instant::now();
    let db = Db::open(dir, config::store_options(env.clone())).map_err(err("reopen"))?;
    let mut out = ReadBack {
        reopen_ms: began.elapsed().as_secs_f64() * 1e3,
        ..ReadBack::default()
    };
    let mut written = versions.written_keys();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_0bac);
    let sample = (config::VERIFY_SAMPLE as usize).min(written.len());
    for i in 0..sample {
        let j = rng.random_range(i..written.len());
        written.swap(i, j);
    }
    for &key in &written[..sample] {
        let expect = versions.acked(key);
        let name = format_key(key, sizes.key_len);
        let began = Instant::now();
        let got = db.get(&name);
        out.get_ns
            .push(u32::try_from(began.elapsed().as_nanos()).unwrap_or(u32::MAX));
        out.keys.push(key as u32);
        out.attempted += 1;
        let verdict = match got {
            Ok(found) => versions.check_read(key, expect, found.as_deref()),
            Err(e) => Err(e.to_string()),
        };
        if let Err(message) = verdict {
            out.failed += 1;
            if out.failures.len() < 5 {
                out.failures.push(format!("read-back: {message}"));
            }
        }
    }
    Ok((db, out))
}
