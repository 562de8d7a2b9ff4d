//! Background work as jobs: the one place that decides when a flush or
//! a compaction runs, and the one flush, for cLSM and for the baselines
//! alike.
//!
//! Algorithm 1's merge is one process with two short hooks. Here it is
//! two kinds of [`Job`] over one wake state, a [`JobState`] behind the
//! one mutex and condvar of a [`Jobs`]. [`next_job`] decides what runs
//! next, [`run_job`] runs it and records its outcome, and every
//! background thread runs the same [`background_loop`]: `clsm-flush`
//! serves flushes only, so a flush never queues behind a compaction,
//! and each `clsm-compact-{i}` serves compactions. The third kind,
//! [`Job::Log`], is the WAL logger's step; `clsm-logger` runs it on the
//! logging queue's own batching timer.
//!
//! The store the jobs work on is a [`JobHost`]: `Db`'s, or a baseline's
//! (`clsm_baselines`), which differ only in how writers synchronize.
//! The runtime is generic over it, never a trait object. The one
//! [`flush`] runs over the host's [`Components`] under its exclusive
//! guard; a write that finds `Pm` full waits for its swap
//! ([`Jobs::wait_for_room`]). A store opened stepped has no thread: a
//! test runs [`Workers::due_jobs`] itself, in an order it chooses.

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use clsm_util::error::{Error, Result};
use lsm_storage::Store;

use crate::components::Components;
#[cfg(doc)]
use crate::db::Db;
use crate::memtable::Memtable;

/// A failed job is retried this long after it failed (when it is
/// retried at all: see [`run_job`]).
const RETRY_BACKOFF: Duration = Duration::from_millis(10);

/// After this many failures in a row of one kind of job the store goes
/// read-only with the last one's error. A retry rides out a transient
/// fault; a disk that keeps failing must not keep writers stalled
/// behind a flush that can never finish.
const FAILURES_BEFORE_READ_ONLY: u32 = 8;

/// One unit of background work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Job {
    /// Algorithm 1's merge of `Pm` into the disk component, with its
    /// `beforeMerge`/`afterMerge` hooks.
    Flush,
    /// One compaction, of whatever `lsm_storage::compaction::pick`
    /// picks.
    Compact,
    /// One log step: write the WAL's queued records to the file, as the
    /// logger thread does when its batching window closes.
    Log,
}

/// A store whose flushes and compactions run as [`Job`]s: the seam
/// between the runtime and the store's concurrency control.
#[doc(hidden)]
pub trait JobHost: Send + Sync + 'static {
    /// The storage stack the jobs work on.
    fn store(&self) -> &Store;

    /// The wake state the background threads, waiting writers and
    /// quiescence waiters share.
    fn jobs(&self) -> &Jobs;

    /// `Pm` and `P'm`, which the flush swings and merges.
    fn components(&self) -> &Components;

    /// Runs `f` under the guard that excludes every writer's insert:
    /// `beforeMerge` and `afterMerge` run inside it.
    fn exclusively<R>(&self, f: impl FnOnce() -> R) -> R;

    /// The version-GC watermark, read inside `beforeMerge`'s hold
    /// (§3.2.1).
    fn gc_watermark(&self) -> u64;

    /// Inside `beforeMerge`'s hold, just before `old` becomes `P'm`.
    fn before_swing(&self, _old: &Memtable) {}

    /// Once the merge of `imm` into L0 is installed, `took` after it
    /// began; calls [`Jobs::note_install`].
    fn merged(&self, _imm: &Memtable, _took: Duration) {
        self.jobs().note_install();
    }

    /// Inside `afterMerge`'s hold, once `P'm` is dropped.
    fn after_merge(&self) {}

    /// One compaction, if the tree needs one and its inputs are not
    /// claimed; calls [`Jobs::note_install`] when it did one.
    fn compact_once(&self) -> Result<bool>;
}

/// Algorithm 1's merge (lines 8–17) for every store: of the `P'm` a
/// failed flush left parked, else of `Pm`, swung out first with a WAL
/// cut. `Ok(false)` when there was nothing to flush. `beforeMerge` does
/// no file I/O: the next log and `Pm` are made before the hold and the
/// old log is flushed after it (see `lsm_storage::wal`), which is safe
/// as only this job swings, one at a time ([`run_job`]).
fn flush<H: JobHost>(host: &H) -> Result<bool> {
    let (store, components) = (host.store(), host.components());
    let fresh = match components.pm_prev() {
        Some(_) => None,
        None if components.pm().is_empty() => return Ok(false),
        None => Some((store.prepare_wal()?, Arc::new(Memtable::new()))),
    };
    let cut = fresh.is_some();
    let (imm, new_wal, watermark) = host.exclusively(|| {
        let imm = match fresh {
            None => components
                .pm_prev()
                .expect("only a flush clears a parked P'm"),
            Some((next_wal, pm)) => {
                host.before_swing(&components.pm());
                let old = components.swing(pm);
                store.cut_wal(next_wal)?;
                old
            }
        };
        Ok::<_, Error>((imm, store.current_wal_number(), host.gc_watermark()))
    })?;
    if cut {
        host.jobs().note_swap();
        store.flush_wal()?;
    }

    let began = Instant::now();
    store.flush_memtable(&mut imm.internal_iter(), watermark, imm.max_ts(), new_wal)?;
    host.merged(&imm, began.elapsed());

    // `Pd` already holds the data: dropping `P'm` last keeps the read
    // order `Pm → P'm → Pd` gap-free.
    host.exclusively(|| {
        components.clear_prev();
        host.after_merge();
    });
    Ok(true)
}

/// Every fact that decides whether a background thread runs or sleeps.
/// Whoever changes one notifies the condvar beside it, under its lock.
#[derive(Debug, Default)]
pub(crate) struct JobState {
    flush_requested: bool,
    /// Jobs running, by kind (`Job as usize`).
    running: [usize; 3],
    /// Version installs so far (see [`Jobs::note_install`]).
    installs: u64,
    /// `installs` when a compaction last found nothing it could claim.
    /// Compaction pressure depends only on the version, so it is not
    /// due again until the next install.
    compaction_idle_at: Option<u64>,
    shutdown: bool,
    /// Failed jobs so far (`db.background_errors`).
    pub(crate) errors: u64,
    /// The last failed job's error, for the doctor.
    pub(crate) last_error: Option<String>,
    /// Failures in a row, by kind: reset by a run of that kind that did
    /// work.
    failures: [u32; 3],
}

/// A [`JobState`] with the condvar that announces its changes. Its
/// condvar also wakes stalled writers and quiescence waiters.
#[doc(hidden)]
#[derive(Debug, Default)]
pub struct Jobs {
    pub(crate) state: Mutex<JobState>,
    cv: Condvar,
}

impl Jobs {
    /// Asks for a flush, waking the flush thread if none was asked for.
    pub fn request_flush(&self) {
        self.request_flush_locked(&mut self.state.lock());
    }

    fn request_flush_locked(&self, state: &mut JobState) {
        if !state.flush_requested {
            state.flush_requested = true;
            self.cv.notify_all();
        }
    }

    /// Counts a version install and wakes everyone waiting on the tree
    /// to change.
    pub fn note_install(&self) {
        let mut state = self.state.lock();
        state.installs += 1;
        self.cv.notify_all();
    }

    /// Wakes everyone waiting for room: the flush swapped `Pm`.
    fn note_swap(&self) {
        let _state = self.state.lock();
        self.cv.notify_all();
    }

    /// The one stall: asks for a flush and blocks while a write must wait
    /// for room ([`Components::write_waits`]), unless the runtime shuts
    /// down or `store` is poisoned; then fails with the poison, if any.
    /// The condition is checked under the state lock, and every swap, job
    /// end and shutdown notifies under it, so the wait needs no timed
    /// backstop; a flush that ends with `Pm` full stays asked for.
    pub fn wait_for_room(&self, store: &Store, components: &Components) -> Result<()> {
        let mut state = self.state.lock();
        self.request_flush_locked(&mut state);
        while components.write_waits() && !state.shutdown && store.poisoned().is_none() {
            self.cv.wait(&mut state);
        }
        drop(state);
        store.poisoned().map_or(Ok(()), Err)
    }
}

/// The job a thread serving `serves` runs next, if it is due: a flush
/// once one is asked for and none is running; a compaction while the
/// tree needs one, unless one found nothing to claim and no version was
/// installed since; a log step while the WAL's queue holds records.
/// Once the store is poisoned only log steps are due: nothing can
/// commit again, but the logger still writes.
fn next_job<H: JobHost>(host: &H, state: &JobState, serves: Job) -> Option<Job> {
    let store = host.store();
    let due = match serves {
        Job::Log => store.wal_queue_bytes() > 0,
        _ if store.poisoned().is_some() => false,
        Job::Flush => state.flush_requested && state.running[Job::Flush as usize] == 0,
        Job::Compact => {
            state.compaction_idle_at != Some(state.installs) && store.needs_compaction()
        }
    };
    due.then_some(serves)
}

/// Runs `job` on the calling thread and records its outcome: `Ok` says
/// whether it did any work. A flush while another runs does nothing.
///
/// A flush stays requested while it runs, so the writers that find the
/// memtable full before its swap ask for nothing more; it stays
/// requested after it, too, while `Pm` is full (writers that filled it
/// during the merge wait, untimed, for its swap). A failure counts in
/// `errors` and is kept for the doctor. A flush that failed with its
/// immutable memtable parked stays requested; a compaction stays due
/// while the tree needs it. Nothing else is retried, and nothing at all once the store
/// is poisoned — which the [`FAILURES_BEFORE_READ_ONLY`]th failure in a
/// row of one kind does, waking the stalled writers with its error.
fn run_job<H: JobHost>(host: &H, job: Job) -> Result<bool> {
    let jobs = host.jobs();
    let taken_at = {
        let mut state = jobs.state.lock();
        if job == Job::Flush && state.running[Job::Flush as usize] > 0 {
            return Ok(false);
        }
        state.running[job as usize] += 1;
        state.installs
    };
    let result = match job {
        Job::Flush => flush(host),
        Job::Compact => host.compact_once(),
        Job::Log => host.store().flush_wal().map(|()| true),
    };
    let mut state = jobs.state.lock();
    state.running[job as usize] -= 1;
    if job == Job::Flush {
        let components = host.components();
        state.flush_requested =
            (result.is_err() && components.pm_prev().is_some()) || components.full();
    }
    match &result {
        Ok(true) => state.failures[job as usize] = 0,
        Ok(false) if job == Job::Compact => state.compaction_idle_at = Some(taken_at),
        Ok(false) => {}
        Err(e) => {
            // A failed compaction released its claims: inputs
            // another one found claimed may be free now.
            if job == Job::Compact {
                state.compaction_idle_at = None;
            }
            state.errors += 1;
            state.last_error = Some(e.to_string());
            state.failures[job as usize] += 1;
            if state.failures[job as usize] >= FAILURES_BEFORE_READ_ONLY {
                host.store().poison(e.clone());
            }
        }
    }
    jobs.cv.notify_all();
    result
}

/// Waits, untimed, until no flush is asked for, running or parked, no
/// job runs and the tree needs no compaction; fails with the store's
/// poison instead. While `entry`, the `Pm` the caller found, is
/// unflushed it asks for a flush.
///
/// Every transition that ends "busy" (a job finishing, a version
/// install) notifies under the state lock, and while the store is busy
/// some job is asked for or running, and its end notifies. With no
/// background threads (the stepped scheduler) it waits for jobs some
/// other thread runs.
#[doc(hidden)]
pub fn wait_idle<H: JobHost>(host: &H, entry: &Arc<Memtable>) -> Result<()> {
    let (jobs, components) = (host.jobs(), host.components());
    let mut state = jobs.state.lock();
    loop {
        if let Some(e) = host.store().poisoned() {
            return Err(e);
        }
        if !entry.is_empty() && Arc::ptr_eq(&components.pm(), entry) {
            jobs.request_flush_locked(&mut state);
        }
        let busy = state.flush_requested
            || state.running != [0; 3]
            || components.pm_prev().is_some()
            || host.store().needs_compaction();
        if !busy {
            return Ok(());
        }
        jobs.cv.wait(&mut state);
    }
}

/// A store's background threads: none for the stepped scheduler, else
/// the WAL logger (the store joins it), one flush thread and the
/// compaction threads. Dropping it stops and joins them and pushes the
/// WAL's queued records to the OS.
#[doc(hidden)]
pub struct Workers<H: JobHost> {
    host: Arc<H>,
    threads: Vec<JoinHandle<()>>,
}

impl<H: JobHost> Workers<H> {
    /// No threads yet: nothing runs until [`Workers::start`], or until
    /// a test runs the jobs itself.
    pub fn new(host: &Arc<H>) -> Self {
        Workers {
            host: Arc::clone(host),
            threads: Vec::new(),
        }
    }

    /// The jobs the background threads would run now, flush first: the
    /// stepped scheduler's view of a store whose threads never started.
    pub fn due_jobs(&self) -> Vec<Job> {
        let state = self.host.jobs().state.lock();
        [Job::Flush, Job::Compact, Job::Log]
            .into_iter()
            .filter(|&job| next_job(&*self.host, &state, job).is_some())
            .collect()
    }

    /// Runs `job` on the calling thread, exactly as a background thread
    /// would, and returns whether it did any work.
    pub fn run_job(&self, job: Job) -> Result<bool> {
        run_job(&*self.host, job)
    }

    /// Starts the WAL logger, the flush thread and `compaction_threads`
    /// compaction threads. Stops at the first thread that cannot be
    /// spawned and returns that error; dropping `self` then stops the
    /// ones that started.
    pub fn start(&mut self, compaction_threads: usize) -> Result<()> {
        self.host.store().start_logger()?;
        let compactors =
            (0..compaction_threads).map(|i| (format!("clsm-compact-{i}"), Job::Compact));
        for (name, job) in std::iter::once(("clsm-flush".to_owned(), Job::Flush)).chain(compactors)
        {
            let host = Arc::clone(&self.host);
            self.threads.push(
                std::thread::Builder::new()
                    .name(name)
                    .spawn(move || background_loop(&*host, job))?,
            );
        }
        Ok(())
    }
}

impl<H: JobHost> Drop for Workers<H> {
    fn drop(&mut self) {
        let jobs = self.host.jobs();
        {
            let mut state = jobs.state.lock();
            state.shutdown = true;
            jobs.cv.notify_all();
        }
        for h in self.threads.drain(..) {
            let _ = h.join();
        }
        // Unflushed memtable data stays recoverable via the WAL; make
        // sure the logging queue has pushed it to the OS.
        let _ = self.host.store().sync_wal();
    }
}

/// A background thread: runs `serves` jobs as they fall due until
/// shutdown. It sleeps untimed while none is due — everything that can
/// make one due notifies under the state lock — and for
/// [`RETRY_BACKOFF`] after a failure, so an error does not spin.
fn background_loop<H: JobHost>(host: &H, serves: Job) {
    let jobs = host.jobs();
    loop {
        let job = {
            let mut state = jobs.state.lock();
            loop {
                if state.shutdown {
                    return;
                }
                if let Some(job) = next_job(host, &state, serves) {
                    break job;
                }
                jobs.cv.wait(&mut state);
            }
        };
        if run_job(host, job).is_err() {
            std::thread::sleep(RETRY_BACKOFF);
        }
    }
}
