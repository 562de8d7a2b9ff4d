//! Background work as jobs: the one place that decides when a flush or
//! a compaction runs.
//!
//! Algorithm 1's merge is one process with two short hooks. Here it is
//! two kinds of [`Job`] over one wake state, a [`JobState`] behind one
//! mutex and one condvar. [`DbInner::next_job`] decides what runs next,
//! [`DbInner::run_job`] runs it and records its outcome, and every
//! background thread runs the same [`background_loop`]: `clsm-flush`
//! serves flushes only, so a flush never queues behind a compaction,
//! and each `clsm-compact-{i}` serves compactions. The third kind,
//! [`Job::Log`], is the WAL logger's step; `clsm-logger` runs it on the
//! logging queue's own batching timer.
//!
//! A test can open a store with no background threads at all
//! ([`Db::open_stepped`]) and run the due jobs itself, log steps
//! included, in an order it chooses, on its own threads.

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use clsm_util::error::Result;

use crate::db::{Db, DbInner};
use crate::stats::BACKGROUND_ERRORS;

/// A failed job is retried this long after it failed (when it is
/// retried at all: see [`DbInner::run_job`]).
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

/// Every fact that decides whether a background thread runs or sleeps.
/// Whoever changes one notifies the condvar beside it, under its lock.
#[derive(Debug, Default)]
pub(crate) struct JobState {
    pub(crate) flush_requested: bool,
    /// Jobs running, by kind (`Job as usize`).
    pub(crate) running: [usize; 3],
    /// Version installs so far (see `DbInner::note_version`).
    pub(crate) installs: u64,
    /// `installs` when a compaction last found nothing it could claim.
    /// Compaction pressure depends only on the version, so it is not
    /// due again until the next install.
    compaction_idle_at: Option<u64>,
    pub(crate) shutdown: bool,
    /// The last failed job's error, for the doctor.
    pub(crate) last_error: Option<String>,
    /// Failures in a row, by kind: reset by a run of that kind that did
    /// work.
    failures: [u32; 3],
}

impl DbInner {
    /// Asks for a flush, waking the flush thread if none was asked for.
    /// `state` is `self.jobs`, locked.
    pub(crate) fn request_flush_locked(&self, state: &mut JobState) {
        if !state.flush_requested {
            state.flush_requested = true;
            self.jobs_cv.notify_all();
        }
    }

    /// The job a thread serving `serves` runs next, if it is due: a
    /// flush once one is asked for and none is running; a compaction
    /// while the tree needs one, unless one found nothing to claim and
    /// no version was installed since; a log step while the WAL's queue
    /// holds records. Once the store is poisoned only log steps are
    /// due: nothing can commit again, but the logger still writes.
    fn next_job(&self, state: &JobState, serves: Job) -> Option<Job> {
        let due = match serves {
            Job::Log => self.store.wal_queue_bytes() > 0,
            _ if self.store.poisoned().is_some() => false,
            Job::Flush => state.flush_requested && state.running[Job::Flush as usize] == 0,
            Job::Compact => {
                state.compaction_idle_at != Some(state.installs) && self.store.needs_compaction()
            }
        };
        due.then_some(serves)
    }

    /// Runs `job` on the calling thread and records its outcome: `Ok`
    /// says whether it did any work. A flush while another runs does
    /// nothing.
    ///
    /// A flush stays requested while it runs, so the writers that find
    /// `Pm` full before its `beforeMerge` ask for nothing more. A
    /// failure counts in `db.background_errors` and is kept for the
    /// doctor. A flush that failed with `P'm` parked stays requested
    /// (stalled writers wait, untimed, for it to finish); a compaction
    /// stays due while the tree needs it. Nothing else is retried, and
    /// nothing at all once the store is poisoned — which the
    /// [`FAILURES_BEFORE_READ_ONLY`]th failure in a row of one kind
    /// does, waking the stalled writers with its error.
    pub(crate) fn run_job(&self, job: Job) -> Result<bool> {
        let taken_at = {
            let mut state = self.jobs.lock();
            if job == Job::Flush && state.running[Job::Flush as usize] > 0 {
                return Ok(false);
            }
            state.running[job as usize] += 1;
            state.installs
        };
        let result = match job {
            Job::Flush => self.flush_once(),
            Job::Compact => self.compact_once(),
            Job::Log => self.store.flush_wal().map(|()| true),
        };
        let mut state = self.jobs.lock();
        state.running[job as usize] -= 1;
        if job == Job::Flush {
            state.flush_requested = result.is_err() && self.pm_prev.load().is_some();
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
                self.metrics.registry.counter(BACKGROUND_ERRORS).inc();
                state.last_error = Some(e.to_string());
                state.failures[job as usize] += 1;
                if state.failures[job as usize] >= FAILURES_BEFORE_READ_ONLY {
                    self.store.poison(e.clone());
                }
            }
        }
        self.jobs_cv.notify_all();
        result
    }

    /// One background compaction, if the tree needs one and its inputs
    /// are not claimed. An L0→L1 merge (one that took L0 tables out of
    /// the tree — flushes only ever add them) stores the L0 drain rate.
    fn compact_once(&self) -> Result<bool> {
        // Only L0's numbers and sizes: holding the version itself would
        // pin the compaction's inputs past its removal pass, leaving
        // them on disk until the next job.
        let l0_before: Vec<(u64, u64)> = self.store.current_version().levels[0]
            .iter()
            .map(|f| (f.number, f.file_size))
            .collect();
        let began = Instant::now();
        if !self.store.maybe_compact(self.gc_watermark())? {
            return Ok(false);
        }
        self.metrics.compactions.inc();
        let after = self.store.current_version();
        let l0_retired: u64 = l0_before
            .iter()
            .filter(|&&(number, _)| !after.levels[0].iter().any(|g| g.number == number))
            .map(|&(_, size)| size)
            .sum();
        if l0_retired > 0 {
            self.flow.l0_drained(l0_retired, began.elapsed());
        }
        self.note_version();
        Ok(true)
    }
}

/// Starts the WAL logger (the store joins it), the flush thread and
/// `opts.compaction_threads` compaction threads, adding each of the
/// last to `workers`. Stops at the first thread that cannot be spawned
/// and returns that error.
pub(crate) fn spawn_workers(inner: &Arc<DbInner>, workers: &mut Vec<JoinHandle<()>>) -> Result<()> {
    inner.store.start_logger()?;
    let compactors =
        (0..inner.opts.compaction_threads).map(|i| (format!("clsm-compact-{i}"), Job::Compact));
    for (name, job) in std::iter::once(("clsm-flush".to_owned(), Job::Flush)).chain(compactors) {
        let inner = Arc::clone(inner);
        workers.push(
            std::thread::Builder::new()
                .name(name)
                .spawn(move || background_loop(&inner, job))?,
        );
    }
    Ok(())
}

/// A background thread: runs `serves` jobs as they fall due until
/// shutdown. It sleeps untimed while none is due — everything that can
/// make one due notifies under the state lock — and for
/// [`RETRY_BACKOFF`] after a failure, so an error does not spin.
fn background_loop(inner: &DbInner, serves: Job) {
    loop {
        let job = {
            let mut state = inner.jobs.lock();
            loop {
                if state.shutdown {
                    return;
                }
                if let Some(job) = inner.next_job(&state, serves) {
                    break job;
                }
                inner.jobs_cv.wait(&mut state);
            }
        };
        if inner.run_job(job).is_err() {
            std::thread::sleep(RETRY_BACKOFF);
        }
    }
}

/// The stepped scheduler's other two hooks (see [`Db::open_stepped`]).
impl Db {
    /// The jobs the background threads would run now, flush first.
    #[doc(hidden)]
    pub fn due_jobs(&self) -> Vec<Job> {
        let state = self.inner.jobs.lock();
        [Job::Flush, Job::Compact, Job::Log]
            .into_iter()
            .filter(|&job| self.inner.next_job(&state, job).is_some())
            .collect()
    }

    /// Runs `job` on the calling thread, exactly as a background thread
    /// would, and returns whether it did any work.
    #[doc(hidden)]
    pub fn run_job(&self, job: Job) -> Result<bool> {
        self.inner.run_job(job)
    }
}
