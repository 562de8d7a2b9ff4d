//! Verdicts: one JSON object per checked run, plus counterexample
//! minimization.
//!
//! The soak binary emits these (one per line with `--json`) so CI and
//! EXPERIMENTS.md recipes can archive and diff them. A failing verdict
//! carries the minimized counterexample inline; the full history file
//! is written separately for `clsm-check --replay`.

use std::collections::{HashMap, HashSet};

use clsm_kv::record::{KvEvent, KvOp, RmwApplied};
use clsm_util::json;

use crate::history;
use crate::lin::{self, LinOutcome};
use crate::snapcheck::{self, CheckMode, RecoveredState, SnapViolation};

/// Everything the checkers concluded about one run.
#[derive(Debug)]
pub struct Verdict {
    /// Store name (`KvStore::name` of the system under test).
    pub system: String,
    /// `clean` or `crash`.
    pub mode: String,
    /// `serializable` or `linearizable`.
    pub check: String,
    /// Schedule seed.
    pub seed: u64,
    /// Events in the checked history.
    pub events: usize,
    /// `true` when every check passed.
    pub pass: bool,
    /// Failure descriptions (empty on pass).
    pub failures: Vec<String>,
    /// Minimized counterexample, when a failure admitted one. A value
    /// it observes first on a key without writing it is the state the
    /// cut-away part of the history left that key in.
    pub counterexample: Vec<KvEvent>,
}

impl Verdict {
    /// Serializes the verdict as one JSON object.
    pub fn to_json(&self) -> String {
        let failures: Vec<String> = self
            .failures
            .iter()
            .map(|f| format!("\"{}\"", json::escape(f)))
            .collect();
        let cex: Vec<String> = self
            .counterexample
            .iter()
            .map(history::event_to_json)
            .collect();
        format!(
            "{{\"system\":\"{}\",\"mode\":\"{}\",\"check\":\"{}\",\"seed\":{},\
             \"events\":{},\"pass\":{},\"failures\":[{}],\"counterexample\":[{}]}}",
            json::escape(&self.system),
            json::escape(&self.mode),
            json::escape(&self.check),
            self.seed,
            self.events,
            self.pass,
            failures.join(","),
            cex.join(",")
        )
    }
}

/// (key, observed value) pairs this event observed; `None` = absent.
fn observed(e: &KvEvent, out: &mut Vec<(Vec<u8>, Option<Vec<u8>>)>) {
    match &e.op {
        KvOp::Get { key, result } | KvOp::SnapshotGet { key, result, .. } => {
            out.push((key.clone(), result.clone()));
        }
        KvOp::Rmw { key, prev, .. } => out.push((key.clone(), prev.clone())),
        KvOp::Scan { result, .. } => {
            out.extend(result.iter().map(|(k, v)| (k.clone(), Some(v.clone()))));
        }
        _ => {}
    }
}

/// (key, written value) pairs this event wrote; `None` = delete.
fn written(e: &KvEvent, out: &mut HashSet<(Vec<u8>, Option<Vec<u8>>)>) {
    match &e.op {
        KvOp::Put { key, value }
        | KvOp::PutIfAbsent {
            key,
            value,
            stored: true,
        } => {
            out.insert((key.clone(), Some(value.clone())));
        }
        KvOp::Delete { key } => {
            out.insert((key.clone(), None));
        }
        KvOp::Rmw { key, applied, .. } => match applied {
            RmwApplied::Update(v) => {
                out.insert((key.clone(), Some(v.clone())));
            }
            RmwApplied::Delete => {
                out.insert((key.clone(), None));
            }
            RmwApplied::Abort => {}
        },
        KvOp::WriteBatch { entries, .. } => {
            for (k, v) in entries {
                out.insert((k.clone(), v.clone()));
            }
        }
        _ => {}
    }
}

/// Values written anywhere in the full history: minimization must not
/// drop the writer of a value (or, for observed absences, every
/// deleter) the slice still observes, or real failures degenerate into
/// uninformative fabricated ones — removing a write from a
/// linearizable history can make the remainder non-linearizable.
fn write_set(events: &[KvEvent]) -> HashSet<(Vec<u8>, Option<Vec<u8>>)> {
    let mut set = HashSet::new();
    for e in events {
        written(e, &mut set);
    }
    set
}

/// The register states `slice` must start from to stand for the full
/// history: per key, the one value `slice` observes whose writer it
/// dropped. `None` when no single initial state explains the slice —
/// a key has two such values (or one plus an observed initial
/// absence), or every observer of the value follows a completed
/// operation on the key, which the dropped writer may have followed
/// too.
///
/// This is what lets a chain be cut: in a history where each operation
/// observes its predecessor's write (concurrent RMWs on one key) no
/// writer can be dropped and every observation keep its own, but a
/// whole prefix can, leaving its last write as the initial state.
fn initial_states(
    slice: &[KvEvent],
    full_writes: &HashSet<(Vec<u8>, Option<Vec<u8>>)>,
) -> Option<HashMap<Vec<u8>, Option<Vec<u8>>>> {
    let mut slice_writes = HashSet::new();
    // Per key, the earliest response of any operation touching it.
    let mut first_response: HashMap<Vec<u8>, u64> = HashMap::new();
    let mut obs = Vec::new();
    for e in slice {
        let mut writes = HashSet::new();
        written(e, &mut writes);
        obs.clear();
        observed(e, &mut obs);
        for (k, _) in writes.iter().chain(&obs) {
            let r = first_response.entry(k.clone()).or_insert(e.response);
            *r = e.response.min(*r);
        }
        slice_writes.extend(writes);
    }
    // key -> (value, some observer of it can linearize first).
    let mut initial: HashMap<Vec<u8>, (Option<Vec<u8>>, bool)> = HashMap::new();
    for e in slice {
        obs.clear();
        observed(e, &mut obs);
        for kv in obs.drain(..) {
            if slice_writes.contains(&kv) {
                continue;
            }
            let dropped = full_writes.contains(&kv);
            if !dropped && kv.1.is_some() {
                // Written nowhere: the violation itself, not a cut.
                continue;
            }
            // An absence nobody deleted into is the true initial state
            // and needs no justification.
            let first = !dropped || e.invoke < first_response[&kv.0];
            let (key, value) = kv;
            let slot = initial.entry(key).or_insert_with(|| (value.clone(), false));
            if slot.0 != value {
                return None;
            }
            slot.1 |= first;
        }
    }
    initial.values().all(|(_, first)| *first).then(|| {
        initial
            .into_iter()
            .map(|(key, (value, _))| (key, value))
            .filter(|kv| full_writes.contains(kv))
            .collect()
    })
}

/// `true` when every value `slice` observes that the full history
/// wrote still has a writer in `slice`.
fn is_closed(slice: &[KvEvent], full_writes: &HashSet<(Vec<u8>, Option<Vec<u8>>)>) -> bool {
    initial_states(slice, full_writes).is_some_and(|initial| initial.is_empty())
}

/// Runs both checkers over `events` (and the recovered state, for
/// crash runs) and assembles the verdict.
pub fn check_history(
    system: &str,
    mode: &str,
    seed: u64,
    events: &[KvEvent],
    recovered: Option<&RecoveredState>,
    check_mode: CheckMode,
) -> Verdict {
    let mut failures = Vec::new();
    let mut counterexample = Vec::new();
    let full_writes = write_set(events);

    match lin::check_linearizable(events) {
        LinOutcome::Ok => {}
        LinOutcome::Violation(v) => {
            failures.push(format!("linearizability: {}", v.detail));
            // Minimize within the failing key's subhistory: the other
            // keys cannot matter (the register spec is per-key).
            let slice: Vec<KvEvent> = v.events.iter().map(|&i| events[i].clone()).collect();
            counterexample = lin::minimize(&slice, |ev| {
                initial_states(ev, &full_writes).is_some_and(|initial| {
                    matches!(
                        lin::check_linearizable_budget(ev, &initial, lin::DEFAULT_BUDGET),
                        LinOutcome::Violation(_)
                    )
                })
            });
        }
        LinOutcome::Inconclusive { key } => {
            failures.push(format!(
                "linearizability: search budget exhausted on key {key:02x?} (inconclusive)"
            ));
        }
    }

    let snap_violations = snapcheck::check_snapshots(events, check_mode);
    push_snap_failures(
        &snap_violations,
        events,
        &mut failures,
        &mut counterexample,
        |ev| is_closed(ev, &full_writes) && !snapcheck::check_snapshots(ev, check_mode).is_empty(),
    );

    if let Some(recovered) = recovered {
        let rec_violations = snapcheck::check_recovery(events, recovered);
        push_snap_failures(
            &rec_violations,
            events,
            &mut failures,
            &mut counterexample,
            |ev| {
                is_closed(ev, &full_writes) && !snapcheck::check_recovery(ev, recovered).is_empty()
            },
        );
    }

    Verdict {
        system: system.to_string(),
        mode: mode.to_string(),
        check: match check_mode {
            CheckMode::Serializable => "serializable".to_string(),
            CheckMode::Linearizable => "linearizable".to_string(),
        },
        seed,
        events: events.len(),
        pass: failures.is_empty(),
        failures,
        counterexample,
    }
}

fn push_snap_failures<F>(
    violations: &[SnapViolation],
    events: &[KvEvent],
    failures: &mut Vec<String>,
    counterexample: &mut Vec<KvEvent>,
    mut still_fails: F,
) where
    F: FnMut(&[KvEvent]) -> bool,
{
    for v in violations {
        failures.push(format!("{}: {}", v.condition, v.detail));
    }
    if let Some(first) = violations.first() {
        if counterexample.is_empty() {
            // Seed the shrink with the events the violation names plus
            // everything touching its key — enough context to stay
            // failing, small enough to shrink fast.
            let mut slice: Vec<KvEvent> = events
                .iter()
                .enumerate()
                .filter(|(i, e)| {
                    first.events.contains(i)
                        || e.op.key().is_some_and(|k| k == first.key.as_slice())
                })
                .map(|(_, e)| e.clone())
                .collect();
            if !still_fails(&slice) {
                // Context beyond the key mattered (scans, batches);
                // fall back to the whole history.
                slice = events.to_vec();
            }
            if still_fails(&slice) {
                *counterexample = lin::minimize(&slice, still_fails);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(thread: u32, invoke: u64, response: u64, op: KvOp) -> KvEvent {
        KvEvent {
            thread,
            invoke,
            response,
            ok: true,
            op,
        }
    }

    fn rmw(thread: u32, invoke: u64, response: u64, prev: Option<u64>, next: u64) -> KvEvent {
        ev(
            thread,
            invoke,
            response,
            KvOp::Rmw {
                key: b"k".to_vec(),
                prev: prev.map(|v| v.to_le_bytes().to_vec()),
                applied: RmwApplied::Update(next.to_le_bytes().to_vec()),
            },
        )
    }

    /// Every RMW observes its predecessor's write, so no single event
    /// can go while each observation keeps its writer; the race (two
    /// RMWs that both saw value 39) sits at the end of the chain.
    #[test]
    fn rmw_chain_minimizes_to_the_racing_pair() {
        let mut events: Vec<KvEvent> = (0..40u64)
            .map(|i| rmw(0, 10 * i, 10 * i + 5, i.checked_sub(1), i))
            .collect();
        events.push(rmw(1, 400, 409, Some(39), 100));
        events.push(rmw(2, 401, 408, Some(39), 101));
        let verdict = check_history("t", "clean", 0, &events, None, CheckMode::Serializable);
        assert!(!verdict.pass);
        assert!(
            verdict.counterexample.len() <= 3,
            "{:?}",
            verdict.counterexample
        );
        assert!(verdict.counterexample.contains(&events[40]));
        assert!(verdict.counterexample.contains(&events[41]));
    }

    /// A dropped writer's value may stand in as the initial state only
    /// if an observer of it can linearize first: here the writer could
    /// have run between the kept put and the kept get.
    #[test]
    fn a_cut_never_reorders_a_dropped_writer_before_a_kept_one() {
        let key = b"k".to_vec();
        let put = |i, r, v: &[u8]| {
            ev(
                0,
                i,
                r,
                KvOp::Put {
                    key: b"k".to_vec(),
                    value: v.to_vec(),
                },
            )
        };
        let get = ev(
            1,
            7,
            8,
            KvOp::Get {
                key: key.clone(),
                result: Some(b"v0".to_vec()),
            },
        );
        let full = vec![put(1, 2, b"z"), put(3, 4, b"v0"), get.clone()];
        let writes = write_set(&full);
        assert_eq!(
            initial_states(&[full[0].clone(), get.clone()], &writes),
            None
        );
        // With nothing completed before it, the get may come first.
        assert_eq!(
            initial_states(&[get], &writes),
            Some(HashMap::from([(key, Some(b"v0".to_vec()))]))
        );
        assert!(is_closed(&full, &writes));
    }
}
