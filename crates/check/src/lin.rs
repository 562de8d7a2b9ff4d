//! Per-key linearizability checking (Wing & Gong, with
//! P-compositionality).
//!
//! Point operations — `put`, `get`, `delete`, `put_if_absent`,
//! `read_modify_write`, and the per-key effects of atomic batches —
//! are checked against a sequential register specification. Because
//! the register spec is *compositional*, a history is linearizable iff
//! each per-key subhistory is, so the search runs independently per
//! key (this is the P-compositionality optimization: search cost is
//! exponential in the per-key concurrency, not the global one).
//!
//! The search itself is the classic Wing–Gong DFS with Lowe's
//! memoization: a configuration is the pair (set of linearized ops,
//! abstract state); configurations that already failed are never
//! re-explored. At each step the candidates are the *minimal* pending
//! ops — those not preceded (in real time) by another pending op.
//!
//! Cross-key claims (snapshot consistency, batch atomicity) are out of
//! scope here; [`crate::snapcheck`] covers them.

use std::collections::{HashMap, HashSet};

use clsm_kv::record::{KvEvent, KvOp, RmwApplied};

/// Outcome of a linearizability check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinOutcome {
    /// Every per-key subhistory is linearizable.
    Ok,
    /// A key's subhistory admits no linearization.
    Violation(LinViolation),
    /// The search budget was exhausted before a verdict (rare; raise
    /// the budget or shrink the schedule).
    Inconclusive {
        /// Key whose search ran out of budget.
        key: Vec<u8>,
    },
}

/// A non-linearizable per-key subhistory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinViolation {
    /// The key whose subhistory failed.
    pub key: Vec<u8>,
    /// Indexes (into the checked event slice) of the ops involved.
    pub events: Vec<usize>,
    /// Human-readable explanation.
    pub detail: String,
}

/// One register-level operation extracted from an event.
#[derive(Debug, Clone)]
enum RegOp {
    /// Unconditional write (put, delete, batch entry): `None` deletes.
    Write(Option<Vec<u8>>),
    /// Observed value.
    Get(Option<Vec<u8>>),
    /// Conditional insert and whether the store claims it stored.
    Pia { value: Vec<u8>, stored: bool },
    /// Atomic read-modify-write: observed previous value + effect.
    Rmw {
        prev: Option<Vec<u8>>,
        applied: RmwApplied,
    },
}

struct PerKeyOp {
    event: usize,
    invoke: u64,
    response: u64,
    op: RegOp,
}

/// Default DFS step budget per key. Schedules the driver produces stay
/// far below this; it exists so adversarial replay files cannot wedge
/// the checker.
pub const DEFAULT_BUDGET: u64 = 20_000_000;

/// Checks the point-op portion of `events` for per-key linearizability.
///
/// Failed (`ok == false`) events are skipped: the driver joins workers
/// before collecting histories, so they only appear in hand-edited
/// replay files where their effects are unknowable black-box.
pub fn check_linearizable(events: &[KvEvent]) -> LinOutcome {
    check_linearizable_budget(events, &HashMap::new(), DEFAULT_BUDGET)
}

/// [`check_linearizable`] with an explicit per-key step budget, and
/// for a *slice* of a longer history: a key named in `initial` starts
/// holding that value instead of absent (the state the dropped prefix
/// left behind).
pub fn check_linearizable_budget(
    events: &[KvEvent],
    initial: &HashMap<Vec<u8>, Option<Vec<u8>>>,
    budget: u64,
) -> LinOutcome {
    let mut per_key: HashMap<Vec<u8>, Vec<PerKeyOp>> = HashMap::new();
    for (idx, e) in events.iter().enumerate() {
        if !e.ok {
            continue;
        }
        let mut push = |key: &[u8], op: RegOp| {
            per_key.entry(key.to_vec()).or_default().push(PerKeyOp {
                event: idx,
                invoke: e.invoke,
                response: e.response,
                op,
            });
        };
        match &e.op {
            KvOp::Put { key, value } => push(key, RegOp::Write(Some(value.clone()))),
            KvOp::Delete { key } => push(key, RegOp::Write(None)),
            KvOp::Get { key, result } => push(key, RegOp::Get(result.clone())),
            KvOp::PutIfAbsent { key, value, stored } => push(
                key,
                RegOp::Pia {
                    value: value.clone(),
                    stored: *stored,
                },
            ),
            KvOp::Rmw { key, prev, applied } => push(
                key,
                RegOp::Rmw {
                    prev: prev.clone(),
                    applied: applied.clone(),
                },
            ),
            KvOp::WriteBatch { entries, .. } => {
                // The batch is one atomic multi-key write; per key its
                // effect is the last entry for that key. Cross-key
                // atomicity is snapcheck's job.
                let mut last: HashMap<&[u8], &Option<Vec<u8>>> = HashMap::new();
                for (k, v) in entries {
                    last.insert(k.as_slice(), v);
                }
                for (k, v) in last {
                    push(k, RegOp::Write((*v).clone()));
                }
            }
            // Snapshot reads are serializable, not linearizable, by
            // design (§ "snapshot scans"); they are checked separately.
            KvOp::SnapshotCreate { .. } | KvOp::SnapshotGet { .. } | KvOp::Scan { .. } => {}
        }
    }

    for (key, mut ops) in per_key {
        ops.sort_by_key(|o| o.invoke);
        match check_key(&ops, initial.get(&key).and_then(|v| v.as_deref()), budget) {
            KeyOutcome::Ok => {}
            KeyOutcome::Violation => {
                return LinOutcome::Violation(LinViolation {
                    events: ops.iter().map(|o| o.event).collect(),
                    detail: format!(
                        "no linearization of the {} ops on key {:02x?} exists",
                        ops.len(),
                        key
                    ),
                    key,
                });
            }
            KeyOutcome::Exhausted => return LinOutcome::Inconclusive { key },
        }
    }
    LinOutcome::Ok
}

enum KeyOutcome {
    Ok,
    Violation,
    Exhausted,
}

/// Interned abstract register states (`Option<Vec<u8>>` values).
struct States {
    ids: HashMap<Option<Vec<u8>>, u32>,
}

impl States {
    fn new() -> States {
        States {
            ids: HashMap::new(),
        }
    }

    fn intern(&mut self, v: Option<&[u8]>) -> u32 {
        let next = self.ids.len() as u32;
        *self.ids.entry(v.map(|v| v.to_vec())).or_insert(next)
    }
}

/// Applies `op` to interned state `state`; `Some(new_state)` if legal.
fn step(states: &mut States, values: &[Option<Vec<u8>>], state: u32, op: &RegOp) -> Option<u32> {
    let current = &values[state as usize];
    match op {
        RegOp::Write(v) => Some(states.intern(v.as_deref())),
        RegOp::Get(r) => (r == current).then_some(state),
        RegOp::Pia { value, stored } => {
            if *stored {
                current.is_none().then(|| states.intern(Some(value)))
            } else {
                current.is_some().then_some(state)
            }
        }
        RegOp::Rmw { prev, applied } => {
            if prev != current {
                return None;
            }
            Some(match applied {
                RmwApplied::Update(v) => states.intern(Some(v)),
                RmwApplied::Delete => states.intern(None),
                RmwApplied::Abort => state,
            })
        }
    }
}

/// A fixed-capacity bitset over op indexes.
#[derive(Clone, PartialEq, Eq, Hash)]
struct BitSet(Vec<u64>);

impl BitSet {
    fn new(n: usize) -> BitSet {
        BitSet(vec![0; n.div_ceil(64)])
    }

    fn set(&mut self, i: usize) {
        self.0[i / 64] |= 1 << (i % 64);
    }

    fn clear(&mut self, i: usize) {
        self.0[i / 64] &= !(1 << (i % 64));
    }

    fn get(&self, i: usize) -> bool {
        self.0[i / 64] & (1 << (i % 64)) != 0
    }
}

/// Wing–Gong DFS over one key's subhistory (iterative, memoized).
fn check_key(ops: &[PerKeyOp], initial: Option<&[u8]>, budget: u64) -> KeyOutcome {
    let n = ops.len();
    if n == 0 {
        return KeyOutcome::Ok;
    }

    let mut states = States::new();
    let mut values: Vec<Option<Vec<u8>>> = vec![initial.map(|v| v.to_vec())];
    let initial = states.intern(initial);
    // `values[id]` is the concrete value behind interned state `id`.
    // Rebuilt lazily because `States::intern` may add entries mid-step.
    let refresh = |states: &States, values: &mut Vec<Option<Vec<u8>>>| {
        values.resize(states.ids.len(), None);
        for (v, id) in &states.ids {
            values[*id as usize] = v.clone();
        }
    };

    // Candidates of a configuration: pending ops minimal in the
    // real-time precedence order. Walking pending ops by invoke with a
    // running min of responses finds exactly those.
    let candidates = |linearized: &BitSet,
                      state: u32,
                      states: &mut States,
                      values: &mut Vec<Option<Vec<u8>>>| {
        let mut cands: Vec<(usize, u32)> = Vec::new();
        let mut min_response = u64::MAX;
        // `step` only appends new states, so one refresh covers every
        // lookup of the (pre-existing) current state below.
        refresh(states, values);
        for (i, op) in ops.iter().enumerate() {
            if linearized.get(i) {
                continue;
            }
            if op.invoke >= min_response {
                break;
            }
            if let Some(next) = step(states, values, state, &op.op) {
                cands.push((i, next));
            }
            min_response = min_response.min(op.response);
        }
        cands
    };

    struct Frame {
        /// Op whose linearization entered this configuration.
        entered_via: Option<usize>,
        cands: Vec<(usize, u32)>,
        next: usize,
    }

    let mut linearized = BitSet::new(n);
    let mut done = 0usize;
    let mut seen: HashSet<(BitSet, u32)> = HashSet::new();
    let mut steps = 0u64;

    let mut stack = vec![Frame {
        entered_via: None,
        cands: candidates(&linearized, initial, &mut states, &mut values),
        next: 0,
    }];

    while let Some(frame) = stack.last_mut() {
        if let Some(&(op, next_state)) = frame.cands.get(frame.next) {
            frame.next += 1;
            linearized.set(op);
            done += 1;
            if done == n {
                return KeyOutcome::Ok;
            }
            if !seen.insert((linearized.clone(), next_state)) {
                // Configuration already failed via another order.
                linearized.clear(op);
                done -= 1;
                continue;
            }
            steps += 1;
            if steps > budget {
                return KeyOutcome::Exhausted;
            }
            let cands = candidates(&linearized, next_state, &mut states, &mut values);
            stack.push(Frame {
                entered_via: Some(op),
                cands,
                next: 0,
            });
        } else {
            let entered_via = frame.entered_via;
            stack.pop();
            if let Some(op) = entered_via {
                linearized.clear(op);
                done -= 1;
            }
        }
    }
    KeyOutcome::Violation
}

/// Shrinks a failing history by delta debugging: drops every run of
/// `chunk` consecutive events whose removal keeps `still_fails` true,
/// halving `chunk` from half the history down to single events, then
/// repeats single-event passes until one removes nothing. Whole runs
/// go first because a history whose operations each observe their
/// predecessor's write (an RMW chain) cannot lose one link at a time.
pub fn minimize<F>(events: &[KvEvent], mut still_fails: F) -> Vec<KvEvent>
where
    F: FnMut(&[KvEvent]) -> bool,
{
    let mut current: Vec<KvEvent> = events.to_vec();
    let mut chunk = (current.len() / 2).max(1);
    loop {
        let mut shrunk = false;
        let mut i = 0;
        while i < current.len() {
            let end = (i + chunk).min(current.len());
            let candidate = [&current[..i], &current[end..]].concat();
            if still_fails(&candidate) {
                current = candidate;
                shrunk = true;
            } else {
                i = end;
            }
        }
        if chunk > 1 {
            chunk /= 2;
        } else if !shrunk {
            return current;
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

    fn put(t: u32, i: u64, r: u64, k: &[u8], v: &[u8]) -> KvEvent {
        ev(
            t,
            i,
            r,
            KvOp::Put {
                key: k.to_vec(),
                value: v.to_vec(),
            },
        )
    }

    fn get(t: u32, i: u64, r: u64, k: &[u8], res: Option<&[u8]>) -> KvEvent {
        ev(
            t,
            i,
            r,
            KvOp::Get {
                key: k.to_vec(),
                result: res.map(|v| v.to_vec()),
            },
        )
    }

    #[test]
    fn sequential_history_is_linearizable() {
        let h = vec![
            put(0, 1, 2, b"k", b"a"),
            get(0, 3, 4, b"k", Some(b"a")),
            ev(0, 5, 6, KvOp::Delete { key: b"k".to_vec() }),
            get(0, 7, 8, b"k", None),
        ];
        assert_eq!(check_linearizable(&h), LinOutcome::Ok);
    }

    #[test]
    fn concurrent_get_may_see_either_value() {
        // put(b) overlaps the get; both old and new values are fine.
        for seen in [Some(b"a".as_slice()), Some(b"b".as_slice())] {
            let h = vec![
                put(0, 1, 2, b"k", b"a"),
                put(1, 3, 10, b"k", b"b"),
                get(2, 4, 5, b"k", seen),
            ];
            assert_eq!(check_linearizable(&h), LinOutcome::Ok, "seen {seen:?}");
        }
    }

    #[test]
    fn stale_read_is_flagged() {
        // put(b) completed before the get began, yet the get saw "a".
        let h = vec![
            put(0, 1, 2, b"k", b"a"),
            put(0, 3, 4, b"k", b"b"),
            get(1, 5, 6, b"k", Some(b"a")),
        ];
        match check_linearizable(&h) {
            LinOutcome::Violation(v) => assert_eq!(v.key, b"k"),
            other => panic!("expected violation, got {other:?}"),
        }
    }

    #[test]
    fn value_from_nowhere_is_flagged() {
        let h = vec![put(0, 1, 2, b"k", b"a"), get(1, 3, 4, b"k", Some(b"zzz"))];
        assert!(matches!(check_linearizable(&h), LinOutcome::Violation(_)));
    }

    #[test]
    fn rmw_lost_update_is_flagged() {
        // Two RMW increments both observed prev "0": a lost update.
        let rmw = |t, i, r, prev: &[u8], new: &[u8]| {
            ev(
                t,
                i,
                r,
                KvOp::Rmw {
                    key: b"c".to_vec(),
                    prev: Some(prev.to_vec()),
                    applied: RmwApplied::Update(new.to_vec()),
                },
            )
        };
        let h = vec![
            put(0, 1, 2, b"c", b"0"),
            rmw(1, 3, 5, b"0", b"1"),
            rmw(2, 4, 6, b"0", b"1"),
        ];
        assert!(matches!(check_linearizable(&h), LinOutcome::Violation(_)));

        // The serialized version is fine.
        let h = vec![
            put(0, 1, 2, b"c", b"0"),
            rmw(1, 3, 4, b"0", b"1"),
            rmw(2, 5, 6, b"1", b"2"),
        ];
        assert_eq!(check_linearizable(&h), LinOutcome::Ok);
    }

    #[test]
    fn pia_double_store_is_flagged() {
        let pia = |t, i, r, stored| {
            ev(
                t,
                i,
                r,
                KvOp::PutIfAbsent {
                    key: b"k".to_vec(),
                    value: b"v".to_vec(),
                    stored,
                },
            )
        };
        // Both claim to have stored: impossible for a register that
        // starts absent and is never deleted.
        let h = vec![pia(0, 1, 2, true), pia(1, 3, 4, true)];
        assert!(matches!(check_linearizable(&h), LinOutcome::Violation(_)));
        let h = vec![pia(0, 1, 2, true), pia(1, 3, 4, false)];
        assert_eq!(check_linearizable(&h), LinOutcome::Ok);
    }

    #[test]
    fn batch_effects_participate_per_key() {
        let h = vec![
            ev(
                0,
                1,
                2,
                KvOp::WriteBatch {
                    batch: 0,
                    entries: vec![(b"a".to_vec(), Some(b"1".to_vec())), (b"b".to_vec(), None)],
                },
            ),
            get(1, 3, 4, b"a", Some(b"1")),
            get(1, 5, 6, b"b", None),
        ];
        assert_eq!(check_linearizable(&h), LinOutcome::Ok);
        let h2 = vec![h[0].clone(), get(1, 3, 4, b"a", None)];
        assert!(matches!(check_linearizable(&h2), LinOutcome::Violation(_)));
    }

    #[test]
    fn minimize_shrinks_to_core() {
        let mut h = vec![
            put(0, 1, 2, b"k", b"a"),
            put(0, 3, 4, b"k", b"b"),
            get(1, 5, 6, b"k", Some(b"a")),
        ];
        // Pad with irrelevant traffic on other keys.
        for i in 0..20u64 {
            h.push(put(2, 100 + 2 * i, 101 + 2 * i, b"other", b"x"));
        }
        let min = minimize(&h, |ev| {
            matches!(check_linearizable(ev), LinOutcome::Violation(_))
        });
        assert!(min.len() <= 3, "minimized to {} events", min.len());
        assert!(matches!(check_linearizable(&min), LinOutcome::Violation(_)));
    }
}
