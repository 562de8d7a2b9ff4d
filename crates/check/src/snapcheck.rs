//! Snapshot serializability checking.
//!
//! cLSM's snapshot scans are **serializable but not linearizable**
//! (Algorithm 2): `getSnap` may return a timestamp older than a write
//! a just-completed `get` already observed, because gets are allowed to
//! read inserted-but-unpublished versions. The checker therefore runs
//! in two modes:
//!
//! - [`CheckMode::Serializable`] (default): asserts exactly what the
//!   paper promises — each snapshot is a consistent cut that includes
//!   every write *completed before the snapshot was taken*, and
//!   snapshots taken later never regress. The paper's get/scan anomaly
//!   is tolerated.
//! - [`CheckMode::Linearizable`]: additionally requires snapshots to
//!   respect values observed by earlier completed `get`s. cLSM is
//!   *expected to fail* this mode under contention; the suite uses it
//!   to demonstrate the anomaly is real, not to gate CI.
//!
//! Every check is *sound* under ambiguity: an observed value may be
//! explained by several candidate writes (or, for `None`, by initial
//! absence or any delete), and a violation is reported only when every
//! candidate explanation violates the condition. The adversarial
//! driver makes written values globally unique, so in practice
//! candidate sets are singletons and the checks are tight.

use std::collections::{BTreeMap, HashMap};

use clsm_kv::record::{KvEvent, KvOp, RmwApplied};

/// Which claims to enforce; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckMode {
    /// The paper's contract: serializable snapshots.
    Serializable,
    /// Serializable plus get-established floors (cLSM intentionally
    /// fails this under contention).
    Linearizable,
}

/// One snapshot-consistency violation.
#[derive(Debug, Clone)]
pub(crate) struct SnapViolation {
    /// Which condition tripped (stable machine-readable slug).
    pub condition: &'static str,
    /// Key involved.
    pub key: Vec<u8>,
    /// Human-readable explanation.
    pub detail: String,
    /// Indexes (into the checked event slice) of the events involved.
    pub events: Vec<usize>,
}

/// The post-crash audit of a reopened store, checked as one synthetic
/// snapshot taken at the crash tick (after every op completed).
#[derive(Debug, Clone)]
pub struct RecoveredState {
    /// Logical-clock value when the crash was injected; all events in
    /// the history respond before it.
    pub at: u64,
    /// Key → recovered value, one entry per audited key.
    pub reads: Vec<(Vec<u8>, Option<Vec<u8>>)>,
}

/// One write extracted from the history.
struct W {
    event: usize,
    value: Option<Vec<u8>>,
    invoke: u64,
    response: u64,
    batch: Option<u64>,
}

/// An observation a snapshot made for one key.
struct Obs {
    value: Option<Vec<u8>>,
    /// Response tick of the reading op (authenticity bound).
    read_response: u64,
    event: usize,
    /// True when inferred from a key's absence in a scan result.
    from_absence: bool,
}

/// A candidate explanation of an observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cand {
    /// The key was never written (initial absence).
    Initial,
    /// Index into the key's write list.
    Write(usize),
}

struct Snap {
    id: u64,
    /// Creation interval: the read point was chosen inside it.
    c_inv: u64,
    c_resp: u64,
    obs: BTreeMap<Vec<u8>, Obs>,
}

/// Batch entries as written, per key (`None` = delete).
type BatchEntries = HashMap<Vec<u8>, Option<Vec<u8>>>;
/// A store-level get: (event index, invoke, response, key, result).
type GetRecord = (usize, u64, u64, Vec<u8>, Option<Vec<u8>>);

struct Prepared {
    writes: BTreeMap<Vec<u8>, Vec<W>>,
    /// Batch id → (invoke tick, entries, entry count).
    batches: HashMap<u64, (u64, BatchEntries, usize)>,
    snaps: Vec<Snap>,
    /// Store-level gets (for the linearizable-mode floor check).
    gets: Vec<GetRecord>,
    /// Invoke/response intervals of every write-intent operation on
    /// any key (including failed and aborted ones, conservatively):
    /// the staleness excusal below needs them.
    write_intervals: Vec<(u64, u64)>,
    violations: Vec<SnapViolation>,
}

/// Checks all snapshots (explicit and implicit-scan) in `events`.
pub(crate) fn check_snapshots(events: &[KvEvent], mode: CheckMode) -> Vec<SnapViolation> {
    let mut p = prepare(events);
    let snap_cands = check_each_snapshot(&mut p, mode == CheckMode::Linearizable);
    check_monotonicity(&mut p, &snap_cands);
    if mode == CheckMode::Linearizable {
        check_get_floors(&mut p, &snap_cands);
    }
    p.violations
}

/// Checks a recovered state against the pre-crash history. All events
/// must have completed (the driver joins workers before crashing) and
/// the store must run with synchronous logging, so recovery must land
/// on a *final* state: for every key, the value of some write that no
/// other write strictly follows.
pub(crate) fn check_recovery(events: &[KvEvent], recovered: &RecoveredState) -> Vec<SnapViolation> {
    let mut p = prepare(events);
    let mut snap = Snap {
        id: u64::MAX,
        c_inv: recovered.at,
        c_resp: recovered.at + 1,
        obs: BTreeMap::new(),
    };
    for (key, value) in &recovered.reads {
        snap.obs.insert(
            key.clone(),
            Obs {
                value: value.clone(),
                read_response: recovered.at + 1,
                event: usize::MAX,
                from_absence: false,
            },
        );
    }
    // Strict staleness: the driver joins every worker before crashing,
    // so no write is in flight at the audit point and the excusal for
    // publication lag never applies — recovery must land on a final
    // state.
    p.snaps = vec![snap];
    check_each_snapshot(&mut p, true);
    for v in &mut p.violations {
        v.condition = match v.condition {
            "unexplained-value" => "recovery-unexplained-value",
            "stale-read" => "recovery-lost-write",
            "torn-batch" => "recovery-torn-batch",
            other => other,
        };
    }
    p.violations
}

fn prepare(events: &[KvEvent]) -> Prepared {
    let mut p = Prepared {
        writes: BTreeMap::new(),
        batches: HashMap::new(),
        snaps: Vec::new(),
        gets: Vec::new(),
        write_intervals: Vec::new(),
        violations: Vec::new(),
    };
    let mut snap_index: HashMap<u64, usize> = HashMap::new();

    for e in events {
        match &e.op {
            KvOp::Put { .. }
            | KvOp::Delete { .. }
            | KvOp::PutIfAbsent { .. }
            | KvOp::Rmw { .. }
            | KvOp::WriteBatch { .. } => p.write_intervals.push((e.invoke, e.response)),
            _ => {}
        }
    }

    for (idx, e) in events.iter().enumerate() {
        if !e.ok {
            continue;
        }
        let mut write = |key: &[u8], value: Option<Vec<u8>>, batch: Option<u64>| {
            p.writes.entry(key.to_vec()).or_default().push(W {
                event: idx,
                value,
                invoke: e.invoke,
                response: e.response,
                batch,
            });
        };
        match &e.op {
            KvOp::Put { key, value } => write(key, Some(value.clone()), None),
            KvOp::Delete { key } => write(key, None, None),
            KvOp::PutIfAbsent { key, value, stored } => {
                if *stored {
                    write(key, Some(value.clone()), None);
                }
            }
            KvOp::Rmw { key, applied, .. } => match applied {
                RmwApplied::Update(v) => write(key, Some(v.clone()), None),
                RmwApplied::Delete => write(key, None, None),
                RmwApplied::Abort => {}
            },
            KvOp::WriteBatch { batch, entries } => {
                // Per key, the last entry wins within one batch.
                let mut last: HashMap<Vec<u8>, Option<Vec<u8>>> = HashMap::new();
                for (k, v) in entries {
                    last.insert(k.clone(), v.clone());
                }
                for (k, v) in &last {
                    write(k, v.clone(), Some(*batch));
                }
                p.batches.insert(*batch, (e.invoke, last, idx));
            }
            KvOp::Get { key, result } => {
                p.gets
                    .push((idx, e.invoke, e.response, key.clone(), result.clone()));
            }
            KvOp::SnapshotCreate { snap } => {
                snap_index.insert(*snap, p.snaps.len());
                p.snaps.push(Snap {
                    id: *snap,
                    c_inv: e.invoke,
                    c_resp: e.response,
                    obs: BTreeMap::new(),
                });
            }
            KvOp::SnapshotGet { .. } | KvOp::Scan { .. } => {}
        }
    }

    // Second pass: attach reads to snapshots (explicit creates were
    // collected above; scans without one are implicit snapshots whose
    // creation interval is the scan's own).
    for (idx, e) in events.iter().enumerate() {
        if !e.ok {
            continue;
        }
        match &e.op {
            KvOp::SnapshotGet { snap, key, result } => {
                let Some(&si) = snap_index.get(snap) else {
                    continue;
                };
                record_obs(
                    &mut p.snaps[si],
                    &mut p.violations,
                    key.clone(),
                    result.clone(),
                    e.response,
                    idx,
                    false,
                );
            }
            KvOp::Scan {
                snap,
                range,
                limit,
                result,
            } => {
                let si = match snap_index.get(snap) {
                    Some(&si) => si,
                    None => {
                        snap_index.insert(*snap, p.snaps.len());
                        p.snaps.push(Snap {
                            id: *snap,
                            c_inv: e.invoke,
                            c_resp: e.response,
                            obs: BTreeMap::new(),
                        });
                        p.snaps.len() - 1
                    }
                };
                check_scan_shape(&mut p.violations, range, *limit, result, idx);
                for (k, v) in result {
                    record_obs(
                        &mut p.snaps[si],
                        &mut p.violations,
                        k.clone(),
                        Some(v.clone()),
                        e.response,
                        idx,
                        false,
                    );
                }
                // Keys the scan proved absent: every key we know was
                // ever written, inside the scanned range, and not past
                // the truncation point.
                let truncated = result.len() >= *limit;
                let last = result.last().map(|(k, _)| k.clone());
                let absent: Vec<Vec<u8>> = p
                    .writes
                    .keys()
                    .filter(|k| range.contains_key(k))
                    .filter(|k| match (truncated, last.as_ref()) {
                        (true, Some(last)) => *k <= last,
                        _ => true,
                    })
                    .filter(|k| !result.iter().any(|(rk, _)| rk == *k))
                    .cloned()
                    .collect();
                for k in absent {
                    record_obs(
                        &mut p.snaps[si],
                        &mut p.violations,
                        k,
                        None,
                        e.response,
                        idx,
                        true,
                    );
                }
            }
            _ => {}
        }
    }
    p
}

/// Records one observation; conflicting observations through the same
/// snapshot are themselves a violation (a snapshot is frozen).
#[allow(clippy::too_many_arguments)]
fn record_obs(
    snap: &mut Snap,
    violations: &mut Vec<SnapViolation>,
    key: Vec<u8>,
    value: Option<Vec<u8>>,
    read_response: u64,
    event: usize,
    from_absence: bool,
) {
    match snap.obs.get(&key) {
        Some(prior) if prior.value != value => {
            violations.push(SnapViolation {
                condition: "snapshot-not-frozen",
                key: key.clone(),
                detail: format!(
                    "snapshot {} observed both {:?} and {:?} for the same key",
                    snap.id,
                    summarize(&prior.value),
                    summarize(&value)
                ),
                events: vec![prior.event, event],
            });
        }
        Some(_) => {}
        None => {
            snap.obs.insert(
                key,
                Obs {
                    value,
                    read_response,
                    event,
                    from_absence,
                },
            );
        }
    }
}

fn check_scan_shape(
    violations: &mut Vec<SnapViolation>,
    range: &clsm_kv::ScanRange,
    limit: usize,
    result: &[(Vec<u8>, Vec<u8>)],
    event: usize,
) {
    if result.len() > limit {
        violations.push(SnapViolation {
            condition: "scan-over-limit",
            key: Vec::new(),
            detail: format!("scan returned {} pairs, limit {}", result.len(), limit),
            events: vec![event],
        });
    }
    for w in result.windows(2) {
        if w[0].0 >= w[1].0 {
            violations.push(SnapViolation {
                condition: "scan-unordered",
                key: w[1].0.clone(),
                detail: "scan result keys not strictly ascending".to_string(),
                events: vec![event],
            });
        }
    }
    for (k, _) in result {
        if !range.contains_key(k) {
            violations.push(SnapViolation {
                condition: "scan-out-of-range",
                key: k.clone(),
                detail: "scan returned a key outside the requested range".to_string(),
                events: vec![event],
            });
        }
    }
}

fn summarize(v: &Option<Vec<u8>>) -> String {
    match v {
        None => "absent".to_string(),
        Some(v) => match std::str::from_utf8(v) {
            Ok(s) if s.chars().all(|c| !c.is_control()) => format!("{s:?}"),
            _ => format!("{v:02x?}"),
        },
    }
}

/// `true` when candidate `c` (an explanation) is wholly before tick
/// `t` in real time. `Initial` precedes everything.
fn strictly_before(writes: &[W], c: Cand, t: u64) -> bool {
    match c {
        Cand::Initial => true,
        Cand::Write(i) => writes[i].response < t,
    }
}

/// Per-snapshot conditions: authenticity, freshness bound, staleness
/// floor, and batch atomicity. Returns each snapshot's surviving
/// candidate sets for the cross-snapshot checks.
///
/// With `strict` false (serializable mode), the staleness floor gets
/// the excusal Algorithm 2 requires: a snapshot's read point is the
/// published *prefix* of the timestamp order, so a write W that
/// completed before the snapshot was taken may still be invisible when
/// a writer holding a smaller timestamp had not yet published. Black
/// box, such a blocker must have been invoked before W responded (or
/// its timestamp would exceed W's) and must still have been in flight
/// when the snapshot was created. W is therefore only an enforceable
/// floor when no such write exists; with `strict` true every completed
/// write is a floor (the linearizable reading, and the right one for
/// post-crash audits where nothing is in flight).
fn check_each_snapshot(p: &mut Prepared, strict: bool) -> Vec<BTreeMap<Vec<u8>, Vec<Cand>>> {
    let mut all_cands = Vec::with_capacity(p.snaps.len());
    for snap in &p.snaps {
        // Earliest invoke among writes still in flight when this
        // snapshot's creation began: any write responding after that
        // tick may be publication-blocked and is excused as a floor.
        let min_pending_invoke = p
            .write_intervals
            .iter()
            .filter(|&&(_, response)| response > snap.c_inv)
            .map(|&(invoke, _)| invoke)
            .min()
            .unwrap_or(u64::MAX);
        let mut per_key: BTreeMap<Vec<u8>, Vec<Cand>> = BTreeMap::new();
        for (key, obs) in &snap.obs {
            let empty: Vec<W> = Vec::new();
            let writes = p.writes.get(key).unwrap_or(&empty);

            // Candidate explanations: matching writes invoked before
            // both the snapshot's creation completed (a write invoked
            // after that has a newer timestamp than the read point and
            // cannot be inside) and the reading op returned.
            let mut cands: Vec<Cand> = Vec::new();
            if obs.value.is_none() {
                cands.push(Cand::Initial);
            }
            for (i, w) in writes.iter().enumerate() {
                if w.value == obs.value && w.invoke < snap.c_resp && w.invoke < obs.read_response {
                    cands.push(Cand::Write(i));
                }
            }
            if cands.is_empty() {
                p.violations.push(SnapViolation {
                    condition: "unexplained-value",
                    key: key.clone(),
                    detail: format!(
                        "snapshot {} observed {} but no write invoked before the \
                         snapshot was taken produced it",
                        snap.id,
                        summarize(&obs.value)
                    ),
                    events: if obs.event == usize::MAX {
                        vec![]
                    } else {
                        vec![obs.event]
                    },
                });
                continue;
            }

            // Staleness floor: writes completed before the snapshot
            // creation began must be included (them or something newer).
            // A candidate strictly before such a write is impossible.
            let done: Vec<usize> = writes
                .iter()
                .enumerate()
                .filter(|(_, w)| w.response < snap.c_inv)
                .filter(|(_, w)| strict || w.response <= min_pending_invoke)
                .map(|(i, _)| i)
                .collect();
            let survivors: Vec<Cand> = cands
                .iter()
                .copied()
                .filter(|&c| match c {
                    Cand::Initial => done.is_empty(),
                    Cand::Write(o) => !done.iter().any(|&w| writes[o].response < writes[w].invoke),
                })
                .collect();
            if survivors.is_empty() {
                let newest_done = done
                    .iter()
                    .max_by_key(|&&w| writes[w].response)
                    .map(|&w| &writes[w]);
                p.violations.push(SnapViolation {
                    condition: "stale-read",
                    key: key.clone(),
                    detail: format!(
                        "snapshot {} observed {} ({}), but {} completed before \
                         the snapshot was taken",
                        snap.id,
                        summarize(&obs.value),
                        if obs.from_absence {
                            "inferred from scan absence"
                        } else {
                            "read directly"
                        },
                        newest_done
                            .map(|w| format!("a write of {}", summarize(&w.value)))
                            .unwrap_or_else(|| "a write".to_string()),
                    ),
                    events: {
                        let mut ev: Vec<usize> = done.iter().map(|&w| writes[w].event).collect();
                        if obs.event != usize::MAX {
                            ev.push(obs.event);
                        }
                        ev
                    },
                });
                continue;
            }
            per_key.insert(key.clone(), survivors);
        }

        let torn = check_batch_atomicity(p, snap, &per_key);
        p.violations.extend(torn);
        all_cands.push(per_key);
    }
    all_cands
}

/// Batch atomicity: when a snapshot demonstrably contains one entry of
/// an atomic batch, every other entry of that batch the snapshot read
/// must be explainable by the batch itself or something at least as
/// new.
fn check_batch_atomicity(
    p: &Prepared,
    snap: &Snap,
    per_key: &BTreeMap<Vec<u8>, Vec<Cand>>,
) -> Vec<SnapViolation> {
    // Collected into a local first because `p` is borrowed immutably
    // through `per_key`'s writes lookups.
    let mut found = Vec::new();
    for (key, cands) in per_key {
        // Keys never written can only be explained by `Initial` and
        // pin no batch.
        let Some(writes) = p.writes.get(key) else {
            continue;
        };
        // The observation pins batch B iff every candidate is B's
        // write of this key.
        let mut batch: Option<u64> = None;
        let pinned = cands.iter().all(|&c| match c {
            Cand::Initial => false,
            Cand::Write(i) => match writes[i].batch {
                Some(b) => {
                    if batch.is_none() {
                        batch = Some(b);
                    }
                    batch == Some(b)
                }
                None => false,
            },
        });
        let Some(b) = batch else { continue };
        if !pinned {
            continue;
        }
        let (b_invoke, entries, b_event) = &p.batches[&b];
        for other_key in entries.keys() {
            if other_key == key {
                continue;
            }
            let Some(other_obs) = snap.obs.get(other_key) else {
                continue;
            };
            let Some(other_cands) = per_key.get(other_key) else {
                continue; // already reported as stale/unexplained
            };
            let other_writes = &p.writes[other_key];
            let torn = other_cands
                .iter()
                .all(|&c| strictly_before(other_writes, c, *b_invoke));
            if torn {
                found.push(SnapViolation {
                    condition: "torn-batch",
                    key: other_key.clone(),
                    detail: format!(
                        "snapshot {} contains batch {}'s write of key {:02x?} but \
                         observed a strictly older version of key {:02x?}, which the \
                         same batch also wrote",
                        snap.id, b, key, other_key
                    ),
                    events: {
                        let mut ev = vec![*b_event];
                        if other_obs.event != usize::MAX {
                            ev.push(other_obs.event);
                        }
                        ev
                    },
                });
            }
        }
    }
    found
}

/// Cross-snapshot monotonicity: of two snapshots ordered in real time,
/// the later one must not observe a strictly older version.
fn check_monotonicity(p: &mut Prepared, snap_cands: &[BTreeMap<Vec<u8>, Vec<Cand>>]) {
    // Per key: snapshots that observed it, in creation order.
    let mut by_key: BTreeMap<&[u8], Vec<usize>> = BTreeMap::new();
    for (si, cands) in snap_cands.iter().enumerate() {
        for key in cands.keys() {
            by_key.entry(key).or_default().push(si);
        }
    }
    let mut found = Vec::new();
    for (key, mut snaps) in by_key {
        snaps.sort_by_key(|&si| p.snaps[si].c_resp);
        let Some(writes) = p.writes.get(key) else {
            continue; // never written: all views are Initial
        };
        for pair in snaps.windows(2) {
            let (s1, s2) = (pair[0], pair[1]);
            if p.snaps[s1].c_resp >= p.snaps[s2].c_inv {
                continue; // concurrent creations: no order to enforce
            }
            let c1 = &snap_cands[s1][key];
            let c2 = &snap_cands[s2][key];
            // Violation only if every explanation of the newer
            // snapshot's view is strictly before every explanation of
            // the older one's.
            let regressed = c2.iter().all(|&b| {
                c1.iter().all(|&a| match a {
                    Cand::Initial => false,
                    Cand::Write(a) => strictly_before(writes, b, writes[a].invoke),
                })
            });
            if regressed {
                found.push(SnapViolation {
                    condition: "snapshot-regression",
                    key: key.to_vec(),
                    detail: format!(
                        "snapshot {} (taken after snapshot {} completed) observed a \
                         strictly older version of the key",
                        p.snaps[s2].id, p.snaps[s1].id
                    ),
                    events: vec![p.snaps[s1].obs[key].event, p.snaps[s2].obs[key].event],
                });
            }
        }
    }
    p.violations.extend(found);
}

/// Linearizable mode only: a completed `get` floors later snapshots.
/// This is exactly the anomaly Algorithm 2 permits, so cLSM fails it by
/// design under contention — see the module docs.
fn check_get_floors(p: &mut Prepared, snap_cands: &[BTreeMap<Vec<u8>, Vec<Cand>>]) {
    let mut found = Vec::new();
    for (si, cands) in snap_cands.iter().enumerate() {
        let snap = &p.snaps[si];
        for (key, c_snap) in cands {
            let Some(writes) = p.writes.get(key) else {
                continue;
            };
            // The latest completed get of this key before the snapshot.
            let floor = p
                .gets
                .iter()
                .filter(|(_, _, resp, k, v)| k == key && *resp < snap.c_inv && v.is_some())
                .max_by_key(|(_, _, resp, _, _)| *resp);
            let Some((g_event, _, g_resp, _, g_val)) = floor else {
                continue;
            };
            let g_cands: Vec<usize> = writes
                .iter()
                .enumerate()
                .filter(|(_, w)| w.value == *g_val && w.invoke < *g_resp)
                .map(|(i, _)| i)
                .collect();
            if g_cands.is_empty() {
                continue; // the get itself is bogus; lin check reports it
            }
            let below_floor = c_snap.iter().all(|&c| {
                g_cands
                    .iter()
                    .all(|&g| strictly_before(writes, c, writes[g].invoke))
            });
            if below_floor {
                found.push(SnapViolation {
                    condition: "get-floor",
                    key: key.clone(),
                    detail: format!(
                        "a get completed before snapshot {} was taken observed {}, \
                         but the snapshot shows a strictly older version (the \
                         serializable-but-not-linearizable anomaly of Algorithm 2)",
                        snap.id,
                        summarize(g_val)
                    ),
                    events: vec![*g_event, snap.obs[key].event],
                });
            }
        }
    }
    p.violations.extend(found);
}

#[cfg(test)]
mod tests {
    use super::*;
    use clsm_kv::ScanRange;
    use std::ops::Bound;

    fn ev(thread: u32, invoke: u64, response: u64, op: KvOp) -> KvEvent {
        KvEvent {
            thread,
            invoke,
            response,
            ok: true,
            op,
        }
    }

    fn put(i: u64, r: u64, k: &[u8], v: &[u8]) -> KvEvent {
        ev(
            0,
            i,
            r,
            KvOp::Put {
                key: k.to_vec(),
                value: v.to_vec(),
            },
        )
    }

    fn snap_create(i: u64, r: u64, id: u64) -> KvEvent {
        ev(1, i, r, KvOp::SnapshotCreate { snap: id })
    }

    fn snap_get(i: u64, r: u64, id: u64, k: &[u8], res: Option<&[u8]>) -> KvEvent {
        ev(
            1,
            i,
            r,
            KvOp::SnapshotGet {
                snap: id,
                key: k.to_vec(),
                result: res.map(|v| v.to_vec()),
            },
        )
    }

    #[test]
    fn consistent_snapshot_passes() {
        let h = vec![
            put(1, 2, b"a", b"1"),
            put(3, 4, b"b", b"2"),
            snap_create(5, 6, 0),
            snap_get(7, 8, 0, b"a", Some(b"1")),
            snap_get(9, 10, 0, b"b", Some(b"2")),
            snap_get(11, 12, 0, b"c", None),
        ];
        assert!(check_snapshots(&h, CheckMode::Serializable).is_empty());
    }

    #[test]
    fn missed_completed_write_is_stale() {
        let h = vec![
            put(1, 2, b"a", b"1"),
            put(3, 4, b"a", b"2"),
            snap_create(5, 6, 0),
            snap_get(7, 8, 0, b"a", Some(b"1")),
        ];
        let v = check_snapshots(&h, CheckMode::Serializable);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].condition, "stale-read");
    }

    #[test]
    fn fresher_than_snapshot_read_is_flagged() {
        // The write began only after the snapshot was fully created.
        let h = vec![
            snap_create(1, 2, 0),
            put(3, 4, b"a", b"1"),
            snap_get(5, 6, 0, b"a", Some(b"1")),
        ];
        let v = check_snapshots(&h, CheckMode::Serializable);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].condition, "unexplained-value");
    }

    #[test]
    fn concurrent_write_may_or_may_not_be_included() {
        for seen in [Some(b"1".as_slice()), None] {
            let h = vec![
                ev(
                    0,
                    1,
                    10,
                    KvOp::Put {
                        key: b"a".to_vec(),
                        value: b"1".to_vec(),
                    },
                ),
                snap_create(2, 3, 0),
                snap_get(4, 5, 0, b"a", seen),
            ];
            assert!(
                check_snapshots(&h, CheckMode::Serializable).is_empty(),
                "seen {seen:?}"
            );
        }
    }

    #[test]
    fn snapshot_regression_is_flagged() {
        let h = vec![
            put(1, 2, b"a", b"1"),
            put(3, 40, b"a", b"2"), // concurrent with both snapshots
            snap_create(5, 6, 0),
            snap_get(7, 8, 0, b"a", Some(b"2")),
            snap_create(9, 10, 1),
            snap_get(11, 12, 1, b"a", Some(b"1")),
        ];
        let v = check_snapshots(&h, CheckMode::Serializable);
        assert!(
            v.iter().any(|v| v.condition == "snapshot-regression"),
            "{v:?}"
        );
    }

    #[test]
    fn torn_batch_is_flagged() {
        let h = vec![
            put(1, 2, b"a", b"old-a"),
            put(3, 4, b"b", b"old-b"),
            ev(
                0,
                5,
                6,
                KvOp::WriteBatch {
                    batch: 0,
                    entries: vec![
                        (b"a".to_vec(), Some(b"new-a".to_vec())),
                        (b"b".to_vec(), Some(b"new-b".to_vec())),
                    ],
                },
            ),
            // Snapshot concurrent with nothing, sees half the batch.
            snap_create(7, 8, 0),
            snap_get(9, 10, 0, b"a", Some(b"new-a")),
            snap_get(11, 12, 0, b"b", Some(b"old-b")),
        ];
        let v = check_snapshots(&h, CheckMode::Serializable);
        // The stale read on b is also individually reported; the torn
        // batch must be there too when the batch raced the snapshot.
        assert!(!v.is_empty());

        // Same shape, but batch concurrent with the snapshot (no
        // per-key staleness): only atomicity can catch it.
        let h = vec![
            put(1, 2, b"a", b"old-a"),
            put(3, 4, b"b", b"old-b"),
            ev(
                0,
                5,
                20,
                KvOp::WriteBatch {
                    batch: 0,
                    entries: vec![
                        (b"a".to_vec(), Some(b"new-a".to_vec())),
                        (b"b".to_vec(), Some(b"new-b".to_vec())),
                    ],
                },
            ),
            snap_create(6, 7, 0),
            snap_get(8, 9, 0, b"a", Some(b"new-a")),
            snap_get(10, 11, 0, b"b", Some(b"old-b")),
        ];
        let v = check_snapshots(&h, CheckMode::Serializable);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].condition, "torn-batch");
    }

    #[test]
    fn paper_anomaly_tolerated_serializable_flagged_linearizable() {
        // Algorithm 2's allowed anomaly: a get observes a write that is
        // inserted but unpublished (still in flight), then a snapshot
        // taken after the get completes returns the older version.
        let h = vec![
            put(1, 2, b"a", b"1"),
            ev(
                2,
                3,
                100,
                KvOp::Put {
                    key: b"a".to_vec(),
                    value: b"2".to_vec(),
                },
            ),
            ev(
                0,
                4,
                5,
                KvOp::Get {
                    key: b"a".to_vec(),
                    result: Some(b"2".to_vec()),
                },
            ),
            snap_create(6, 7, 0),
            snap_get(8, 9, 0, b"a", Some(b"1")),
        ];
        assert!(
            check_snapshots(&h, CheckMode::Serializable).is_empty(),
            "the paper's documented anomaly must pass in serializable mode"
        );
        let v = check_snapshots(&h, CheckMode::Linearizable);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].condition, "get-floor");
    }

    #[test]
    fn scan_absence_counts_as_observation() {
        let h = vec![
            put(1, 2, b"k1", b"v1"),
            put(3, 4, b"k2", b"v2"),
            ev(
                1,
                5,
                6,
                KvOp::Scan {
                    snap: 0,
                    range: ScanRange {
                        start: Bound::Unbounded,
                        end: Bound::Unbounded,
                    },
                    limit: 10,
                    result: vec![(b"k1".to_vec(), b"v1".to_vec())], // k2 missing!
                },
            ),
        ];
        let v = check_snapshots(&h, CheckMode::Serializable);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].condition, "stale-read");
        assert_eq!(v[0].key, b"k2");
    }

    #[test]
    fn truncated_scan_absences_stop_at_limit() {
        let h = vec![
            put(1, 2, b"k1", b"v1"),
            put(3, 4, b"k2", b"v2"),
            ev(
                1,
                5,
                6,
                KvOp::Scan {
                    snap: 0,
                    range: ScanRange {
                        start: Bound::Unbounded,
                        end: Bound::Unbounded,
                    },
                    limit: 1,
                    result: vec![(b"k1".to_vec(), b"v1".to_vec())],
                },
            ),
        ];
        assert!(check_snapshots(&h, CheckMode::Serializable).is_empty());
    }

    #[test]
    fn frozen_snapshot_conflict_is_flagged() {
        let h = vec![
            put(1, 2, b"a", b"1"),
            put(3, 20, b"a", b"2"),
            snap_create(4, 5, 0),
            snap_get(6, 7, 0, b"a", Some(b"1")),
            snap_get(8, 9, 0, b"a", Some(b"2")),
        ];
        let v = check_snapshots(&h, CheckMode::Serializable);
        assert!(
            v.iter().any(|v| v.condition == "snapshot-not-frozen"),
            "{v:?}"
        );
    }

    #[test]
    fn recovery_checks_final_state() {
        let h = vec![put(1, 2, b"a", b"1"), put(3, 4, b"a", b"2")];
        let good = RecoveredState {
            at: 100,
            reads: vec![(b"a".to_vec(), Some(b"2".to_vec()))],
        };
        assert!(check_recovery(&h, &good).is_empty());
        let lost = RecoveredState {
            at: 100,
            reads: vec![(b"a".to_vec(), Some(b"1".to_vec()))],
        };
        let v = check_recovery(&h, &lost);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].condition, "recovery-lost-write");
        let phantom = RecoveredState {
            at: 100,
            reads: vec![(b"a".to_vec(), Some(b"zzz".to_vec()))],
        };
        let v = check_recovery(&h, &phantom);
        assert_eq!(v[0].condition, "recovery-unexplained-value");
    }
}
