//! End-to-end checker runs: clean systems pass seeded adversarial
//! schedules, mutated systems fail them with minimized
//! counterexamples, and crash-reopen runs recover the durable prefix.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use clsm_check::driver::{run_schedule, schedule_keys, ScheduleCfg};
use clsm_check::snapcheck::RecoveredState;
use clsm_check::sut::{open_sut, open_sut_with, CrashSut};
use clsm_check::{check_history, mutations, CheckMode};
use clsm_kv::record::RecordingSession;
use clsm_kv::WriteOptions;
use clsm_kv::{KvStore, RmwDecision};

static DIRS: AtomicU64 = AtomicU64::new(0);

fn fresh_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "clsm-check-{tag}-{}-{}",
        std::process::id(),
        DIRS.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn check_clean(system: &str, seeds: std::ops::Range<u64>) {
    for seed in seeds {
        let dir = fresh_dir(&format!("clean-{system}"));
        let sut = open_sut(system, &dir).unwrap();
        let mut cfg = ScheduleCfg::new(seed);
        cfg.caps = sut.caps;
        let events = run_schedule(Arc::clone(&sut.store), sut.chaos.clone(), &cfg);
        assert!(!events.is_empty());
        let verdict = check_history(
            system,
            "clean",
            seed,
            &events,
            None,
            CheckMode::Serializable,
        );
        assert!(
            verdict.pass,
            "{system} seed {seed} failed:\n{}",
            verdict.failures.join("\n")
        );
        drop(sut);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn clean_clsm_passes_seeded_schedules() {
    check_clean("clsm", 0..4);
}

#[test]
fn clean_hybrid_policy_passes_seeded_schedules() {
    // The alternative compaction scheduling policy must preserve the
    // same observable history — backgrounds merges of any shape are
    // invisible to clients.
    check_clean("clsm-hybrid", 22..24);
}

#[test]
fn clean_baselines_pass_a_schedule() {
    // One seed each: the full sweep lives in the clsm-check binary and
    // the CI matrix; this keeps `cargo test` bounded.
    for system in ["leveldb", "rocksdb", "striped", "partitioned-4"] {
        check_clean(system, 100..101);
    }
}

/// Mutations must FAIL — and produce a minimized counterexample. Each
/// mutation gets a targeted tight schedule so failure is deterministic
/// rather than a scheduling lottery.
mod mutation {
    use super::*;

    fn mutated_store(name: &str, dir: &Path) -> Arc<dyn KvStore> {
        let sut = open_sut("clsm", dir).unwrap();
        mutations::mutate(name, sut.store).unwrap()
    }

    #[test]
    fn non_atomic_rmw_is_caught() {
        let dir = fresh_dir("mut-rmw");
        let store = mutated_store("non-atomic-rmw", &dir);
        let session = RecordingSession::new(store);
        // Hammer one key with concurrent unique-value RMWs: without the
        // conflict re-check two of them will observe the same `prev`.
        let workers: Vec<_> = (0..4)
            .map(|t| {
                let mut rec = session.recorder();
                std::thread::spawn(move || {
                    for i in 0..200 {
                        let value = format!("r{t}-{i}").into_bytes();
                        rec.read_modify_write(b"counter", &mut |_| {
                            RmwDecision::Update(value.clone())
                        })
                        .unwrap();
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        let events = session.take_events();
        let verdict = check_history(
            "mutated:non-atomic-rmw",
            "clean",
            0,
            &events,
            None,
            CheckMode::Serializable,
        );
        assert!(!verdict.pass, "non-atomic RMW slipped past the checker");
        assert!(
            verdict
                .failures
                .iter()
                .any(|f| f.contains("linearizability")),
            "{:?}",
            verdict.failures
        );
        assert!(
            !verdict.counterexample.is_empty() && verdict.counterexample.len() <= 10,
            "counterexample not minimized: {} events",
            verdict.counterexample.len()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lost_write_is_caught() {
        let dir = fresh_dir("mut-lost");
        let store = mutated_store("lost-write", &dir);
        let session = RecordingSession::new(store);
        let mut rec = session.recorder();
        // Single thread: put then read back. A dropped-but-acked put
        // makes some get observe the previous value.
        for i in 0..32 {
            let v = format!("v{i}").into_bytes();
            rec.put(b"k", &v).unwrap();
            rec.get(b"k").unwrap();
        }
        drop(rec);
        let events = session.take_events();
        let verdict = check_history(
            "mutated:lost-write",
            "clean",
            0,
            &events,
            None,
            CheckMode::Serializable,
        );
        assert!(!verdict.pass, "lost writes slipped past the checker");
        assert!(
            verdict.counterexample.len() <= 4,
            "counterexample not minimized: {} events",
            verdict.counterexample.len()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_snapshot_is_caught() {
        let dir = fresh_dir("mut-snap");
        let store = mutated_store("stale-snapshot", &dir);
        let session = RecordingSession::new(store);
        let mut rec = session.recorder();
        rec.put(b"k", b"v1").unwrap();
        let first = rec.snapshot().unwrap(); // pins the mutation
        drop(first);
        rec.put(b"k", b"v2").unwrap();
        let snap = rec.snapshot().unwrap(); // still the pinned one
        let got = rec.snapshot_get(&snap, b"k").unwrap();
        assert_eq!(got.as_deref(), Some(b"v1".as_slice()), "mutation inert");
        drop(snap);
        drop(rec);
        let events = session.take_events();
        let verdict = check_history(
            "mutated:stale-snapshot",
            "clean",
            0,
            &events,
            None,
            CheckMode::Serializable,
        );
        assert!(!verdict.pass, "stale snapshot slipped past the checker");
        assert!(
            verdict.failures.iter().any(|f| f.contains("stale-read")),
            "{:?}",
            verdict.failures
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_batch_is_caught() {
        let dir = fresh_dir("mut-torn");
        let store = mutated_store("torn-batch", &dir);
        let session = RecordingSession::new(store);
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));

        let writer = {
            let mut rec = session.recorder();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Acquire) {
                    let batch = vec![
                        (b"ba".to_vec(), Some(format!("x{i}").into_bytes())),
                        (b"bb".to_vec(), Some(format!("y{i}").into_bytes())),
                    ];
                    rec.write(batch.into_iter().collect(), &WriteOptions::new())
                        .unwrap();
                    i += 1;
                }
            })
        };
        let reader = {
            let mut rec = session.recorder();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                // Snapshot until a torn pair is actually observed (the
                // two values carry the batch number) rather than for a
                // fixed iteration count: under a loaded scheduler a
                // fixed count can miss every window, or even finish
                // before the writer starts. Bounded only as a backstop
                // against the mutation being inert.
                for _ in 0..200_000 {
                    let Ok(snap) = rec.snapshot() else { continue };
                    let a = rec.snapshot_get(&snap, b"ba").unwrap();
                    let b = rec.snapshot_get(&snap, b"bb").unwrap();
                    let torn = match (a, b) {
                        (Some(a), Some(b)) => a[1..] != b[1..],
                        (Some(_), None) => true, // mid-first-batch
                        _ => false,
                    };
                    if torn {
                        break;
                    }
                }
                stop.store(true, Ordering::Release);
            })
        };
        reader.join().unwrap();
        writer.join().unwrap();
        let events = session.take_events();
        let verdict = check_history(
            "mutated:torn-batch",
            "clean",
            0,
            &events,
            None,
            CheckMode::Serializable,
        );
        assert!(!verdict.pass, "torn batches slipped past the checker");
        assert!(
            verdict
                .failures
                .iter()
                .any(|f| f.contains("torn-batch") || f.contains("stale-read")),
            "{:?}",
            verdict.failures
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Crash-reopen: run a schedule with synchronous logging, power-cycle
/// through the fault env, reopen, and check the recovered state
/// against the history.
fn check_crash(system: &str, seed: u64) {
    let dir = fresh_dir(&format!("crash-{system}"));
    let crash = CrashSut::open(system, &dir, seed).unwrap();
    let session = RecordingSession::new(Arc::clone(&crash.store));

    let mut cfg = ScheduleCfg::new(seed);
    cfg.threads = 3;
    cfg.ops_per_thread = 150;
    let workers: Vec<_> = (0..cfg.threads)
        .map(|_| {
            let mut rec = session.recorder();
            let cfg = cfg.clone();
            std::thread::spawn(move || {
                use rand::{Rng, SeedableRng};
                let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed);
                let keys = schedule_keys(cfg.key_space);
                for i in 0..cfg.ops_per_thread {
                    let k = &keys[rng.random_range(0..keys.len())];
                    let v = format!("c{i}").into_bytes();
                    let _ = rec.put(k, &v);
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    let crash_tick = session.now();
    let events = session.take_events();
    drop(session); // release every Arc to the store before power loss
    let CrashSut { store, env } = crash;
    drop(store);
    env.power_loss();

    let reopened = open_sut_with(
        system,
        &dir,
        Some(env.clone() as Arc<dyn clsm_util::env::Env>),
        true,
    )
    .unwrap();
    let mut reads = Vec::new();
    for key in schedule_keys(cfg.key_space) {
        let value = reopened.store.get(&key).unwrap();
        reads.push((key, value));
    }
    let recovered = RecoveredState {
        at: crash_tick,
        reads,
    };
    let verdict = check_history(
        system,
        "crash",
        seed,
        &events,
        Some(&recovered),
        CheckMode::Serializable,
    );
    assert!(
        verdict.pass,
        "{system} crash seed {seed} failed:\n{}",
        verdict.failures.join("\n")
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crash_reopen_clsm_recovers_durable_prefix() {
    check_crash("clsm", 42);
}

#[test]
fn history_replay_round_trips_through_files() {
    let dir = fresh_dir("replay");
    let sut = open_sut("clsm", &dir).unwrap();
    let cfg = ScheduleCfg::new(7);
    let events = run_schedule(Arc::clone(&sut.store), None, &cfg);
    let text = clsm_check::history::history_to_string(&events);
    let parsed = clsm_check::history::parse_history(&text).unwrap();
    assert_eq!(events, parsed);
    // Replayed histories produce the same verdict.
    let v1 = check_history("clsm", "clean", 7, &events, None, CheckMode::Serializable);
    let v2 = check_history("clsm", "clean", 7, &parsed, None, CheckMode::Serializable);
    assert_eq!(v1.pass, v2.pass);
    assert!(v1.pass);
    let _ = std::fs::remove_dir_all(&dir);
}
