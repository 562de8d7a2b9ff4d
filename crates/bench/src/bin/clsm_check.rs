//! `clsm-check` — the history-based correctness soak harness.
//!
//! Runs seeded adversarial schedules against any store in the
//! workspace, records every operation, and checks the resulting
//! history: per-key linearizability for point operations (put, get,
//! delete, RMW, put-if-absent) and serializability for snapshot scans
//! (consistent cuts, staleness floors, cross-snapshot monotonicity,
//! batch atomicity). Crash mode power-cycles a fault-injecting
//! environment mid-run and audits the recovered state against the
//! durable prefix of the history.
//!
//! ```text
//! clsm-check [--system NAME] [--mode clean|crash]
//!            [--check serializable|linearizable]
//!            [--seeds N] [--seed-base S] [--seed S]
//!            [--threads N] [--ops N] [--chaos on|off]
//!            [--mutation NAME] [--json] [--failing-dir DIR]
//! clsm-check --replay FILE [--check serializable|linearizable]
//! ```
//!
//! One verdict per seed; `--json` emits them as JSON lines for CI to
//! archive. Any failing verdict makes the exit status 1, and
//! `--failing-dir` saves each failing history to a file that
//! `clsm-check --replay` re-checks offline (the CI matrix uploads
//! these as artifacts).
//!
//! `--mutation` wraps the store with a deliberately broken shim
//! (lost writes, non-atomic RMW, pinned snapshots, torn batches) to
//! prove the checker *fails* when it should; CI asserts those runs
//! exit non-zero. `--check linearizable` demonstrates the paper's
//! documented anomaly: cLSM snapshots are serializable but not
//! linearizable, so clean runs are expected to fail in that mode.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use clsm_check::driver::{run_schedule, schedule_keys, ScheduleCfg};
use clsm_check::snapcheck::RecoveredState;
use clsm_check::sut::{open_sut, open_sut_with, CrashSut, CRASH_SYSTEMS, SYSTEMS};
use clsm_check::{check_history, CheckMode, Verdict};
use clsm_util::error::{Error, Result};

static DIRS: AtomicU64 = AtomicU64::new(0);

fn fresh_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "clsm-check-{tag}-{}-{}",
        std::process::id(),
        DIRS.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("create scratch dir");
    d
}

struct Cli {
    system: String,
    mode: String,
    check: CheckMode,
    seeds: Vec<u64>,
    threads: Option<usize>,
    ops: Option<usize>,
    chaos: bool,
    mutation: Option<String>,
    json: bool,
    failing_dir: Option<PathBuf>,
    replay: Option<PathBuf>,
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match run(&argv) {
        Ok(failed) => i32::from(failed != 0),
        Err(e) => {
            eprintln!("clsm-check: {e}");
            2
        }
    };
    std::process::exit(code);
}

fn parse(argv: &[String]) -> Result<Cli> {
    let mut cli = Cli {
        system: "clsm".to_string(),
        mode: "clean".to_string(),
        check: CheckMode::Serializable,
        seeds: Vec::new(),
        threads: None,
        ops: None,
        chaos: true,
        mutation: None,
        json: false,
        failing_dir: None,
        replay: None,
    };
    let mut seed_count: u64 = 100;
    let mut seed_base: u64 = 0;
    let mut single_seed: Option<u64> = None;

    fn value<'a>(iter: &mut impl Iterator<Item = &'a String>, flag: &str) -> Result<&'a String> {
        iter.next()
            .ok_or_else(|| Error::invalid_argument(format!("{flag} needs a value")))
    }
    fn number(s: &str, flag: &str) -> Result<u64> {
        s.parse()
            .map_err(|_| Error::invalid_argument(format!("{flag}: not a number: {s:?}")))
    }

    let mut iter = argv.iter();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--system" => cli.system = value(&mut iter, a)?.clone(),
            "--mode" => {
                let v = value(&mut iter, a)?;
                if v != "clean" && v != "crash" {
                    return Err(Error::invalid_argument(format!(
                        "--mode must be clean or crash, got {v:?}"
                    )));
                }
                cli.mode = v.clone();
            }
            "--check" => {
                cli.check = match value(&mut iter, a)?.as_str() {
                    "serializable" => CheckMode::Serializable,
                    "linearizable" => CheckMode::Linearizable,
                    v => {
                        return Err(Error::invalid_argument(format!(
                            "--check must be serializable or linearizable, got {v:?}"
                        )))
                    }
                };
            }
            "--seeds" => seed_count = number(value(&mut iter, a)?, a)?,
            "--seed-base" => seed_base = number(value(&mut iter, a)?, a)?,
            "--seed" => single_seed = Some(number(value(&mut iter, a)?, a)?),
            "--threads" => cli.threads = Some(number(value(&mut iter, a)?, a)? as usize),
            "--ops" => cli.ops = Some(number(value(&mut iter, a)?, a)? as usize),
            "--chaos" => {
                cli.chaos = match value(&mut iter, a)?.as_str() {
                    "on" => true,
                    "off" => false,
                    v => {
                        return Err(Error::invalid_argument(format!(
                            "--chaos must be on or off, got {v:?}"
                        )))
                    }
                };
            }
            "--mutation" => cli.mutation = Some(value(&mut iter, a)?.clone()),
            "--json" => cli.json = true,
            "--failing-dir" => cli.failing_dir = Some(PathBuf::from(value(&mut iter, a)?)),
            "--replay" => cli.replay = Some(PathBuf::from(value(&mut iter, a)?)),
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                std::process::exit(0);
            }
            other => {
                return Err(Error::invalid_argument(format!(
                    "unknown argument {other:?} (try --help)"
                )))
            }
        }
    }
    cli.seeds = match single_seed {
        Some(s) => vec![s],
        None => (seed_base..seed_base + seed_count).collect(),
    };
    Ok(cli)
}

const USAGE: &str = "\
clsm-check: history-based linearizability/serializability soak harness

  clsm-check [--system NAME] [--mode clean|crash]
             [--check serializable|linearizable]
             [--seeds N] [--seed-base S] [--seed S]
             [--threads N] [--ops N] [--chaos on|off]
             [--mutation NAME] [--json] [--failing-dir DIR]
  clsm-check --replay FILE [--check serializable|linearizable]

Exit status: 0 all seeds passed, 1 at least one verdict failed.";

/// Runs the requested matrix; returns the number of failing verdicts.
fn run(argv: &[String]) -> Result<usize> {
    let cli = parse(argv)?;

    if let Some(path) = &cli.replay {
        let text = std::fs::read_to_string(path)?;
        let events = clsm_check::history::parse_history(&text)?;
        let verdict = check_history("replay", "replay", 0, &events, None, cli.check);
        report(&verdict, &cli);
        return Ok(usize::from(!verdict.pass));
    }

    if !SYSTEMS.contains(&cli.system.as_str()) {
        return Err(Error::invalid_argument(format!(
            "unknown system {:?}; known: {SYSTEMS:?}",
            cli.system
        )));
    }
    if cli.mode == "crash" && !CRASH_SYSTEMS.contains(&cli.system.as_str()) {
        return Err(Error::invalid_argument(format!(
            "system {:?} does not support crash mode; known: {CRASH_SYSTEMS:?}",
            cli.system
        )));
    }

    let mut failed = 0usize;
    for &seed in &cli.seeds {
        let verdict = if cli.mode == "crash" {
            run_crash(&cli, seed)?
        } else {
            run_clean(&cli, seed)?
        };
        if !verdict.pass {
            failed += 1;
        }
        report(&verdict, &cli);
    }
    if !cli.json {
        println!(
            "{}/{} seeds passed on {} ({})",
            cli.seeds.len() - failed,
            cli.seeds.len(),
            cli.system,
            cli.mode
        );
    }
    Ok(failed)
}

fn schedule(cli: &Cli, seed: u64) -> ScheduleCfg {
    let mut cfg = ScheduleCfg::new(seed);
    if let Some(t) = cli.threads {
        cfg.threads = t;
    }
    if let Some(o) = cli.ops {
        cfg.ops_per_thread = o;
    }
    cfg
}

fn run_clean(cli: &Cli, seed: u64) -> Result<Verdict> {
    let dir = fresh_dir(&format!("clean-{}", cli.system));
    let sut = open_sut(&cli.system, &dir)?;
    let mut cfg = schedule(cli, seed);
    cfg.caps = sut.caps;
    let store = match &cli.mutation {
        Some(name) => clsm_check::mutations::mutate(name, Arc::clone(&sut.store))?,
        None => Arc::clone(&sut.store),
    };
    let chaos = cli.chaos.then(|| sut.chaos.clone()).flatten();
    let events = run_schedule(store, chaos, &cfg);
    let system = match &cli.mutation {
        Some(name) => format!("{}+{name}", cli.system),
        None => cli.system.clone(),
    };
    let verdict = check_history(&system, "clean", seed, &events, None, cli.check);
    save_failing(&verdict, &events, cli)?;
    drop(sut);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(verdict)
}

fn run_crash(cli: &Cli, seed: u64) -> Result<Verdict> {
    let dir = fresh_dir(&format!("crash-{}", cli.system));
    let crash = CrashSut::open(&cli.system, &dir, seed)?;
    let mut cfg = schedule(cli, seed);
    cfg.caps = crash.caps;
    let store = match &cli.mutation {
        Some(name) => clsm_check::mutations::mutate(name, Arc::clone(&crash.store))?,
        None => Arc::clone(&crash.store),
    };
    // No chaos thread: the fault env injects the adversity here, and
    // the chaos hooks hold store Arcs that would outlive power loss.
    let events = run_schedule(store, None, &cfg);
    let at = events.iter().map(|e| e.response).max().unwrap_or(0) + 1;

    let CrashSut { store, env, .. } = crash;
    drop(store); // last live Arc: all recorders joined inside run_schedule
    env.power_loss();

    let reopened = open_sut_with(
        &cli.system,
        &dir,
        Some(env.clone() as Arc<dyn clsm_util::env::Env>),
        true,
    )?;
    let mut reads = Vec::new();
    for key in schedule_keys(cfg.key_space) {
        let value = reopened.store.get(&key)?;
        reads.push((key, value));
    }
    let recovered = RecoveredState { at, reads };
    let system = match &cli.mutation {
        Some(name) => format!("{}+{name}", cli.system),
        None => cli.system.clone(),
    };
    let verdict = check_history(&system, "crash", seed, &events, Some(&recovered), cli.check);
    save_failing(&verdict, &events, cli)?;
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(verdict)
}

/// Writes the full failing history where `--failing-dir` asked for it.
fn save_failing(verdict: &Verdict, events: &[clsm_kv::record::KvEvent], cli: &Cli) -> Result<()> {
    if verdict.pass {
        return Ok(());
    }
    let Some(dir) = &cli.failing_dir else {
        return Ok(());
    };
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!(
        "{}-{}-seed{}.history",
        verdict.system.replace('/', "_"),
        verdict.mode,
        verdict.seed
    ));
    std::fs::write(&path, clsm_check::history::history_to_string(events))?;
    eprintln!("clsm-check: failing history saved to {}", path.display());
    Ok(())
}

fn report(verdict: &Verdict, cli: &Cli) {
    if cli.json {
        println!("{}", verdict.to_json());
        return;
    }
    if verdict.pass {
        println!(
            "PASS {} {} seed {} ({} events)",
            verdict.system, verdict.mode, verdict.seed, verdict.events
        );
    } else {
        println!(
            "FAIL {} {} seed {} ({} events)",
            verdict.system, verdict.mode, verdict.seed, verdict.events
        );
        for f in &verdict.failures {
            println!("  - {f}");
        }
        if !verdict.counterexample.is_empty() {
            println!(
                "  minimized counterexample ({} events):",
                verdict.counterexample.len()
            );
            for e in &verdict.counterexample {
                println!("    {}", clsm_check::history::event_to_json(e));
            }
        }
    }
}
