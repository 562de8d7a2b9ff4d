//! `clsm-load`: closed-loop load generator over the clsm-net protocol.
//!
//! ```text
//! clsm-load --addr HOST:PORT [--threads N] [--seconds S] [--seed N]
//!           [--key-space N] [--read-pct P] [--theta F] [--prefill N]
//!           [--connections N] [--pipeline-depth N] [--json]
//! ```
//!
//! Reuses the `crates/workloads` heavy-tail key traces (§5.2's
//! production popularity shape) and the multi-threaded driver: each
//! of `--threads` workers issues its next request only after the
//! previous blocking `Client::call` returns, so load falls when the
//! server slows. Every recorded latency is **client-observed**:
//! queueing in the client pipeline, the wire, server dispatch, and the
//! store itself all land in the histogram. Prints a human summary to
//! stderr and, with `--json`, a machine-readable result object to
//! stdout.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use clsm_kv::KvStore;
use clsm_net::{NetOptions, RemoteStore};
use clsm_workloads::runner::{run_workload, Prefill, RunConfig};
use clsm_workloads::spec::{OpMix, WorkloadSpec};
use clsm_workloads::KeyDistribution;

fn usage() -> ! {
    eprintln!(
        "usage: clsm-load --addr HOST:PORT [--threads N] [--seconds S] [--seed N]\n\
         \x20               [--key-space N] [--read-pct P] [--theta F] [--prefill N]\n\
         \x20               [--connections N] [--pipeline-depth N] [--json]\n\
         \n\
         Closed-loop load generator; latencies are client-observed over TCP."
    );
    std::process::exit(2);
}

fn parse_flag<T: std::str::FromStr>(args: &mut std::env::Args, flag: &str) -> T {
    let v = args.next().unwrap_or_else(|| {
        eprintln!("clsm-load: {flag} needs a value");
        usage();
    });
    v.parse().unwrap_or_else(|_| {
        eprintln!("clsm-load: bad value for {flag}: {v}");
        usage();
    })
}

fn main() -> ExitCode {
    let mut addr: Option<String> = None;
    let mut threads = 4usize;
    let mut seconds = 5.0f64;
    let mut seed = 0x5eed_u64;
    let mut key_space = 100_000u64;
    let mut read_pct = 90u32;
    let mut theta = 0.99f64;
    let mut prefill: Option<u64> = None;
    let mut connections = 4usize;
    let mut pipeline_depth = 64usize;
    let mut json = false;

    let mut args = std::env::args();
    let _argv0 = args.next();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = Some(parse_flag(&mut args, "--addr")),
            "--threads" => threads = parse_flag(&mut args, "--threads"),
            "--seconds" => seconds = parse_flag(&mut args, "--seconds"),
            "--seed" => seed = parse_flag(&mut args, "--seed"),
            "--key-space" => key_space = parse_flag(&mut args, "--key-space"),
            "--read-pct" => read_pct = parse_flag(&mut args, "--read-pct"),
            "--theta" => theta = parse_flag(&mut args, "--theta"),
            "--prefill" => prefill = Some(parse_flag(&mut args, "--prefill")),
            "--connections" => connections = parse_flag(&mut args, "--connections"),
            "--pipeline-depth" => pipeline_depth = parse_flag(&mut args, "--pipeline-depth"),
            "--json" => json = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("clsm-load: unknown flag {other}");
                usage();
            }
        }
    }
    let Some(addr) = addr else {
        eprintln!("clsm-load: --addr HOST:PORT is required");
        usage();
    };
    if read_pct > 100 {
        eprintln!("clsm-load: --read-pct must be 0..=100");
        return ExitCode::from(2);
    }

    let net = match NetOptions::builder()
        .addr(addr.clone())
        .connections(connections)
        .pipeline_depth(pipeline_depth)
        .build()
    {
        Ok(o) => o,
        Err(e) => {
            eprintln!("clsm-load: {e}");
            return ExitCode::from(2);
        }
    };
    let store: Arc<dyn KvStore> = match RemoteStore::connect(&net) {
        Ok(s) => Arc::new(s),
        Err(e) => {
            eprintln!("clsm-load: cannot connect to {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut spec = WorkloadSpec::synthetic(
        "net-heavy-tail",
        OpMix::read_heavy(read_pct),
        key_space,
        KeyDistribution::HeavyTail { theta },
    );
    spec.prefill = prefill.unwrap_or_else(|| key_space.min(50_000));

    let cfg = RunConfig {
        threads,
        duration: Duration::from_secs_f64(seconds),
        seed,
    };
    eprintln!(
        "clsm-load: {} threads x {:.1}s against {addr} ({} conns, depth {}), \
         {}% reads over {} keys (theta {theta})",
        threads, seconds, connections, pipeline_depth, read_pct, key_space
    );
    let result = match run_workload(&store, &spec, &cfg, Prefill::Sequential) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("clsm-load: workload failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    let p = |q: f64| result.latency.percentile(q) as f64 / 1000.0;
    eprintln!(
        "clsm-load: {:.0} ops/s over {:.2}s | latency us p50={:.0} p90={:.0} p99={:.0} p999={:.0}",
        result.ops_per_sec(),
        result.elapsed.as_secs_f64(),
        p(50.0),
        p(90.0),
        p(99.0),
        p(99.9),
    );
    if json {
        println!(
            "{{\"system\": \"cLSM-net\", \"threads\": {threads}, \"seconds\": {:.3}, \
             \"ops\": {}, \"ops_per_sec\": {:.1}, \
             \"p50_us\": {:.1}, \"p90_us\": {:.1}, \"p99_us\": {:.1}, \"p999_us\": {:.1}}}",
            result.elapsed.as_secs_f64(),
            result.ops,
            result.ops_per_sec(),
            p(50.0),
            p(90.0),
            p(99.0),
            p(99.9),
        );
    }
    ExitCode::SUCCESS
}
