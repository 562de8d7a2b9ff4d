//! Command line of the benchmark; `run.sh` builds and calls it.
//!
//! ```text
//! clsm-benchmark --workload W [--seed N] [--seconds S] [--trace 0|1]
//!                [--out DIR] [--repeat K] [--rate R] [--rustc VERSION]
//! clsm-benchmark catalog [--json]
//! clsm-benchmark merge --out DIR
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use clsm_benchmark::harness::RunArgs;
use clsm_benchmark::runner::WORKLOADS;
use clsm_benchmark::{catalog, config, report, runner};

const USAGE: &str = "usage: clsm-benchmark --workload <ingest|prod-mix|scan-rmw|net-open> \
[--seed N] [--seconds S] [--trace 0|1] [--out DIR] [--repeat K] [--rate R] [--rustc VERSION]\n       \
clsm-benchmark catalog [--json]\n       clsm-benchmark merge --out DIR";

struct Cli {
    run: RunArgs,
    rustc: String,
}

fn parse_u64(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut run = RunArgs {
        workload: String::new(),
        seed: config::DEFAULT_SEED,
        seconds: 30.0,
        trace: false,
        out_dir: PathBuf::from("benchmark/out"),
        rate: None,
        repeat: 0,
    };
    let mut rustc = "unknown".to_string();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = || format!("bad value {value:?} for {flag}\n{USAGE}");
        match flag.as_str() {
            "--workload" => run.workload = value.clone(),
            "--seed" => run.seed = parse_u64(value).ok_or_else(bad)?,
            "--seconds" => {
                run.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.5 && *s <= 3600.0)
                    .ok_or_else(bad)?
            }
            "--trace" => {
                run.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => run.out_dir = PathBuf::from(value),
            "--repeat" => run.repeat = value.parse().map_err(|_| bad())?,
            "--rate" => run.rate = Some(parse_u64(value).filter(|r| *r > 0).ok_or_else(bad)?),
            "--rustc" => rustc = value.clone(),
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    if !WORKLOADS.contains(&run.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}\n{USAGE}",
            run.workload
        ));
    }
    Ok(Cli { run, rustc })
}

/// Wraps the per-run result files of `out` into one `results.json`:
/// per workload, the untraced (`e2e`) and traced (`layers`) results of
/// every repeat, in repeat order.
fn merge(out: &std::path::Path) -> Result<(), String> {
    let mut body = Vec::new();
    for workload in WORKLOADS {
        let mut parts = Vec::new();
        for kind in ["e2e", "layers"] {
            let runs: Vec<String> = (0..)
                .map_while(|repeat| {
                    std::fs::read_to_string(out.join(format!("{workload}.{repeat}.{kind}.json")))
                        .ok()
                })
                .map(|text| text.trim().to_string())
                .collect();
            if !runs.is_empty() {
                parts.push(format!("\"{kind}\":[\n{}\n]", runs.join(",\n")));
            }
        }
        if !parts.is_empty() {
            body.push(format!("\"{workload}\":{{{}}}", parts.join(",")));
        }
    }
    if body.is_empty() {
        return Err(format!("no result files in {}", out.display()));
    }
    let text = format!(
        "{{\"schema\":1,\"workloads\":{{\n{}\n}}}}\n",
        body.join(",\n")
    );
    std::fs::write(out.join("results.json"), text).map_err(|e| format!("write results.json: {e}"))
}

fn catalog_json() -> String {
    let entry = |m: &catalog::Metric, bound: Option<f64>| {
        let better = if m.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        match bound {
            Some(b) => format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\", \"bound\": {b}}}",
                m.name, m.unit
            ),
            None => format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"}}",
                m.name, m.unit
            ),
        }
    };
    let e2e: Vec<String> = catalog::END_TO_END
        .iter()
        .map(|m| entry(m, Some(0.25)))
        .collect();
    let layers: Vec<String> = catalog::per_layer().map(|m| entry(m, None)).collect();
    format!(
        "{{\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}",
        e2e.join(",\n"),
        layers.join(",\n")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("catalog") => {
            if args.get(1).map(String::as_str) == Some("--json") {
                println!("{}", catalog_json());
            } else {
                print!("{}", catalog::markdown());
            }
            return ExitCode::SUCCESS;
        }
        Some("merge") => {
            let out = match (args.get(1).map(String::as_str), args.get(2)) {
                (Some("--out"), Some(dir)) => PathBuf::from(dir),
                _ => {
                    eprintln!("{USAGE}");
                    return ExitCode::from(2);
                }
            };
            return match merge(&out) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("clsm-benchmark: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        _ => {}
    }
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let outcome = match runner::run(&cli.run) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("clsm-benchmark: {}: {e}", cli.run.workload);
            return ExitCode::FAILURE;
        }
    };
    let report = report::build(&cli.run, &outcome);
    report.print(&cli.run);
    if let Err(e) = report.write_files(&cli.run, &cli.rustc) {
        eprintln!("clsm-benchmark: write results: {e}");
        return ExitCode::FAILURE;
    }
    if cli.run.trace {
        let path = cli
            .run
            .out_dir
            .join(format!("{}.trace.json", cli.run.workload));
        if let Err(e) = std::fs::write(&path, report::span_file(&cli.run.workload, outcome)) {
            eprintln!("clsm-benchmark: write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    // Last line of standard output: the driver's contract.
    println!("{}", report.contract_line(cli.run.trace));
    if !report.correct() {
        eprintln!(
            "clsm-benchmark: {}: {} of {} operations failed",
            cli.run.workload, report.failed, report.attempted
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
