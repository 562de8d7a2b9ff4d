//! A small command-line shell over a cLSM database — the kind of
//! operational tool a real open-source release ships.
//!
//! ```text
//! cargo run --example clsm_cli -- /tmp/mydb
//! clsm> put greeting hello
//! clsm> get greeting
//! hello
//! clsm> scan a z
//! greeting = hello
//! clsm> stats
//! ...
//! clsm> verify
//! integrity OK: 1 entries checked
//! ```
//!
//! Commands: `put K V`, `get K`, `del K`, `scan [START [END]]`,
//! `incr K`, `snapshot`, `stats`, `levels`, `verify`, `compact`,
//! `help`, `quit`. Also accepts a script on stdin (non-interactive).

use std::io::{BufRead, Write};

use clsm_repro::clsm::{Db, Options, RmwDecision, Snapshot};

fn main() {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "/tmp/clsm-cli-db".to_string());
    let db = match Db::open(path.as_ref(), Options::default()) {
        Ok(db) => db,
        Err(e) => {
            eprintln!("failed to open {path}: {e}");
            std::process::exit(1);
        }
    };
    println!("opened cLSM database at {path} (type `help`)");

    let stdin = std::io::stdin();
    let mut held_snapshot: Option<Snapshot> = None;
    loop {
        print!("clsm> ");
        std::io::stdout().flush().ok();
        let mut line = String::new();
        if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
            break; // EOF
        }
        let parts: Vec<&str> = line.split_whitespace().collect();
        let result = match parts.as_slice() {
            [] => Ok(()),
            ["quit"] | ["exit"] => break,
            ["help"] => {
                println!(
                    "put K V | get K | del K | scan [START [END]] | incr K |\n\
                     snapshot | snapget K | stats | levels | verify | compact | quit"
                );
                Ok(())
            }
            ["put", k, v] => db.put(k.as_bytes(), v.as_bytes()),
            ["get", k] => {
                match db.get(k.as_bytes()) {
                    Ok(Some(v)) => println!("{}", String::from_utf8_lossy(&v)),
                    Ok(None) => println!("(not found)"),
                    Err(e) => println!("error: {e}"),
                }
                Ok(())
            }
            ["del", k] => db.delete(k.as_bytes()),
            ["scan", rest @ ..] => {
                let start = rest.first().map(|s| s.as_bytes()).unwrap_or(b"");
                let end = rest.get(1).map(|s| s.as_bytes().to_vec());
                match db.snapshot().and_then(|s| {
                    let mut n = 0;
                    for item in s.range(start, end.as_deref())? {
                        let (k, v) = item?;
                        println!(
                            "{} = {}",
                            String::from_utf8_lossy(&k),
                            String::from_utf8_lossy(&v)
                        );
                        n += 1;
                        if n >= 100 {
                            println!("… (truncated at 100)");
                            break;
                        }
                    }
                    Ok(())
                }) {
                    Ok(()) => Ok(()),
                    Err(e) => {
                        println!("error: {e}");
                        Ok(())
                    }
                }
            }
            ["incr", k] => {
                let r = db.read_modify_write(k.as_bytes(), |cur| {
                    let n = cur
                        .and_then(|v| v.try_into().ok().map(u64::from_le_bytes))
                        .unwrap_or(0);
                    RmwDecision::Update((n + 1).to_le_bytes().to_vec())
                });
                match r {
                    Ok(_) => {
                        let v = db.get(k.as_bytes()).ok().flatten().unwrap_or_default();
                        let n = v.try_into().ok().map(u64::from_le_bytes).unwrap_or(0);
                        println!("{n}");
                        Ok(())
                    }
                    Err(e) => Err(e),
                }
            }
            ["snapshot"] => match db.snapshot() {
                Ok(s) => {
                    println!("holding snapshot @ts {}", s.timestamp());
                    held_snapshot = Some(s);
                    Ok(())
                }
                Err(e) => Err(e),
            },
            ["snapget", k] => {
                match &held_snapshot {
                    Some(s) => match s.get(k.as_bytes()) {
                        Ok(Some(v)) => println!("{}", String::from_utf8_lossy(&v)),
                        Ok(None) => println!("(not found at snapshot)"),
                        Err(e) => println!("error: {e}"),
                    },
                    None => println!("no snapshot held — run `snapshot` first"),
                }
                Ok(())
            }
            ["stats"] => {
                for (name, value) in db.metrics().counters {
                    if name.starts_with("db.") {
                        println!("{name} {value}");
                    }
                }
                if let Some((hits, misses)) = db.cache_stats() {
                    println!("block cache: {hits} hits / {misses} misses");
                }
                Ok(())
            }
            ["levels"] => {
                for (i, n) in db.level_file_counts().iter().enumerate() {
                    println!("L{i}: {n} files");
                }
                println!("memtable: {} bytes", db.memtable_bytes());
                Ok(())
            }
            ["verify"] => {
                match db.verify_integrity() {
                    Ok(n) => println!("integrity OK: {n} entries checked"),
                    Err(e) => println!("INTEGRITY FAILURE: {e}"),
                }
                Ok(())
            }
            ["compact"] => db.compact_to_quiescence(),
            other => {
                println!("unknown command {other:?} — try `help`");
                Ok(())
            }
        };
        if let Err(e) = result {
            println!("error: {e}");
        }
    }
    println!("bye");
}
