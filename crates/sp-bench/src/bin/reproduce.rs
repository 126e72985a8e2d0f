//! Regenerates the paper's tables and figures on the synthetic datasets.
//!
//! ```text
//! cargo run --release -p sp-bench --bin reproduce -- [--experiment <id>] \
//!     [--scale small|medium|large] [--output <file.md>] [--json <file.json>]
//! ```
//!
//! Without `--experiment` every experiment is run in order and the combined
//! markdown report is printed (and written to `--output` when given). The
//! experiment ids are listed in `sp_bench::experiments::ALL_EXPERIMENTS`.
//! `--json` writes the structured measurements of the `drift` experiment to
//! the given path (e.g. `BENCH_adaptive.json`) so the perf trajectory
//! accumulates across runs; it adds `drift` to the experiments when it was
//! not selected.

use sp_bench::experiments::{drift_measurements, render_drift, run_experiment, ALL_EXPERIMENTS};
use sp_bench::Scale;
use std::io::Write as _;

struct Args {
    experiments: Vec<String>,
    scale: Scale,
    output: Option<String>,
    json: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut experiments = Vec::new();
    let mut scale = Scale::Small;
    let mut output = None;
    let mut json = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--experiment" | "-e" => {
                let id = args.next().ok_or("--experiment needs a value")?;
                experiments.push(id);
            }
            "--scale" | "-s" => {
                let v = args.next().ok_or("--scale needs a value")?;
                scale = Scale::parse(&v).ok_or(format!("unknown scale '{v}'"))?;
            }
            "--output" | "-o" => {
                output = Some(args.next().ok_or("--output needs a value")?);
            }
            "--json" | "-j" => {
                json = Some(args.next().ok_or("--json needs a value")?);
            }
            "--list" => {
                for id in ALL_EXPERIMENTS {
                    println!("{id}");
                }
                std::process::exit(0);
            }
            "--help" | "-h" => {
                println!(
                    "usage: reproduce [--experiment <id>]... [--scale small|medium|large] \
                     [--output file.md] [--json file.json]\n\
                     experiments: {}",
                    ALL_EXPERIMENTS.join(", ")
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if experiments.is_empty() {
        experiments = if json.is_some() {
            vec!["drift".to_string()]
        } else {
            ALL_EXPERIMENTS.iter().map(|s| s.to_string()).collect()
        };
    } else if json.is_some() && !experiments.iter().any(|e| e == "drift") {
        // `--json` only has data to write when the structured experiment
        // runs; silently producing no file would be confusing, so run it too.
        eprintln!("[reproduce] --json given: adding the 'drift' experiment");
        experiments.push("drift".to_string());
    }
    Ok(Args {
        experiments,
        scale,
        output,
        json,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };

    let mut report = String::new();
    report.push_str(&format!(
        "# StreamPattern — reproduced evaluation (scale: {:?})\n\n\
         Generated by `cargo run --release -p sp-bench --bin reproduce`.\n\
         Synthetic datasets stand in for CAIDA / LSBench / NYTimes (see the README's\n\
         \"Reproduced experiments\" section); the comparison of interest is the\n\
         *relative* behaviour of the strategies.\n\n",
        args.scale
    ));

    for id in &args.experiments {
        eprintln!("[reproduce] running {id} ...");
        let started = std::time::Instant::now();
        // The structured experiment runs once and feeds both the markdown
        // section and the `--json` dump.
        let section = if let Some(json_path) = args.json.as_deref().filter(|_| id == "drift") {
            let measurements = drift_measurements(args.scale);
            let data = serde_json::to_string_pretty(&measurements).expect("serialize drift");
            std::fs::write(json_path, data).expect("write drift json");
            eprintln!("[reproduce] wrote {json_path}");
            Some(render_drift(&measurements))
        } else {
            run_experiment(id, args.scale)
        };
        match section {
            Some(section) => {
                eprintln!("[reproduce] {id} finished in {:.1?}", started.elapsed());
                report.push_str(&section);
                report.push('\n');
            }
            None => {
                eprintln!("[reproduce] unknown experiment '{id}' (use --list)");
                std::process::exit(2);
            }
        }
    }

    println!("{report}");
    if let Some(path) = args.output {
        let mut f = std::fs::File::create(&path).expect("create output file");
        f.write_all(report.as_bytes()).expect("write report");
        eprintln!("[reproduce] wrote {path}");
    }
}
