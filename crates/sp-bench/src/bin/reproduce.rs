//! Regenerates the paper's tables and figures on the synthetic datasets.
//!
//! ```text
//! cargo run --release -p sp-bench --bin reproduce -- [--experiment <id>] \
//!     [--scale small|medium|large] [--workers N[,N...]] [--output <file.md>] \
//!     [--json <file.json>]
//! ```
//!
//! Without `--experiment` every experiment is run in order and the combined
//! markdown report is printed (and written to `--output` when given). The
//! experiment ids are listed in `sp_bench::experiments::ALL_EXPERIMENTS`.
//! `--workers` sets the worker-count sweep of the `parallel` experiment
//! (default `1,2,4,8`). `--json` writes the structured measurements of the
//! experiments that have them so the perf trajectory accumulates across
//! runs: the `sharing` measurements go to the given path (e.g.
//! `BENCH_sharing.json`), the `sharedjoin` measurements to
//! `BENCH_sharedjoin.json` and the `drift` measurements to
//! `BENCH_adaptive.json` next to it; with no `--experiment` selected it
//! implies running the sharing/sharedjoin/drift trio.

use sp_bench::experiments::{
    drift_measurements, render_drift, render_sharedjoin, render_sharing, run_experiment_with,
    sharedjoin_measurements, sharing_measurements, ALL_EXPERIMENTS, DEFAULT_PARALLEL_WORKERS,
};
use sp_bench::Scale;
use std::io::Write as _;

struct Args {
    experiments: Vec<String>,
    scale: Scale,
    workers: Vec<usize>,
    output: Option<String>,
    json: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut experiments = Vec::new();
    let mut scale = Scale::Small;
    let mut workers = DEFAULT_PARALLEL_WORKERS.to_vec();
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
            "--workers" | "-w" => {
                let v = args.next().ok_or("--workers needs a value")?;
                workers = v
                    .split(',')
                    .map(|p| {
                        p.trim()
                            .parse::<usize>()
                            .ok()
                            .filter(|&n| n >= 1)
                            .ok_or(format!("invalid worker count '{p}'"))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                if workers.is_empty() {
                    return Err("--workers needs at least one count".into());
                }
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
                     [--workers N[,N...]] [--output file.md] [--json file.json]\n\
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
            vec![
                "sharing".to_string(),
                "sharedjoin".to_string(),
                "drift".to_string(),
            ]
        } else {
            ALL_EXPERIMENTS.iter().map(|s| s.to_string()).collect()
        };
    } else if json.is_some()
        && !experiments
            .iter()
            .any(|e| e == "sharing" || e == "sharedjoin" || e == "drift")
    {
        // `--json` only has data to write when a structured experiment runs;
        // silently producing no file would be confusing, so run them too.
        eprintln!(
            "[reproduce] --json given: adding the 'sharing', 'sharedjoin' and 'drift' experiments"
        );
        experiments.push("sharing".to_string());
        experiments.push("sharedjoin".to_string());
        experiments.push("drift".to_string());
    }
    Ok(Args {
        experiments,
        scale,
        workers,
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
         Synthetic datasets stand in for CAIDA / LSBench / NYTimes (see DESIGN.md);\n\
         the comparison of interest is the *relative* behaviour of the strategies.\n\n",
        args.scale
    ));

    for id in &args.experiments {
        eprintln!("[reproduce] running {id} ...");
        let started = std::time::Instant::now();
        // Structured experiments run once and feed both the markdown
        // section and the `--json` dump: sharing → the given path, drift →
        // `BENCH_adaptive.json` in the same directory.
        let section = if id == "sharing" && args.json.is_some() {
            let measurements = sharing_measurements(args.scale);
            let json_path = args.json.as_deref().expect("checked above");
            let data = serde_json::to_string_pretty(&measurements).expect("serialize sharing");
            std::fs::write(json_path, data).expect("write sharing json");
            eprintln!("[reproduce] wrote {json_path}");
            Some(render_sharing(&measurements))
        } else if id == "sharedjoin" && args.json.is_some() {
            let measurements = sharedjoin_measurements(args.scale);
            let given = std::path::Path::new(args.json.as_deref().expect("checked above"));
            let path = given.with_file_name("BENCH_sharedjoin.json");
            let data = serde_json::to_string_pretty(&measurements).expect("serialize sharedjoin");
            std::fs::write(&path, data).expect("write sharedjoin json");
            eprintln!("[reproduce] wrote {}", path.display());
            Some(render_sharedjoin(&measurements))
        } else if id == "drift" && args.json.is_some() {
            let measurements = drift_measurements(args.scale);
            let given = std::path::Path::new(args.json.as_deref().expect("checked above"));
            let drift_path = given.with_file_name("BENCH_adaptive.json");
            let data = serde_json::to_string_pretty(&measurements).expect("serialize drift");
            std::fs::write(&drift_path, data).expect("write drift json");
            eprintln!("[reproduce] wrote {}", drift_path.display());
            Some(render_drift(&measurements))
        } else {
            run_experiment_with(id, args.scale, &args.workers)
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
