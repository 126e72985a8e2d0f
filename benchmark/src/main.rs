//! The repository benchmark: four workloads, four bounded end-to-end metrics,
//! an outside-in layer trace. See `benchmark/README.md` for the catalogue.
//!
//! ```text
//! sp-benchmark --workload W --seed N --seconds S --trace 0|1   one workload, in this process
//!                                                              (the BENCHMARK.json contract)
//! sp-benchmark [--seed N] [--quick]        every workload, both trace modes, one table
//! sp-benchmark --selfcheck K [--seed N]    K end-to-end runs per workload, spread vs bound
//! sp-benchmark --verify-oracle [--seed N]  pipeline vs independent VF2 processors
//! sp-benchmark --print-pins                the digests to pin in workloads.rs
//! ```
//!
//! Every mode exits non-zero when an output is wrong.

mod digest;
mod job;
mod layers;
mod oracle;
mod pacer;
mod passes;
mod report;
mod sys;
mod trace;
mod traced;
mod workloads;

use report::{median, quartiles, spread, MetricDef, END_TO_END, PER_LAYER};
use serde::Value;
use std::io::Write as _;
use std::process::{Command, ExitCode, Stdio};
use workloads::{NAMES, NOMINAL_SECONDS, PINNED_SEED, REP_SECONDS};

/// Events per workload `--verify-oracle` compares.
const ORACLE_EDGES: usize = 2_000;

/// Share of every stream a `--quick` run keeps.
const QUICK_SCALE: f64 = 0.05;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    selfcheck: Option<usize>,
    verify_oracle: bool,
    print_pins: bool,
}

fn usage() -> String {
    format!(
        "usage: sp-benchmark [--workload <{}>] [--seed N] [--seconds S] [--trace 0|1] \
         [--quick] [--selfcheck K] [--verify-oracle] [--print-pins]",
        NAMES.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: PINNED_SEED,
        seconds: NOMINAL_SECONDS as f64,
        trace: false,
        quick: false,
        selfcheck: None,
        verify_oracle: false,
        print_pins: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if !NAMES.contains(&name.as_str()) {
                    return Err(format!("unknown workload {name:?}"));
                }
                args.workload = Some(name);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && (1.0..=60.0).contains(&s)) {
                    return Err("--seconds must be between 1 and 60".into());
                }
                args.seconds = s;
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            "--quick" => args.quick = true,
            "--selfcheck" => {
                let k: usize = value("a run count")?
                    .parse()
                    .map_err(|e| format!("--selfcheck: {e}"))?;
                if k < 2 {
                    return Err("--selfcheck needs at least 2 runs".into());
                }
                args.selfcheck = Some(k);
            }
            "--verify-oracle" => args.verify_oracle = true,
            "--print-pins" => args.print_pins = true,
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    Ok(args)
}

/// One workload, in this process: the `BENCHMARK.json` contract. The result
/// object is the last line of standard output.
fn run_one(args: &Args, name: &str) {
    // `--seconds` buys repetitions; the streams stay as they are, so the
    // pinned digests hold at any `--seconds`.
    let (scale, reps) = if args.quick {
        (QUICK_SCALE, 1)
    } else {
        (1.0, ((args.seconds / REP_SECONDS).round() as usize).max(1))
    };
    let w = workloads::build(name, args.seed, scale);
    println!(
        "workload {name} seed {} seconds {} ({}) cpus {}{}",
        args.seed,
        args.seconds,
        if args.trace {
            "traced run".to_string()
        } else {
            format!("{reps} repetitions")
        },
        std::thread::available_parallelism().map_or(0, usize::from),
        if !args.quick && args.seconds == NOMINAL_SECONDS as f64 {
            ""
        } else {
            " — NOT the nominal run: timings are not comparable"
        }
    );
    let (catalogue, metrics, correct, attempted, failed, detail): (&[MetricDef], _, _, _, _, _) =
        if args.trace {
            let t = traced::traced(&w, args.seed);
            (
                &PER_LAYER,
                t.metrics,
                t.correct,
                t.attempted,
                t.failed,
                t.detail,
            )
        } else {
            let e = passes::end_to_end(&w, reps);
            (
                &END_TO_END,
                e.metrics,
                e.correct,
                e.attempted,
                e.failed,
                e.detail,
            )
        };
    print!("{detail}");
    println!(
        "{}",
        report::result_line(catalogue, &metrics, correct, attempted, failed)
    );
}

/// The parsed result line of a child run.
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
}

/// Runs this binary as a child for one workload (a fresh process, so
/// `VmHWM` is the workload's own), echoes its account indented, and parses
/// the result line.
fn run_child(
    name: &str,
    seed: u64,
    trace: bool,
    args: &Args,
    echo: bool,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if args.quick {
        cmd.arg("--quick");
    }
    let output = cmd
        .spawn()
        .and_then(|child| child.wait_with_output())
        .map_err(|e| format!("running child for {name}: {e}"))?;
    let text = String::from_utf8_lossy(&output.stdout);
    let last = text.lines().last().unwrap_or("");
    if echo {
        for line in text.lines().filter(|l| *l != last) {
            println!("    {line}");
        }
    }
    if !output.status.success() {
        return Err(format!(
            "{name} (trace {}) exited with {}",
            u8::from(trace),
            output.status
        ));
    }
    let v = serde::json::parse(last).map_err(|e| format!("{name}: bad result line: {e}"))?;
    let field = |k: &str| v.get(k).ok_or(format!("{name}: result line lacks {k}"));
    let metrics = field("metrics")?
        .as_object()
        .ok_or("metrics is not an object")?
        .iter()
        .map(|(k, m)| {
            let value = m.get("value").and_then(Value::as_f64);
            value
                .map(|x| (k.clone(), x))
                .ok_or(format!("{name}: {k} has no value"))
        })
        .collect::<Result<_, _>>()?;
    Ok(ChildResult {
        correct: field("correct")?.as_bool().unwrap_or(false),
        attempted: field("attempted")?.as_u64().unwrap_or(0),
        failed: field("failed")?.as_u64().unwrap_or(0),
        metrics,
    })
}

/// Unit of metric `name` and which way is better.
fn unit_of(name: &str) -> (&'static str, &'static str) {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|d| d.name == name)
        .map_or(("", ""), |d| {
            let better = if d.higher_is_better {
                "higher is better"
            } else {
                "lower is better"
            };
            (d.unit, better)
        })
}

/// Every workload, both trace modes; one table at the end.
fn run_all(args: &Args) -> bool {
    let mut ok = true;
    let mut table: Vec<(String, Vec<(String, f64)>)> = Vec::new();
    for name in NAMES {
        for trace in [false, true] {
            println!("== {name} (trace {})", u8::from(trace));
            match run_child(name, args.seed, trace, args, true) {
                Ok(r) => {
                    println!(
                        "    correct={} ops_attempted={} ops_failed={}",
                        r.correct, r.attempted, r.failed
                    );
                    ok &= r.correct && r.failed == 0;
                    table.push((name.to_string(), r.metrics));
                }
                Err(e) => {
                    println!("    FAILED: {e}");
                    ok = false;
                }
            }
        }
    }
    println!();
    if args.quick {
        println!("--quick: streams cut to 5%, one repetition — digests are cross-checked, timings are NOT comparable");
    }
    for (name, metrics) in &table {
        for (metric, value) in metrics {
            let (unit, better) = unit_of(metric);
            println!("{name:<17} {metric:<38} {value:>16.6} {unit:<8} {better}");
        }
    }
    println!(
        "\n{}",
        if ok {
            "all outputs correct"
        } else {
            "OUTPUT MISMATCH OR FAILED OPERATIONS"
        }
    );
    ok
}

/// `--selfcheck K`: K end-to-end runs per workload, each with another seed
/// (as the driver does), then per metric the median, the quartiles and the
/// interquartile spread against the metric's bound.
fn selfcheck(args: &Args, runs: usize) -> bool {
    let mut ok = true;
    println!(
        "selfcheck: {runs} runs per workload, seeds {}..={}",
        args.seed,
        args.seed + runs as u64 - 1
    );
    println!();
    println!("| workload | metric | unit | median | q1 | q3 | spread | bound | verdict | values |");
    println!("|---|---|---|---|---|---|---|---|---|---|");
    for name in NAMES {
        let mut samples: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
        for k in 0..runs {
            match run_child(name, args.seed + k as u64, false, args, false) {
                Ok(r) => {
                    ok &= r.correct && r.failed == 0;
                    for (slot, def) in samples.iter_mut().zip(&END_TO_END) {
                        let value = r.metrics.iter().find(|(n, _)| n == def.name);
                        slot.push(value.map_or(f64::NAN, |(_, v)| *v));
                    }
                }
                Err(e) => {
                    eprintln!("selfcheck: {e}");
                    ok = false;
                }
            }
        }
        for (values, def) in samples.iter().zip(&END_TO_END) {
            if values.len() < 2 || values.iter().any(|v| !v.is_finite()) {
                ok = false;
                continue;
            }
            let (q1, q3) = quartiles(values);
            let med = median(values);
            let spread = spread(values);
            let verdict = if spread * 3.0 <= def.bound {
                "steady"
            } else if spread <= def.bound || def.name == "setup_s" {
                "within bound"
            } else {
                ok = false;
                "TOO NOISY"
            };
            let raw: Vec<String> = values.iter().map(|v| format!("{v:.5}")).collect();
            println!(
                "| {name} | {} | {} | {med:.6} | {q1:.6} | {q3:.6} | {:.2}% | {:.0}% | {verdict} | {} |",
                def.name,
                def.unit,
                spread * 100.0,
                def.bound * 100.0,
                raw.join(" ")
            );
        }
        let _ = std::io::stdout().flush();
    }
    ok
}

fn verify_oracle(args: &Args) -> bool {
    let mut ok = true;
    for name in NAMES {
        let w = workloads::build(name, args.seed, 1.0);
        let c = oracle::check(&w, ORACLE_EDGES);
        println!(
            "{name}: {} edges x {} rules: pipeline {} oracle {} -> {}",
            c.edges,
            c.rules,
            c.pipeline.render(),
            c.oracle.render(),
            if c.passed() { "ok" } else { "MISMATCH" }
        );
        ok &= c.passed();
    }
    ok
}

fn print_pins() -> bool {
    for name in NAMES {
        let w = workloads::build(name, PINNED_SEED, 1.0);
        let d = passes::run_rep(&w, false).finished.digest;
        println!(
            "        \"{name}\" => (0x{:016x}, ({}, 0x{:016x}, 0x{:016x})),",
            digest::stream_digest(&w.dataset.events),
            d.count,
            d.sum,
            d.xor,
        );
    }
    true
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let ok = if let Some(name) = &args.workload {
        // The verdict of a single run is the `correct` field of its result
        // line; the exit code only says a result was produced.
        run_one(&args, name);
        true
    } else if args.print_pins {
        print_pins()
    } else if args.verify_oracle {
        verify_oracle(&args)
    } else if let Some(runs) = args.selfcheck {
        selfcheck(&args, runs)
    } else {
        run_all(&args)
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` lists exactly the catalogue of `report.rs`, the
    /// workloads of `workloads.rs` and the nominal run length.
    #[test]
    fn committed_manifest_is_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let v = serde::json::parse(&text).unwrap();
        let list = |key: &str| v.get(key).unwrap().as_array().unwrap();
        let text_of =
            |item: &Value, key: &str| item.get(key).unwrap().as_str().unwrap().to_string();

        assert_eq!(
            v.get("run_seconds").unwrap().as_u64(),
            Some(NOMINAL_SECONDS)
        );
        assert_eq!(list("paths")[0].as_str(), Some("benchmark"));
        let names: Vec<String> = list("workloads")
            .iter()
            .map(|w| text_of(w, "name"))
            .collect();
        assert_eq!(names, NAMES);
        for w in list("workloads") {
            let why = text_of(w, "why");
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }

        let check = |key: &str, catalogue: &[MetricDef], bounded: bool| {
            let listed = list(key);
            assert_eq!(listed.len(), catalogue.len(), "{key}");
            for (item, def) in listed.iter().zip(catalogue) {
                assert_eq!(text_of(item, "name"), def.name);
                assert_eq!(text_of(item, "unit"), def.unit, "{}", def.name);
                let better = if def.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                assert_eq!(text_of(item, "better"), better, "{}", def.name);
                let bound = item.get("bound").and_then(Value::as_f64);
                assert_eq!(bound, bounded.then_some(def.bound), "{}", def.name);
            }
        };
        check("end_to_end", &END_TO_END, true);
        check("per_layer", &PER_LAYER, false);
    }
}
