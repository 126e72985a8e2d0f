//! The four workloads: every parameter that shapes a run is frozen here.
//!
//! A workload is a generated stream (from `--seed`), a query pack, the
//! processor configuration, an offered rate for the paced stretch and — for
//! `netflow_churn` — a register/deregister schedule. `BENCHMARK.json` says
//! in a line why each exists; the README has the long form.
//!
//! Sizing: a stream is a warm-up prefix (replayed during set-up, >= 0.3 s),
//! the paced stretch (1.5–2 s at the offered rate) and the closed stretch
//! (about 1 s back to back on the 2-vCPU reference VM). A repetition of an
//! end-to-end run has no paced stretch — its closed stretch starts right
//! after the warm-up and takes 1.0–1.3 s — so it lasts about [`REP_SECONDS`]
//! and `--seconds` buys `--seconds / REP_SECONDS` of them. Streams, rates,
//! windows and packs never change with `--seconds`; only `--quick` and the
//! tests cut the streams.

use crate::digest::MatchDigest;
use sp_datasets::{
    soc_chain_rule, Dataset, LsbenchConfig, NetflowConfig, NetflowDriftConfig, QueryGenerator,
    QueryKind,
};
use sp_query::QueryGraph;
use sp_runtime::{ParallelStreamProcessor, RuntimeConfig};
use sp_selectivity::{DriftConfig, SelectivityEstimator, StatsMode};
use std::time::Instant;
use streampattern::{Strategy, StrategySpec, StreamProcessor};

/// The `run_seconds` of `BENCHMARK.json`: the `--seconds` comparable runs
/// are made with.
pub const NOMINAL_SECONDS: u64 = 20;

/// Seconds one repetition of an end-to-end run (set-up, closed stretch)
/// takes on the reference VM when it is quiet, rounded up: `--seconds` ÷ this
/// is the number of repetitions of a run.
pub const REP_SECONDS: f64 = 1.7;

/// Worker threads of the runtime workload (the VM has two cores).
pub const WORKERS: usize = 2;

/// The seed the pinned digests belong to.
pub const PINNED_SEED: u64 = 42;

/// Names, in report order.
pub const NAMES: [&str; 4] = [
    "lsbench_calm",
    "netflow_storm",
    "netflow_churn",
    "netflow_parallel",
];

/// One continuous query with how it is registered.
#[derive(Debug, Clone)]
pub struct Rule {
    /// The pattern.
    pub query: QueryGraph,
    /// Fixed strategy or `Auto`.
    pub spec: StrategySpec,
    /// The query's own window `tW`.
    pub window: Option<u64>,
}

/// Which processor runs the job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// `StreamProcessor` on the driver thread.
    Sequential,
    /// `ParallelStreamProcessor` with [`WORKERS`] workers.
    Parallel,
}

/// The control-plane schedule of `netflow_churn`: `live` rules of `rotation`
/// are registered at any time; at every stream index that is a positive
/// multiple of `period` the oldest is deregistered and the next registered.
#[derive(Debug, Clone)]
pub struct Churn {
    /// Edges between rotations.
    pub period: usize,
    /// Rotating rules live at once.
    pub live: usize,
    /// The rules, cycled round-robin.
    pub rotation: Vec<Rule>,
}

/// Expected fingerprints of a workload at [`PINNED_SEED`] and full scale.
#[derive(Debug, Clone, Copy)]
pub struct Pins {
    /// [`crate::digest::stream_digest`] of the generated events.
    pub stream: u64,
    /// Digest of the matches of the whole stream (warm-up included).
    pub matches: MatchDigest,
}

/// A fully built workload, ready to run.
pub struct Workload {
    /// Workload name (one of [`NAMES`]).
    pub name: &'static str,
    /// Generated stream and schema.
    pub dataset: Dataset,
    /// Seconds spent generating the stream and priming the estimator —
    /// harness cost, deliberately outside `setup_s`.
    pub generate_s: f64,
    /// Estimator handed to the processor (primed where the workload says so).
    pub estimator: SelectivityEstimator,
    /// Live statistics collection on the ingest path.
    pub statistics: bool,
    /// Drift-adaptive re-decomposition.
    pub adaptive: Option<DriftConfig>,
    /// Rules registered at set-up and never removed.
    pub resident: Vec<Rule>,
    /// Register/deregister schedule, if any.
    pub churn: Option<Churn>,
    /// Sequential or runtime.
    pub engine: Engine,
    /// Events replayed during set-up.
    pub warmup: usize,
    /// Events of the paced stretch, which follows the warm-up; the closed
    /// stretch is the rest of the stream.
    pub paced_len: usize,
    /// Offered rate of the paced stretch, events per second.
    pub offered_eps: f64,
    /// Pinned fingerprints, when this build is at the pinned seed and scale.
    pub pins: Option<Pins>,
}

/// How a workload's stream is cut, in events at full scale.
struct Layout {
    /// Replayed during set-up: >= 0.3 s and >= 2 windows.
    warmup: usize,
    /// Released on the schedule in the traced run: 1.5 s at the workload's
    /// offered rate (2 s on `netflow_storm`, whose match-weighted latency
    /// depends most on which hub bursts the stretch happens to hold). Part
    /// of the closed stretch in an end-to-end run.
    paced: usize,
    /// Fed back to back: about 1 s on the reference VM.
    closed: usize,
}

impl Layout {
    fn scaled(&self, scale: f64) -> Layout {
        let cut = |n: usize| ((n as f64 * scale).round() as usize).max(1);
        Layout {
            warmup: cut(self.warmup),
            paced: cut(self.paced),
            closed: cut(self.closed),
        }
    }

    fn total(&self) -> usize {
        self.warmup + self.paced + self.closed
    }
}

fn layout(name: &str) -> Layout {
    let (warmup, paced, closed) = match name {
        "lsbench_calm" => (120_000, 67_500, 330_000),
        "netflow_storm" => (19_000, 15_000, 32_000),
        "netflow_churn" => (50_000, 24_000, 160_000),
        "netflow_parallel" => (38_000, 22_500, 65_536),
        other => panic!("unknown workload {other:?}"),
    };
    Layout {
        warmup,
        paced,
        closed,
    }
}

fn chain(dataset: &Dataset, protocols: &[&str], spec: StrategySpec, window: u64) -> Rule {
    Rule {
        query: soc_chain_rule(&dataset.schema, &protocols.join(">"), protocols),
        spec,
        window: Some(window),
    }
}

const LSBENCH_PERSONS: usize = 50_000;
/// The static friendship phase (first 12%) ends inside the warm-up (16%):
/// the paced and the closed stretch are the activity stream throughout.
const LSBENCH_STATIC_FRACTION: f64 = 0.12;

/// The generated stream of workload `name`, entirely from `seed`.
fn generate(name: &str, seed: u64, cut: &Layout) -> Dataset {
    let num_edges = cut.total();
    match name {
        "lsbench_calm" => LsbenchConfig {
            num_persons: LSBENCH_PERSONS,
            num_edges,
            static_fraction: LSBENCH_STATIC_FRACTION,
            seed,
            ..LsbenchConfig::default()
        }
        .generate(),
        "netflow_storm" => NetflowConfig {
            num_hosts: 10_000,
            num_edges,
            seed,
            ..NetflowConfig::default()
        }
        .generate(),
        "netflow_churn" => NetflowDriftConfig {
            num_hosts: 20_000,
            num_edges,
            // A quarter into the paced stretch: the flip and the rebuilds it
            // triggers land where latency is measured, and the closed
            // stretch runs on the flipped mix throughout.
            shift_at: cut.warmup + cut.paced / 4,
            protocol_exponent: 1.8,
            seed,
            ..NetflowDriftConfig::default()
        }
        .generate(),
        "netflow_parallel" => NetflowConfig {
            num_hosts: 50_000,
            num_edges,
            seed,
            ..NetflowConfig::default()
        }
        .generate(),
        other => panic!("unknown workload {other:?}"),
    }
}

/// Builds workload `name` from `seed`; `scale` cuts the stream (1.0 for
/// comparable runs).
pub fn build(name: &str, seed: u64, scale: f64) -> Workload {
    let t0 = Instant::now();
    let cut = layout(name).scaled(scale);
    let dataset = generate(name, seed, &cut);
    let mut w = match name {
        "lsbench_calm" => lsbench_calm(dataset),
        "netflow_storm" => netflow_storm(dataset),
        "netflow_churn" => netflow_churn(dataset),
        "netflow_parallel" => netflow_parallel(dataset),
        other => panic!("unknown workload {other:?}"),
    };
    w.generate_s = t0.elapsed().as_secs_f64();
    // Generators may round the event count; the closed stretch absorbs it.
    assert!(cut.warmup + cut.paced < w.dataset.len());
    w.warmup = cut.warmup;
    w.paced_len = cut.paced;
    if seed == PINNED_SEED && scale == 1.0 {
        w.pins = pins(name);
    }
    w
}

fn lsbench_calm(dataset: Dataset) -> Workload {
    const WINDOW: u64 = 5_000;
    const PER_KIND: usize = 12;
    // Statistics come from a *sample* stream (same generator, fixed seed), as
    // in the paper's methodology (§5.1), not from the measured stream: they
    // drive the paper's filter — drop generated queries holding a 2-edge
    // path the sample never shows — and the 2-edge decompositions, so the
    // pack and its plans are the same for every `--seed` and only the stream
    // varies. Statistics collection itself is off.
    let sample = LsbenchConfig {
        num_persons: LSBENCH_PERSONS,
        num_edges: 150_000,
        static_fraction: LSBENCH_STATIC_FRACTION,
        seed: 77,
        ..LsbenchConfig::default()
    }
    .generate();
    let estimator = sample.estimator_from_prefix(sample.len());
    let mut generator =
        QueryGenerator::new(dataset.schema.clone(), dataset.valid_triples.clone(), 77);
    let mut resident = Vec::new();
    for kind in [
        QueryKind::Path { length: 3 },
        QueryKind::NaryTree { vertices: 4 },
        QueryKind::NaryTree { vertices: 5 },
        QueryKind::Path { length: 4 },
    ] {
        let mut kept = 0;
        while kept < PER_KIND {
            let query = generator.generate(kind);
            if QueryGenerator::has_unseen_wedge(&query, &estimator) {
                continue;
            }
            let strategy = if resident.len() % 2 == 0 {
                Strategy::PathLazy
            } else {
                Strategy::SingleLazy
            };
            resident.push(Rule {
                query,
                spec: StrategySpec::Fixed(strategy),
                window: Some(WINDOW),
            });
            kept += 1;
        }
    }
    Workload {
        name: "lsbench_calm",
        dataset,
        generate_s: 0.0,
        estimator,
        statistics: false,
        adaptive: None,
        resident,
        churn: None,
        engine: Engine::Sequential,
        warmup: 0,
        paced_len: 0,
        offered_eps: 45_000.0,
        pins: None,
    }
}

fn netflow_storm(dataset: Dataset) -> Workload {
    const WINDOW: u64 = 2_000;
    let fixed = StrategySpec::Fixed(Strategy::SingleLazy);
    let resident = [
        &["TCP", "TCP"][..],
        &["UDP", "UDP"],
        &["TCP", "UDP"],
        &["UDP", "TCP"],
        &["ICMP", "TCP"],
        &["TCP", "ICMP"],
        &["TCP", "TCP", "UDP"],
        &["TCP", "UDP", "ICMP"],
        &["ICMP", "TCP", "UDP"],
    ]
    .iter()
    // Each chain under two windows, as SOC packs repeat a pattern at several
    // time scales: every join prefix then has two users, so the shared join
    // stage carries the storm and `core.shared_join_share` — not the
    // `private_engine` span that leads `lsbench_calm` — is what it stresses.
    .flat_map(|p| [WINDOW, WINDOW / 2].map(|w| chain(&dataset, p, fixed, w)))
    .collect();
    Workload {
        name: "netflow_storm",
        dataset,
        generate_s: 0.0,
        estimator: SelectivityEstimator::new(),
        statistics: false,
        adaptive: None,
        resident,
        churn: None,
        engine: Engine::Sequential,
        warmup: 0,
        paced_len: 0,
        offered_eps: 7_500.0,
        pins: None,
    }
}

fn netflow_churn(dataset: Dataset) -> Workload {
    const LONG: u64 = 8_000;
    const SHORT: u64 = 2_000;
    let prime = dataset.len().min(20_000);
    let estimator =
        Dataset::estimator_from_events(&dataset.events[..prime], StatsMode::Decayed(8_192));
    let auto = StrategySpec::Auto;
    // Anchored on what is rare before the protocol flip and floods after it,
    // so the selectivity order of every rule inverts mid-stream.
    let resident = [
        &["AH", "TCP"][..],
        &["ESP", "TCP"],
        &["GRE", "UDP"],
        &["AH", "UDP"],
        &["ESP", "ICMP"],
        &["IPv6", "TCP"],
        &["AH", "TCP", "UDP"],
        &["ESP", "TCP", "ICMP"],
    ]
    .iter()
    .map(|p| chain(&dataset, p, auto, SHORT))
    .collect();
    // Each 2-chain appears under both windows and with a 3-step extension:
    // as the rotation advances, shared-join trie nodes gain a second user
    // (created, back-filled by replay), get a deeper child spliced under
    // them, and collapse when the users leave.
    let rotation = [
        (&["GRE", "TCP"][..], LONG),
        (&["GRE", "TCP"], SHORT),
        (&["GRE", "TCP", "UDP"], LONG),
        (&["ESP", "UDP"], LONG),
        (&["ESP", "UDP"], SHORT),
        (&["ESP", "UDP", "TCP"], SHORT),
        (&["IPv6", "ICMP"], LONG),
        (&["IPv6", "ICMP"], SHORT),
        (&["IPv6", "ICMP", "TCP"], LONG),
        (&["AH", "ICMP"], LONG),
        (&["AH", "ICMP"], SHORT),
        (&["AH", "ICMP", "UDP"], SHORT),
    ]
    .iter()
    .map(|(p, w)| chain(&dataset, p, auto, *w))
    .collect();
    Workload {
        name: "netflow_churn",
        dataset,
        generate_s: 0.0,
        estimator,
        statistics: true,
        adaptive: Some(DriftConfig::default()),
        resident,
        churn: Some(Churn {
            period: 1_000,
            live: 6,
            rotation,
        }),
        engine: Engine::Sequential,
        warmup: 0,
        paced_len: 0,
        offered_eps: 16_000.0,
        pins: None,
    }
}

fn netflow_parallel(dataset: Dataset) -> Workload {
    const WINDOW: u64 = 2_000;
    let fixed = StrategySpec::Fixed(Strategy::SingleLazy);
    let common = ["TCP", "UDP", "ICMP"];
    let mut chains: Vec<Vec<&str>> = Vec::new();
    for anchor in ["ESP", "AH"] {
        // 7 two-chains and 9 three-chains per anchor.
        for (next, _) in sp_datasets::netflow::PROTOCOLS {
            chains.push(vec![anchor, next]);
        }
        for second in common {
            for third in common {
                chains.push(vec![anchor, second, third]);
            }
        }
        // Anchor in second position: the rare edge arrives after the
        // common one.
        chains.push(vec!["TCP", anchor]);
        chains.push(vec!["UDP", anchor]);
    }
    chains.push(vec!["TCP", "TCP"]);
    chains.push(vec!["UDP", "UDP"]);
    chains.push(vec!["TCP", "UDP"]);
    let resident = chains
        .iter()
        .map(|p| chain(&dataset, p, fixed, WINDOW))
        .collect();
    Workload {
        name: "netflow_parallel",
        dataset,
        generate_s: 0.0,
        estimator: SelectivityEstimator::new(),
        statistics: false,
        adaptive: None,
        resident,
        churn: None,
        engine: Engine::Parallel,
        warmup: 0,
        paced_len: 0,
        offered_eps: 15_000.0,
        pins: None,
    }
}

impl Workload {
    /// A copy of this workload over the sub-stream `range` (re-based to
    /// start at stream index 0) with `warmup` set-up events, the rest halved
    /// between the paced and the closed stretch, and no pins — what the
    /// oracle check runs.
    pub fn slice(&self, range: std::ops::Range<usize>, warmup: usize) -> Workload {
        let events = self.dataset.events[range].to_vec();
        assert!(
            warmup < events.len(),
            "warm-up must leave events to measure on"
        );
        let paced_len = ((events.len() - warmup) / 2).max(1);
        Workload {
            name: self.name,
            dataset: Dataset {
                name: self.dataset.name.clone(),
                schema: self.dataset.schema.clone(),
                events,
                valid_triples: self.dataset.valid_triples.clone(),
            },
            generate_s: self.generate_s,
            estimator: self.estimator.clone(),
            statistics: self.statistics,
            adaptive: self.adaptive,
            resident: self.resident.clone(),
            churn: self.churn.clone(),
            engine: self.engine,
            warmup,
            paced_len,
            offered_eps: self.offered_eps,
            pins: None,
        }
    }

    /// A fresh sequential processor configured for this workload, with no
    /// query registered yet. `netflow_parallel`'s sequential twin uses the
    /// same call: the runtime's workers run exactly this configuration.
    pub fn sequential(&self) -> StreamProcessor {
        let mut p = StreamProcessor::new(self.dataset.schema.clone())
            .with_estimator(self.estimator.clone())
            .with_statistics(self.statistics);
        if let Some(cfg) = self.adaptive {
            p = p.with_adaptive(cfg);
        }
        p
    }

    /// A fresh runtime configured for this workload, with no query
    /// registered yet.
    pub fn parallel(&self, workers: usize) -> ParallelStreamProcessor {
        assert!(
            self.adaptive.is_none(),
            "no runtime workload uses adaptivity"
        );
        let config = RuntimeConfig::with_workers(workers).statistics(self.statistics);
        ParallelStreamProcessor::new(self.dataset.schema.clone(), config)
            .with_estimator(self.estimator.clone())
    }
}

/// Pinned fingerprints for seed 42 at full scale. Regenerate with
/// `--print-pins` after an *intended* change of generator, pack or sizing.
/// An engine change must not need to — with one exception, stated on the
/// pin it concerns.
fn pins(name: &str) -> Option<Pins> {
    let (stream, (count, sum, xor)) = match name {
        "lsbench_calm" => (
            0x94496d420e601b25,
            (225182, 0xd38551127309541e, 0xaedbf8c6a78593a2),
        ),
        "netflow_storm" => (
            0xbbaf64777229cc4f,
            (3544558, 0xb1dbef9629d7589f, 0xa611eff31981df75),
        ),
        // KNOWN ENGINE DEFECT in this pin: the pipeline reports a few of
        // these matches TWICE (a 2000-window rule re-reports an old match
        // thousands of edges after a rotation; no duplicate when all rules
        // share one window, none on the other workloads). The engine fix
        // changes this count and digest: re-pin then, and only then.
        // `--verify-oracle` stops before the first rotation and does not
        // cover it.
        "netflow_churn" => (
            0x002bd14eb51a6eca,
            (491413, 0xbc8b8c00f73dccbc, 0xe8553d79f72047de),
        ),
        "netflow_parallel" => (
            0x34fcbc6fd27c6ac2,
            (993369, 0x228b38ca11640243, 0x0ed68c62040e3f2b),
        ),
        _ => return None,
    };
    Some(Pins {
        stream,
        matches: MatchDigest { count, sum, xor },
    })
}
