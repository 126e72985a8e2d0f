//! Cross-crate integration: drift-adaptive re-decomposition is
//! semantics-preserving. On a stream whose protocol mix flips mid-way, the
//! adaptive processor must report exactly the match multiset of (a) the
//! same processor with adaptivity off, and (b) independent fresh
//! single-query processors — across every strategy and, for the parallel
//! runtime, across worker counts (`RUNTIME_WORKERS` overrides the sweep,
//! mirroring `integration_parallel.rs`).

use sp_bench::experiments::drift_rule_pack;
use sp_datasets::{Dataset, NetflowDriftConfig};
use sp_graph::{EdgeEvent, Schema, Timestamp};
use sp_query::QueryGraph;
use sp_runtime::{ParallelStreamProcessor, RuntimeConfig};
use streampattern::{
    ContinuousQueryEngine, DriftConfig, FnSink, QueryId, SelectivityEstimator, StatsMode, Strategy,
    StrategySpec, StreamProcessor, SubgraphMatch,
};

/// Worker counts under test: `RUNTIME_WORKERS` (e.g. `2` or `1,2,4`) or the
/// default sweep.
fn worker_counts() -> Vec<usize> {
    match std::env::var("RUNTIME_WORKERS") {
        Ok(v) => v
            .split(',')
            .map(|p| {
                p.trim()
                    .parse::<usize>()
                    .unwrap_or_else(|_| panic!("bad RUNTIME_WORKERS entry '{p}'"))
            })
            .collect(),
        Err(_) => vec![1, 2, 4],
    }
}

fn drift_dataset() -> Dataset {
    NetflowDriftConfig {
        num_hosts: 2_000,
        num_edges: 2_400,
        shift_at: 1_000,
        popularity_exponent: 0.5,
        ..NetflowDriftConfig::default()
    }
    .generate()
}

/// Rules pairing protocols from opposite ends of the phase-1 rank order, so
/// the flip inverts their optimal leaf order — the benchmark's pack, minus
/// the mid-rank pairs that are not flip-sensitive, to keep the sweep fast.
fn drift_pack(schema: &Schema) -> Vec<QueryGraph> {
    let mut pack = drift_rule_pack(schema, 4);
    pack.retain(|q| q.name() != "tunnel-gre");
    pack
}

/// Decayed estimator seeded from the stream's pre-shift prefix, so every
/// arm registers against identical phase-1 statistics.
fn seeded_estimator(dataset: &Dataset, prefix: usize) -> SelectivityEstimator {
    Dataset::estimator_from_events(
        &dataset.events()[..prefix.min(dataset.len())],
        StatsMode::Decayed(128),
    )
}

fn drift_config() -> DriftConfig {
    DriftConfig {
        check_interval: 64,
        min_observations: 64,
        confirm_checks: 1,
    }
}

/// Runs the pack on one shared-graph processor and returns the sorted
/// `(registration slot, match fingerprint)` multiset plus the number of
/// re-decompositions performed.
fn run_shared(
    dataset: &Dataset,
    pack: &[QueryGraph],
    spec: StrategySpec,
    window: Option<u64>,
    adaptive: bool,
) -> (Vec<(usize, String)>, u64) {
    let mut proc = StreamProcessor::new(dataset.schema.clone())
        .with_estimator(seeded_estimator(dataset, 500))
        .with_statistics(true);
    if adaptive {
        proc = proc.with_adaptive(drift_config());
    }
    let mut ids = Vec::new();
    for q in pack {
        ids.push(proc.register(q.clone(), spec, window).unwrap());
    }
    let slot = |id: QueryId| ids.iter().position(|&x| x == id).unwrap();
    let mut out: Vec<(usize, String)> = Vec::new();
    let mut sink = FnSink(|q: QueryId, m: SubgraphMatch| {
        out.push((slot(q), format!("{:?}", m.edge_pairs().collect::<Vec<_>>())));
    });
    for ev in dataset.events() {
        proc.process_into(ev, &mut sink);
    }
    let redecompositions = proc.profile().redecompositions;
    out.sort();
    (out, redecompositions)
}

#[test]
fn adaptive_equals_fixed_and_independent_for_every_strategy() {
    let dataset = drift_dataset();
    let pack = drift_pack(&dataset.schema);
    let window = Some(240);
    for spec in [
        StrategySpec::Fixed(Strategy::Single),
        StrategySpec::Fixed(Strategy::SingleLazy),
        StrategySpec::Fixed(Strategy::Path),
        StrategySpec::Fixed(Strategy::PathLazy),
        StrategySpec::Auto,
    ] {
        let (adaptive, redecompositions) = run_shared(&dataset, &pack, spec, window, true);
        let (fixed, _) = run_shared(&dataset, &pack, spec, window, false);
        assert_eq!(
            adaptive, fixed,
            "adaptivity changed the match multiset under {spec:?}"
        );
        assert!(!adaptive.is_empty(), "workload produced no matches");
        assert!(
            redecompositions >= 1,
            "the flip never triggered a rebuild under {spec:?}"
        );

        // Independent fresh processors, one per query, same registration
        // statistics: the ground truth the shared adaptive run must match.
        let mut independent: Vec<(usize, String)> = Vec::new();
        for (slot, query) in pack.iter().enumerate() {
            let mut proc = StreamProcessor::new(dataset.schema.clone())
                .with_estimator(seeded_estimator(&dataset, 500))
                .with_statistics(true);
            proc.register(query.clone(), spec, window).unwrap();
            let mut sink = FnSink(|_, m: SubgraphMatch| {
                independent.push((slot, format!("{:?}", m.edge_pairs().collect::<Vec<_>>())));
            });
            for ev in dataset.events() {
                proc.process_into(ev, &mut sink);
            }
        }
        independent.sort();
        assert_eq!(
            adaptive, independent,
            "adaptive shared execution diverged from independent processors under {spec:?}"
        );
    }
}

#[test]
fn parallel_adaptive_equals_sequential_across_worker_counts() {
    let dataset = drift_dataset();
    let pack = drift_pack(&dataset.schema);
    let window = Some(240);
    for spec in [
        StrategySpec::Fixed(Strategy::SingleLazy),
        StrategySpec::Auto,
    ] {
        let (expected, _) = run_shared(&dataset, &pack, spec, window, false);
        assert!(!expected.is_empty());
        for workers in worker_counts() {
            let mut runtime = ParallelStreamProcessor::new(
                dataset.schema.clone(),
                RuntimeConfig::with_workers(workers).adaptive(drift_config()),
            )
            .with_estimator(seeded_estimator(&dataset, 500));
            let mut ids = Vec::new();
            for q in &pack {
                ids.push(runtime.register(q.clone(), spec, window).unwrap());
            }
            let slot = |id: QueryId| ids.iter().position(|&x| x == id).unwrap();
            let mut got: Vec<(usize, String)> = Vec::new();
            let mut sink = FnSink(|q: QueryId, m: SubgraphMatch| {
                got.push((slot(q), format!("{:?}", m.edge_pairs().collect::<Vec<_>>())));
            });
            runtime.process_all_into(dataset.events().iter(), &mut sink);
            got.sort();
            assert_eq!(
                got, expected,
                "parallel adaptive run diverged at {workers} workers under {spec:?}"
            );
            assert!(
                runtime.adaptive_stats().redecompositions >= 1,
                "no redecomposition issued at {workers} workers under {spec:?}"
            );
            let report = runtime.shutdown();
            assert_eq!(report.profile.redecompositions, runtime_redecomp(&report));
        }
    }
}

/// Sum of per-worker engine redecomposition counters, cross-checking the
/// merged profile.
fn runtime_redecomp(report: &sp_runtime::RuntimeReport) -> u64 {
    report
        .workers
        .iter()
        .flat_map(|w| w.per_query.iter())
        .map(|(_, p)| p.redecompositions)
        .sum()
}

#[test]
fn redecomposition_lands_mid_window_with_live_partial_matches() {
    // Hand-rolled: a drift-triggered rebuild happens while half a pattern
    // is live inside its window, and the match still completes exactly once
    // — in both the adaptive and the adaptivity-off processor.
    let mut schema = Schema::new();
    let ip = schema.intern_vertex_type("ip");
    let tcp = schema.intern_edge_type("tcp");
    let esp = schema.intern_edge_type("esp");
    let mut q = QueryGraph::new("esp-tcp");
    let a = q.add_any_vertex();
    let b = q.add_any_vertex();
    let c = q.add_any_vertex();
    q.add_edge(a, b, esp);
    q.add_edge(b, c, tcp);

    let run = |adaptive: bool| -> (u64, u64) {
        let mut proc = StreamProcessor::new(schema.clone())
            .with_estimator(SelectivityEstimator::new().with_mode(StatsMode::Decayed(64)))
            .with_statistics(true);
        if adaptive {
            proc = proc.with_adaptive(DriftConfig {
                check_interval: 10_000, // manual checks only
                min_observations: 16,
                confirm_checks: 1,
            });
        }
        // Phase 1: esp rare — the initial plan searches the esp leaf first.
        for i in 0..120u64 {
            let t = if i % 10 == 0 { esp } else { tcp };
            proc.process(&EdgeEvent::homogeneous(i, i + 5_000, ip, t, Timestamp(i)));
        }
        let qid = proc
            .register(q.clone(), Strategy::SingleLazy, Some(500))
            .unwrap();
        // The partial match: the esp half arrives and stays in-window.
        proc.process(&EdgeEvent::homogeneous(1, 2, ip, esp, Timestamp(200)));
        // Phase 2: esp floods, tcp dries up; the ranking flips while the
        // partial is live.
        for i in 0..400u64 {
            let t = if i % 10 == 0 { tcp } else { esp };
            proc.process(&EdgeEvent::homogeneous(
                10_000 + i,
                20_000 + i,
                ip,
                t,
                Timestamp(210 + i / 4),
            ));
        }
        let rebuilt = proc.run_drift_checks();
        if adaptive {
            assert!(rebuilt >= 1, "drift must rebuild the engine mid-window");
        } else {
            assert_eq!(rebuilt, 0);
        }
        // The completing tcp edge: still inside the 500-tick window of the
        // esp edge at t=200.
        let matches = proc.process(&EdgeEvent::homogeneous(2, 3, ip, tcp, Timestamp(400)));
        (
            matches.iter().filter(|(id, _)| *id == qid).count() as u64,
            proc.profile_for(qid).unwrap().redecompositions,
        )
    };

    let (matched_adaptive, redecomp) = run(true);
    let (matched_fixed, _) = run(false);
    assert_eq!(
        matched_adaptive, 1,
        "the partial must complete exactly once"
    );
    assert_eq!(matched_adaptive, matched_fixed);
    assert_eq!(redecomp, 1);

    // Sanity: an engine rebuilt this way reports the same continuation a
    // fresh engine fed the whole history would (replay-equivalence at the
    // engine level is asserted in the core crate's unit tests).
    let est = SelectivityEstimator::new();
    let engine = ContinuousQueryEngine::new(q, Strategy::SingleLazy, &est, Some(500)).unwrap();
    assert_eq!(engine.profile().redecompositions, 0);
}

/// One step of the schedule-parity script.
enum Step {
    /// Register pack query `.0` under the given spec and window.
    Register(usize, StrategySpec, Option<u64>),
    /// Deregister the query the `.0`-th `Register` step created.
    Deregister(usize),
    /// An explicit `run_drift_checks`.
    Drift,
    /// Feed this range of the stream.
    Feed(std::ops::Range<usize>),
}

/// The two front ends behind the calls the script makes.
enum FrontEnd {
    Seq(Box<StreamProcessor>),
    Par(Box<ParallelStreamProcessor>),
}

impl FrontEnd {
    fn register(&mut self, q: QueryGraph, spec: StrategySpec, window: Option<u64>) -> QueryId {
        match self {
            FrontEnd::Seq(p) => p.register(q, spec, window),
            FrontEnd::Par(p) => p.register(q, spec, window),
        }
        .unwrap()
    }

    fn deregister(&mut self, id: QueryId) -> ContinuousQueryEngine {
        match self {
            FrontEnd::Seq(p) => p.deregister(id),
            FrontEnd::Par(p) => p.deregister(id),
        }
        .expect("scripted ids are live")
    }

    fn run_drift_checks(&mut self) -> usize {
        match self {
            FrontEnd::Seq(p) => p.run_drift_checks(),
            FrontEnd::Par(p) => p.run_drift_checks(),
        }
    }

    fn feed(&mut self, events: &[EdgeEvent], sink: &mut Vec<(QueryId, SubgraphMatch)>) {
        match self {
            FrontEnd::Seq(p) => p.process_batch_into(events, sink),
            FrontEnd::Par(p) => p.process_all_into(events, sink),
        };
    }

    fn retention(&self) -> Option<u64> {
        match self {
            FrontEnd::Seq(p) => p.graph().window(),
            FrontEnd::Par(p) => p.graph_retention(),
        }
    }

    fn adaptive_stats(&self) -> streampattern::AdaptiveStats {
        match self {
            FrontEnd::Seq(p) => p.adaptive_stats(),
            FrontEnd::Par(p) => p.adaptive_stats(),
        }
    }
}

/// Everything the script lets an observer see.
#[derive(Debug, PartialEq)]
struct Observed {
    /// The id each `Register` step returned.
    ids: Vec<QueryId>,
    /// The graph retention after every step.
    retention: Vec<Option<u64>>,
    /// What each `Drift` step reported.
    rebuilt: Vec<usize>,
    stats: streampattern::AdaptiveStats,
    /// `(id, strategy, leaf structure)` of every query still registered at
    /// the end of the script.
    plans: Vec<(QueryId, Strategy, Vec<Vec<streampattern::QueryEdgeId>>)>,
    /// The sorted `(id, match fingerprint)` multiset.
    matches: Vec<(QueryId, String)>,
}

fn run_script(mut front: FrontEnd, dataset: &Dataset, script: &[Step]) -> Observed {
    let pack = drift_rule_pack(&dataset.schema, 5);
    let mut live: Vec<Option<QueryId>> = Vec::new();
    let mut sink: Vec<(QueryId, SubgraphMatch)> = Vec::new();
    let mut seen = Observed {
        ids: Vec::new(),
        retention: Vec::new(),
        rebuilt: Vec::new(),
        stats: Default::default(),
        plans: Vec::new(),
        matches: Vec::new(),
    };
    for step in script {
        match step {
            Step::Register(q, spec, window) => {
                let id = front.register(pack[*q].clone(), *spec, *window);
                seen.ids.push(id);
                live.push(Some(id));
            }
            Step::Deregister(slot) => {
                front.deregister(live[*slot].take().expect("deregistered once"));
            }
            Step::Drift => seen.rebuilt.push(front.run_drift_checks()),
            Step::Feed(range) => front.feed(&dataset.events()[range.clone()], &mut sink),
        }
        seen.retention.push(front.retention());
    }
    seen.stats = front.adaptive_stats();
    for id in live.into_iter().flatten() {
        let engine = front.deregister(id);
        let leaves = engine.tree().map(streampattern::leaf_structure);
        seen.plans
            .push((id, engine.strategy(), leaves.unwrap_or_default()));
    }
    if let FrontEnd::Par(runtime) = front {
        sink.extend(runtime.shutdown().pending_matches);
    }
    seen.matches = sink
        .into_iter()
        .map(|(q, m)| (q, format!("{:?}", m.edge_pairs().collect::<Vec<_>>())))
        .collect();
    seen.matches.sort();
    seen
}

#[test]
fn scripted_schedule_is_identical_on_both_front_ends() {
    // Both front ends make every control decision through one
    // `ControlPlane`: the same script of registrations (fixed and auto),
    // deregistrations, explicit drift checks and feeds must produce the same
    // ids, the same retention after every step, the same adaptivity
    // counters, the same final plans and the same matches under the same
    // ids — sequentially and on 1, 2 and 4 workers.
    let dataset = drift_dataset();
    let lazy = StrategySpec::Fixed(Strategy::SingleLazy);
    let path_lazy = StrategySpec::Fixed(Strategy::PathLazy);
    let scripts = [
        // Mixed windows, including none. No two of these rules share a
        // decomposition prefix: while the graph retains more than a rule's
        // own window, what a prefix sharer reports still depends on which
        // rules it is co-located with (ROADMAP, "Exactness first").
        vec![
            Step::Register(0, lazy, Some(240)),
            Step::Register(1, StrategySpec::Auto, Some(120)),
            Step::Feed(0..600),
            Step::Register(2, StrategySpec::Auto, None),
            Step::Drift,
            Step::Feed(600..1_100),
            Step::Deregister(2),
            Step::Register(4, path_lazy, Some(400)),
            Step::Feed(1_100..1_500),
            Step::Drift,
            Step::Feed(1_500..1_800),
            Step::Deregister(0),
            Step::Register(1, StrategySpec::Fixed(Strategy::Path), Some(60)),
            Step::Drift,
            Step::Feed(1_800..2_399),
            Step::Register(0, StrategySpec::Auto, Some(240)),
            Step::Drift,
        ],
        // One window, with the prefix sharers (rules 0 and 3) joining and
        // leaving a shared join table mid-stream.
        vec![
            Step::Register(0, lazy, Some(240)),
            Step::Register(1, StrategySpec::Auto, Some(240)),
            Step::Feed(0..600),
            Step::Register(3, StrategySpec::Auto, Some(240)),
            Step::Drift,
            Step::Feed(600..1_100),
            Step::Deregister(1),
            Step::Register(4, path_lazy, Some(240)),
            Step::Feed(1_100..1_500),
            Step::Drift,
            Step::Feed(1_500..1_800),
            Step::Deregister(0),
            Step::Drift,
            Step::Feed(1_800..2_399),
            Step::Register(0, StrategySpec::Auto, Some(240)),
            Step::Drift,
        ],
    ];
    // Only the scripted checks fire.
    let drift = DriftConfig {
        check_interval: u64::MAX,
        ..drift_config()
    };
    for (n, script) in scripts.iter().enumerate() {
        // A purge every 64 edges, so the retention window actually bites.
        let sequential = StreamProcessor::new(dataset.schema.clone())
            .with_estimator(seeded_estimator(&dataset, 500))
            .with_adaptive(drift)
            .with_purge_interval(64);
        let expected = run_script(FrontEnd::Seq(Box::new(sequential)), &dataset, script);
        let registrations = expected.ids.len() as u64;
        assert_eq!(
            expected.ids,
            (0..registrations).map(QueryId).collect::<Vec<_>>()
        );
        if n == 0 {
            assert!(expected.retention.contains(&None) && expected.retention.contains(&Some(400)));
        }
        assert!(
            expected.stats.redecompositions >= 1,
            "script {n} never re-planned: {:?}",
            expected.stats
        );
        assert!(!expected.matches.is_empty());

        for workers in worker_counts() {
            let runtime = ParallelStreamProcessor::new(
                dataset.schema.clone(),
                RuntimeConfig::with_workers(workers)
                    .adaptive(drift)
                    .purge_interval(64),
            )
            .with_estimator(seeded_estimator(&dataset, 500));
            let got = run_script(FrontEnd::Par(Box::new(runtime)), &dataset, script);
            assert_eq!(
                got, expected,
                "front ends diverged on script {n} at {workers} workers"
            );
        }
    }
}
