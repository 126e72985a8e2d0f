//! Cross-crate integration: drift-adaptive re-decomposition is
//! semantics-preserving. On a stream whose protocol mix flips mid-way, the
//! adaptive processor must report exactly the match multiset of (a) the
//! same processor with adaptivity off, and (b) independent fresh
//! single-query processors — across every strategy and, for the parallel
//! runtime, across 1, 2 and 4 workers.

use sp_bench::experiments::drift_rule_pack;
use sp_datasets::{Dataset, NetflowDriftConfig};
use sp_graph::{EdgeData, EdgeEvent, EdgeId, EdgeType, Schema, Timestamp, VertexId};
use sp_query::{QueryEdgeId, QueryGraph, QuerySubgraph};
use std::time::Duration;
use streampattern::{
    leaf_structure, AdaptiveStats, ContinuousQueryEngine, DriftConfig, Executor, FnSink, Processor,
    ProfileCounters, QueryId, SelectivityEstimator, SjTree, StatsMode, Strategy, StrategySpec,
    StreamProcessor, SubgraphMatch,
};

#[macro_use]
mod common;

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
        let runs = on_every_executor!(&dataset.schema, |_, p| {
            let mut p = p
                .with_adaptive(drift_config())
                .with_estimator(seeded_estimator(&dataset, 500));
            let mut ids = Vec::new();
            for q in &pack {
                ids.push(p.register(q.clone(), spec, window).unwrap());
            }
            let slot = |id: QueryId| ids.iter().position(|&x| x == id).unwrap();
            let mut got: Vec<(usize, String)> = Vec::new();
            let mut sink = FnSink(|q: QueryId, m: SubgraphMatch| {
                got.push((slot(q), format!("{:?}", m.edge_pairs().collect::<Vec<_>>())));
            });
            p.process_all_into(dataset.events().iter(), &mut sink);
            got.sort();
            // The merged profile against the engines' own counters.
            let per_engine: u64 = ids
                .iter()
                .map(|&id| p.profile_for(id).unwrap().redecompositions)
                .sum();
            let merged = p.profile().redecompositions;
            (got, p.adaptive_stats(), per_engine, merged)
        });
        for (label, (got, stats, per_engine, merged)) in runs {
            assert_eq!(
                got, expected,
                "parallel adaptive run diverged at {label} under {spec:?}"
            );
            assert!(
                stats.redecompositions >= 1,
                "no redecomposition issued at {label} under {spec:?}"
            );
            assert_eq!(merged, per_engine, "{label}");
        }
    }
}

/// The statistics a re-plan reads are the standalone census continued over
/// the stream: every executor feeds its estimator each accepted edge once,
/// in stream order, and skips the refused one. The seed is decayed, as on
/// the benchmark's churn workload, so the halving schedule must line up too.
#[test]
fn live_statistics_equal_the_standalone_census_on_every_executor() {
    let dataset = drift_dataset();
    let (prefix, rest) = dataset.events().split_at(500);
    let seed = Dataset::estimator_from_events(prefix, StatsMode::Decayed(64));
    // Vertex id `u64::MAX` is refused by every shard.
    let mut stream = rest.to_vec();
    stream.insert(
        700,
        EdgeEvent {
            dst: u64::MAX,
            ..stream[700]
        },
    );
    let mut expected = seed.clone();
    let mut accepted = 0;
    for ev in stream.iter().filter(|ev| ev.dst != u64::MAX) {
        expected.observe_edge(&EdgeData {
            id: EdgeId(accepted),
            src: VertexId(ev.src),
            dst: VertexId(ev.dst),
            edge_type: ev.edge_type,
            timestamp: ev.timestamp,
        });
        accepted += 1;
    }
    assert_eq!(accepted as usize, rest.len());
    let summary = |e: &SelectivityEstimator| {
        (
            e.path_counter().descending(),
            e.edge_histogram().ascending(),
            e.lifetime_edges_observed(),
        )
    };
    let expected = summary(&expected);
    assert_eq!(expected.2, dataset.len() as u64);
    let pack = drift_pack(&dataset.schema);
    let runs = on_every_executor!(&dataset.schema, |_, p| {
        let mut p = p
            .with_adaptive(drift_config())
            .with_estimator(seed.clone())
            .with_statistics(true);
        for q in &pack {
            p.register(q.clone(), StrategySpec::Auto, Some(240))
                .unwrap();
        }
        p.process_all(&stream);
        (summary(p.estimator()), p.profile().rejected_events)
    });
    for (label, (got, rejected)) in runs {
        assert_eq!(rejected, 1, "{label}");
        assert!(got == expected, "live statistics diverged at {label}");
    }
}

/// A processor seeded with a clone of the caller's estimator shares its
/// census until its live statistics change it; the copy is the
/// processor's, and the caller's estimator reads as before the run.
#[test]
fn live_statistics_leave_the_callers_estimator_unchanged_on_every_executor() {
    let dataset = drift_dataset();
    let (prefix, rest) = dataset.events().split_at(500);
    let caller = Dataset::estimator_from_events(prefix, StatsMode::Decayed(64));
    let summary = |e: &SelectivityEstimator| {
        (
            e.path_counter().descending(),
            e.edge_histogram().ascending(),
            e.lifetime_edges_observed(),
        )
    };
    let before = summary(&caller);
    let pack = drift_pack(&dataset.schema);
    let runs = on_every_executor!(&dataset.schema, |_, p| {
        let mut p = p.with_estimator(caller.clone()).with_statistics(true);
        for q in &pack {
            p.register(q.clone(), StrategySpec::Auto, Some(240))
                .unwrap();
        }
        p.process_all(rest);
        summary(p.estimator())
    });
    for (label, live) in runs {
        assert_eq!(live.2, dataset.len() as u64, "{label}");
        assert!(summary(&caller) == before, "{label} changed the caller's");
    }
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
    plans: Vec<(QueryId, Strategy, Vec<Vec<QueryEdgeId>>)>,
    /// The sorted `(id, match fingerprint)` multiset.
    matches: Vec<(QueryId, String)>,
}

/// What `register_engine_orders_are_judged_at_the_first_due_check` reads
/// off one run: the adaptivity counters at the first due check, each
/// engine's final `(leaf structure, redecompositions)`, and the matches.
type Judged = (
    AdaptiveStats,
    [(Vec<Vec<QueryEdgeId>>, u64); 2],
    Vec<(QueryId, String)>,
);

/// The match fingerprints of `sink`, sorted.
fn fingerprints(sink: Vec<(QueryId, SubgraphMatch)>) -> Vec<(QueryId, String)> {
    let mut matches: Vec<(QueryId, String)> = sink
        .into_iter()
        .map(|(q, m)| (q, format!("{:?}", m.edge_pairs().collect::<Vec<_>>())))
        .collect();
    matches.sort();
    matches
}

/// Runs `script` on `p`. Also returns, with timers zeroed, the profile and
/// the stored-match count just before the final deregistrations.
fn run_script<X: Executor>(
    mut p: Processor<X>,
    dataset: &Dataset,
    script: &[Step],
) -> (Observed, ProfileCounters, u64) {
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
                let id = p.register(pack[*q].clone(), *spec, *window).unwrap();
                seen.ids.push(id);
                live.push(Some(id));
            }
            Step::Deregister(slot) => {
                let id = live[*slot].take().expect("deregistered once");
                p.deregister(id).expect("scripted ids are live");
            }
            Step::Drift => seen.rebuilt.push(p.run_drift_checks()),
            Step::Feed(range) => {
                p.process_all_into(&dataset.events()[range.clone()], &mut sink);
            }
        }
        seen.retention.push(p.graph_retention());
    }
    seen.stats = p.adaptive_stats();
    let profile = ProfileCounters {
        iso_time: Duration::ZERO,
        update_time: Duration::ZERO,
        replay_time: Duration::ZERO,
        ..p.profile()
    };
    let stored = p.stored_matches();
    for id in live.into_iter().flatten() {
        let engine = p.deregister(id).expect("scripted ids are live");
        let leaves = engine.tree().map(leaf_structure);
        seen.plans
            .push((id, engine.strategy(), leaves.unwrap_or_default()));
    }
    // Whatever the deregistrations left buffered.
    p.process_all_into([], &mut sink);
    seen.matches = fingerprints(sink);
    (seen, profile, stored)
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
        let runs = on_every_executor!(&dataset.schema, |_, p| {
            let p = p
                .with_estimator(seeded_estimator(&dataset, 500))
                .with_adaptive(drift)
                .with_purge_interval(64);
            run_script(p, &dataset, script)
        });
        let (_, (expected, inline_profile, inline_stored)) = &runs[0];
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
        for (label, (got, profile, stored)) in &runs[1..] {
            assert_eq!(
                got, expected,
                "front ends diverged on script {n} at {label}"
            );
            // One worker runs the inline executor's one shard: the merged
            // profile and the stored rows are that shard's.
            if label == "1 worker" {
                assert_eq!(format!("{profile:?}"), format!("{inline_profile:?}"));
                assert_eq!(stored, inline_stored);
            }
        }
    }
}

/// A stream whose mix never moves, over 61 hosts: 5 % esp, 40 % tcp and
/// 55 % udp.
fn stable_mix(schema: &mut Schema) -> Vec<EdgeEvent> {
    let ip = schema.intern_vertex_type("ip");
    let types = ["esp", "tcp", "udp"].map(|t| schema.intern_edge_type(t));
    (0..1_200u64)
        .map(|i| {
            let ty = match i % 20 {
                0 => types[0],
                1..=8 => types[1],
                _ => types[2],
            };
            let src = (i * 37) % 61;
            let dst = (src + 1 + (i * 53) % 60) % 61;
            EdgeEvent::homogeneous(src, dst, ip, ty, Timestamp(i))
        })
        .collect()
}

/// A `first`→`second` chain as a `SingleLazy` engine whose leaves run in
/// the reverse of the planner's order on [`stable_mix`]: `second` first.
fn reversed_chain(first: EdgeType, second: EdgeType) -> ContinuousQueryEngine {
    let mut q = QueryGraph::new("chain");
    let [a, b, c] = [(); 3].map(|_| q.add_any_vertex());
    q.add_edge(a, b, first);
    q.add_edge(b, c, second);
    let leaves = [QueryEdgeId(1), QueryEdgeId(0)]
        .map(|e| QuerySubgraph::from_edges(&q, [e]))
        .to_vec();
    let tree = SjTree::from_leaves(q, leaves);
    ContinuousQueryEngine::from_plan(Strategy::SingleLazy, tree, Some(100)).unwrap()
}

#[test]
fn register_engine_orders_are_judged_at_the_first_due_check() {
    // A pre-built engine's leaf order is judged like a planned one. Reversed
    // esp→tcp (rank-0 selectivity 0.40 where the planner's is 0.05) is
    // beaten by more than the rebuild gain and is rebuilt at the first due
    // check; reversed tcp→udp (0.55 against 0.40) is within it and is kept.
    // Neither changes the matches, on either front end. The statistics are
    // the whole stream's, frozen: nothing moves but the judged plans.
    let mut schema = Schema::new();
    let events = stable_mix(&mut schema);
    let stats = Dataset::estimator_from_events(&events, StatsMode::Cumulative);
    let [esp, tcp, udp] = ["esp", "tcp", "udp"].map(|t| schema.edge_type(t).unwrap());
    let (warmup, tail) = events.split_at(200);
    let (first_check, rest) = tail.split_at(100);
    let config = DriftConfig {
        check_interval: 100,
        min_observations: 64,
    };
    fn run<X: Executor>(
        p: Processor<X>,
        stats: &SelectivityEstimator,
        adaptive: Option<DriftConfig>,
        [warmup, first_check, rest]: [&[EdgeEvent]; 3],
        [beaten, close]: [ContinuousQueryEngine; 2],
    ) -> Judged {
        let mut p = p.with_estimator(stats.clone()).with_statistics(false);
        if let Some(config) = adaptive {
            p = p.with_adaptive(config);
        }
        let mut sink = Vec::new();
        p.process_all_into(warmup, &mut sink);
        let beaten = p.register_engine(beaten);
        let close = p.register_engine(close);
        p.process_all_into(first_check, &mut sink);
        let at_first_check = p.adaptive_stats();
        p.process_all_into(rest, &mut sink);
        let plans = [beaten, close].map(|id| {
            let engine = p.deregister(id).expect("registered above");
            (
                leaf_structure(engine.tree().unwrap()),
                engine.profile().redecompositions,
            )
        });
        p.process_all_into([], &mut sink);
        (at_first_check, plans, fingerprints(sink))
    }
    let streams = [warmup, first_check, rest];
    let engines = || [reversed_chain(esp, tcp), reversed_chain(tcp, udp)];
    let planner = vec![vec![QueryEdgeId(0)], vec![QueryEdgeId(1)]];
    let reversed = vec![vec![QueryEdgeId(1)], vec![QueryEdgeId(0)]];
    let fixed = on_every_executor!(&schema, |_, p| run(p, &stats, None, streams, engines()));
    let judged = on_every_executor!(&schema, |_, p| {
        run(p, &stats, Some(config), streams, engines())
    });
    for ((label, (_, fixed_plans, expected)), (_, (stats, plans, matches))) in
        fixed.into_iter().zip(judged)
    {
        assert!(!expected.is_empty(), "the stream produced no matches");
        assert_eq!(
            fixed_plans.map(|(leaves, _)| leaves),
            [reversed.clone(), reversed.clone()]
        );
        assert_eq!(
            (stats.checks, stats.redecompositions),
            (2, 1),
            "the first due check judges both engines and rebuilds one \
             ({label})"
        );
        assert_eq!(
            plans,
            [(planner.clone(), 1), (reversed.clone(), 0)],
            "{label}"
        );
        assert_eq!(matches, expected, "adaptivity changed the matches");
    }
}
