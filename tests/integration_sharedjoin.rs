//! Shared join stage: equivalence and lifecycle.
//!
//! The contract is that sharing the join stage is *semantics-preserving*:
//! for any strategy, window mix and worker count, the reported
//! `(query, match)` multiset is identical to that of each query's engine
//! run alone on its own graph, with no shard and so no shared stage
//! (`sp_bench::runner::run_alone`). The lifecycle tests cover the refcounted
//! tables: the last unsubscriber (deregistration or a drift-driven
//! re-subscription) drops the shared prefix table, a late subscriber to an
//! existing prefix sees no pre-registration matches, and a
//! re-decomposition landing mid-window keeps live partials completing.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sp_bench::runner::{partial_match_inserts, run_alone};
use sp_datasets::{soc_chain_rule, NetflowConfig};
use sp_graph::{EdgeEvent, Timestamp};
use sp_query::QueryGraph;
use streampattern::{
    plan_query, ContinuousQueryEngine, CountSink, Executor, FnSink, Processor, QueryId, RowLayout,
    RowSink, Schema, SelectivityEstimator, Shard, SharedRow, SjTree, Strategy, StrategySpec,
    StreamProcessor, SubgraphMatch,
};

#[macro_use]
mod common;

/// An overlapping netflow rule pack with identical chains (exfil vs
/// exfil-wide — different windows, one table), *nesting* prefix overlaps
/// (bounce and bounce-wide extend the exfil chain, so under the trie policy
/// their depth-3 node consumes the depth-2 exfil node's emissions) and
/// non-overlapping rules, so the shared join stage exercises full-depth
/// sharing, parent-to-child trie feeding and the private fallback at once.
fn pack(schema: &Schema) -> Vec<(QueryGraph, Option<u64>)> {
    let chain = |name: &str, protos: &[&str]| sp_datasets::soc_chain_rule(schema, name, protos);
    vec![
        (chain("exfil", &["TCP", "ESP"]), Some(5_000)),
        (chain("exfil-wide", &["TCP", "ESP"]), None),
        (chain("bounce", &["TCP", "ESP", "TCP"]), Some(5_000)),
        (chain("bounce-wide", &["TCP", "ESP", "TCP"]), None),
        (chain("scan", &["ICMP", "TCP"]), Some(2_000)),
        (chain("scan-flood", &["ICMP", "TCP", "UDP"]), Some(4_000)),
        (chain("relay", &["TCP", "TCP"]), Some(1_000)),
    ]
}

/// Sorted `(query slot, match fingerprint)` multiset of a full run.
fn multiset_of<F>(mut process_all: F) -> Vec<(usize, String)>
where
    F: FnMut(&mut dyn FnMut(usize, SubgraphMatch)),
{
    let mut out = Vec::new();
    process_all(&mut |slot, m| {
        out.push((slot, format!("{:?}", m.edge_pairs().collect::<Vec<_>>())));
    });
    out.sort();
    out
}

#[test]
fn shared_join_is_semantics_preserving_across_strategies_and_windows() {
    let dataset = NetflowConfig {
        num_hosts: 300,
        num_edges: 2_500,
        ..NetflowConfig::tiny()
    }
    .generate();
    let schema = dataset.schema.clone();
    let estimator = dataset.estimator_from_prefix(dataset.len() / 4);
    let rules = pack(&schema);

    let specs: [StrategySpec; 5] = [
        Strategy::Single.into(),
        Strategy::SingleLazy.into(),
        Strategy::Path.into(),
        Strategy::PathLazy.into(),
        StrategySpec::Auto,
    ];
    for spec in specs {
        let mut proc = StreamProcessor::new(schema.clone())
            .with_estimator(estimator.clone())
            .with_statistics(false);
        let ids: Vec<QueryId> = rules
            .iter()
            .map(|(q, w)| proc.register(q.clone(), spec, *w).unwrap())
            .collect();
        let full = multiset_of(|emit| {
            let mut sink = FnSink(|q: QueryId, m: SubgraphMatch| {
                let slot = ids.iter().position(|&i| i == q).unwrap();
                emit(slot, m);
            });
            for ev in dataset.events() {
                proc.process_into(ev, &mut sink);
            }
        });
        assert!(!full.is_empty(), "workload found no matches");

        // Pre-sharing architecture: every rule's engine alone on its own
        // graph, storing its own prefix partials.
        let mut independent_inserts = 0;
        let independent = multiset_of(|emit| {
            for (slot, (q, w)) in rules.iter().enumerate() {
                let (strategy, tree) = plan_query(q, spec, &estimator).unwrap();
                let engine = ContinuousQueryEngine::from_plan(strategy, tree, *w).unwrap();
                let engine = run_alone(&schema, engine, dataset.events(), 0, |m| emit(slot, m));
                independent_inserts += engine.stored_matches();
            }
        });
        assert_eq!(
            full, independent,
            "shared join stage diverges from independent processors under {spec:?}"
        );
        let join_stats = proc.shared_join_stats();
        // Under the 1-edge decompositions every 2-edge rule is join-capable
        // and the identical exfil/exfil-wide chains must coalesce into one
        // refcounted table that eliminates inserts and searches. (The
        // 2-edge-path decompositions fold those rules into a single leaf —
        // nothing to join — so only the multiset parity above applies.)
        let single_edge = matches!(
            spec,
            StrategySpec::Fixed(Strategy::Single) | StrategySpec::Fixed(Strategy::SingleLazy)
        );
        if single_edge {
            assert!(
                join_stats.tables >= 1,
                "no shared prefix table under {spec:?}: {join_stats:?}"
            );
            assert!(join_stats.subscriptions >= 2);
            assert!(
                join_stats.searches_saved > 0 && join_stats.inserts_saved > 0,
                "no join work eliminated under {spec:?}: {join_stats:?}"
            );
            assert!(join_stats.deliveries > 0);
            // The bounce pair's depth-3 node nests under the exfil pair's
            // depth-2 node and consumes its emissions instead of re-running
            // the shared leaves.
            assert!(
                join_stats.max_depth >= 3,
                "no nested trie node under {spec:?}: {join_stats:?}"
            );
            assert!(
                join_stats.parent_feeds > 0,
                "the trie never fed a child under {spec:?}: {join_stats:?}"
            );
            // Total physical join-stage inserts (every engine's private
            // tables plus the shared stage, each insert counted once): the
            // shared stage must cost strictly less than independent
            // processors, where every engine stores its own prefix partials.
            let trie_inserts = partial_match_inserts(&proc);
            assert!(
                trie_inserts < independent_inserts,
                "shared join stage did not reduce join-stage inserts under {spec:?}: \
                 {trie_inserts} vs independent {independent_inserts}"
            );
            // Per-engine accounting: the identical-chain queries consumed
            // their matches from the shared stage.
            let exfil_profile = proc.profile_for(ids[0]).unwrap();
            assert!(
                exfil_profile.join_stages_shared > 0,
                "exfil never hit a shared table under {spec:?}"
            );
        }
    }
}

/// Without trie-edge splits the trie's shape depends on registration
/// order, so exactness must hold for every order. Rules register one every
/// `len / 14` events, in seeded shuffles of the pack (the first round puts
/// the bounce pair before the exfil pair: a shallow pair after a deep one),
/// under eager strategies, `Single` and `Path` alternating. Each round's
/// `(rule, match)` multiset must equal each rule's engine run alone from its
/// registration position under the same frozen plan.
#[test]
fn every_registration_order_matches_independent_processors() {
    let dataset = NetflowConfig {
        num_hosts: 300,
        num_edges: 2_500,
        ..NetflowConfig::tiny()
    }
    .generate();
    let schema = dataset.schema.clone();
    let estimator = dataset.estimator_from_prefix(dataset.len() / 4);
    let rules = pack(&schema);
    let events = dataset.events();
    let step = events.len() / 14;
    let mut rng = SmallRng::seed_from_u64(37);
    let mut order: Vec<usize> = vec![2, 3, 0, 1, 4, 5, 6];
    for round in 0..4 {
        if round > 0 {
            for i in (1..order.len()).rev() {
                order.swap(i, rng.gen_range(0..=i));
            }
        }
        let strategy = [Strategy::Single, Strategy::Path][round % 2];
        // `(registration position, rule slot)`, in registration order.
        let schedule: Vec<(usize, usize)> = order
            .iter()
            .enumerate()
            .map(|(k, &slot)| (k * step, slot))
            .collect();

        let mut proc = StreamProcessor::new(schema.clone())
            .with_estimator(estimator.clone())
            .with_statistics(false);
        let mut slots: Vec<(QueryId, usize)> = Vec::new();
        let mut shared = Vec::new();
        for (i, ev) in events.iter().enumerate() {
            for &(_, slot) in schedule.iter().filter(|&&(at, _)| at == i) {
                let (q, w) = &rules[slot];
                slots.push((proc.register(q.clone(), strategy, *w).unwrap(), slot));
            }
            let mut sink = FnSink(|q: QueryId, m: SubgraphMatch| {
                let slot = slots.iter().find(|&&(id, _)| id == q).unwrap().1;
                shared.push((slot, format!("{:?}", m.edge_pairs().collect::<Vec<_>>())));
            });
            proc.process_into(ev, &mut sink);
        }
        shared.sort();
        assert!(!shared.is_empty(), "round {round} found no matches");

        let independent = multiset_of(|emit| {
            for &(at, slot) in &schedule {
                let (q, w) = &rules[slot];
                let (strategy, tree) = plan_query(q, strategy.into(), &estimator).unwrap();
                let engine = ContinuousQueryEngine::from_plan(strategy, tree, *w).unwrap();
                run_alone(&schema, engine, events, at, |m| emit(slot, m));
            }
        });
        assert_eq!(
            shared, independent,
            "registration order {order:?} under {strategy:?} diverged from independent processors"
        );
    }
}

#[test]
fn shared_join_matches_parallel_runtime_across_worker_counts() {
    let dataset = NetflowConfig {
        num_hosts: 300,
        num_edges: 2_500,
        ..NetflowConfig::tiny()
    }
    .generate();
    let schema = dataset.schema.clone();
    let estimator = dataset.estimator_from_prefix(dataset.len() / 4);
    let rules = pack(&schema);

    let runs = on_every_executor!(&schema, |_, p| {
        let mut p = with_pack(p, &estimator, &rules);
        let ids = p.query_ids();
        multiset_of(|emit| {
            let mut sink = FnSink(|q: QueryId, m: SubgraphMatch| {
                emit(ids.iter().position(|&i| i == q).unwrap(), m);
            });
            p.process_all_into(dataset.events().iter(), &mut sink);
        })
    });
    let (_, expected) = &runs[0];
    for (label, got) in &runs[1..] {
        assert_eq!(got, expected, "multiset diverged at {label}");
    }
    // The pack does share its join stage.
    let mut inline = with_pack(StreamProcessor::new(schema.clone()), &estimator, &rules);
    inline.process_all(dataset.events());
    assert!(inline.shared_join_stats().searches_saved > 0);
}

/// `p` with the statistics frozen at `estimator` and `rules` registered
/// under `SingleLazy`, in order.
fn with_pack<X: Executor>(
    p: Processor<X>,
    estimator: &SelectivityEstimator,
    rules: &[(QueryGraph, Option<u64>)],
) -> Processor<X> {
    let mut p = p.with_estimator(estimator.clone()).with_statistics(false);
    for (q, w) in rules {
        p.register(q.clone(), Strategy::SingleLazy, *w).unwrap();
    }
    p
}

/// Counts the matches of each row form a [`RowSink`] receives.
#[derive(Default)]
struct FormCounter {
    burst_rows: u64,
    shared_rows: u64,
}

impl RowSink for FormCounter {
    fn on_rows(&mut self, _: QueryId, layout: RowLayout, rows: &[u64]) {
        self.burst_rows += (rows.len() / layout.stride()) as u64;
    }

    fn on_shared_row(&mut self, _: QueryId, _: SharedRow<'_>) {
        self.shared_rows += 1;
    }
}

/// One sink contract: whatever sink an executor is handed — a row counter,
/// the collecting `Vec`, a closure — it reports the same matches. The pack
/// holds a full-depth shared-join subscriber (its matches leave through
/// `on_shared_row`), a partial-depth one and a private engine (both through
/// `on_rows`).
#[test]
fn every_sink_sees_the_same_matches_on_both_front_ends() {
    let dataset = NetflowConfig {
        num_hosts: 300,
        num_edges: 2_500,
        ..NetflowConfig::tiny()
    }
    .generate();
    let schema = dataset.schema.clone();
    let estimator = dataset.estimator_from_prefix(dataset.len() / 4);
    let rules = pack(&schema);
    let sequential = || with_pack(StreamProcessor::new(schema.clone()), &estimator, &rules);
    let fingerprint =
        |q: QueryId, m: &SubgraphMatch| (q, format!("{:?}", m.edge_pairs().collect::<Vec<_>>()));
    let sorted_vec = |matches: Vec<(QueryId, SubgraphMatch)>| {
        let mut out: Vec<_> = matches.iter().map(|(q, m)| fingerprint(*q, m)).collect();
        out.sort();
        out
    };

    // The pack covers all three delivery paths.
    let proc = sequential();
    let joins = proc.shared_joins();
    let (mut full, mut partial, mut private) = (0, 0, 0);
    for id in proc.query_ids() {
        let leaves = proc.engine_for(id).unwrap().tree().unwrap().num_leaves();
        match joins.subscription_depth(id) {
            Some(depth) if depth == leaves => full += 1,
            Some(_) => partial += 1,
            None => private += 1,
        }
    }
    assert!(
        full > 0 && partial > 0 && private > 0,
        "pack lacks a delivery path: {full} full-depth, {partial} partial-depth, {private} private"
    );

    let mut forms = FormCounter::default();
    sequential().process_batch_into(dataset.events(), &mut forms);
    assert!(
        forms.burst_rows > 0 && forms.shared_rows > 0,
        "a row form delivered nothing: {} burst rows, {} shared rows",
        forms.burst_rows,
        forms.shared_rows
    );

    // (executor, CountSink, Vec sink, FnSink count and multiset)
    let counts = on_every_executor!(&schema, |_, p| {
        let mut count = CountSink::new();
        with_pack(p, &estimator, &rules).process_all_into(dataset.events(), &mut count);
        count
    });
    let collected = on_every_executor!(&schema, |_, p| {
        let mut collected = Vec::new();
        with_pack(p, &estimator, &rules).process_all_into(dataset.events(), &mut collected);
        collected
    });
    let seen = on_every_executor!(&schema, |_, p| {
        let mut seen = Vec::new();
        with_pack(p, &estimator, &rules).process_all_into(
            dataset.events(),
            &mut FnSink(|q, m: SubgraphMatch| seen.push(fingerprint(q, &m))),
        );
        seen
    });
    let runs = counts.into_iter().zip(collected).zip(seen).map(
        |(((front_end, count), (_, collected)), (_, seen))| (front_end, count, collected, seen),
    );

    let expected = forms.burst_rows + forms.shared_rows;
    let mut reference = None;
    for (front_end, count, collected, mut seen) in runs {
        assert_eq!(count.matches, expected, "CountSink on {front_end}");
        assert_eq!(collected.len() as u64, expected, "Vec sink on {front_end}");
        assert_eq!(seen.len() as u64, expected, "FnSink on {front_end}");
        seen.sort();
        let collected = sorted_vec(collected);
        assert_eq!(collected, seen, "Vec and FnSink multisets on {front_end}");
        let reference = reference.get_or_insert_with(|| collected.clone());
        assert_eq!(&collected, reference, "{front_end} against the inline run");
    }
}

fn two_hop(schema: &Schema, name: &str) -> QueryGraph {
    let tcp = schema.edge_type("tcp").unwrap();
    let esp = schema.edge_type("esp").unwrap();
    let mut q = QueryGraph::new(name);
    let a = q.add_any_vertex();
    let b = q.add_any_vertex();
    let c = q.add_any_vertex();
    q.add_edge(a, b, tcp);
    q.add_edge(b, c, esp);
    q
}

fn cyber_schema() -> Schema {
    let mut schema = Schema::new();
    schema.intern_vertex_type("ip");
    schema.intern_edge_type("tcp");
    schema.intern_edge_type("esp");
    schema
}

#[test]
fn late_subscriber_to_an_existing_prefix_sees_only_post_registration_matches() {
    let schema = cyber_schema();
    let ip = schema.vertex_type("ip").unwrap();
    let tcp = schema.edge_type("tcp").unwrap();
    let esp = schema.edge_type("esp").unwrap();
    // A deterministic stream with tcp→esp completions in each half and no
    // completion straddling the boundary.
    let events: Vec<EdgeEvent> = (0..40u64)
        .map(|i| {
            let t = if i % 4 == 3 { esp } else { tcp };
            EdgeEvent::homogeneous(i, i + 1, ip, t, Timestamp(i))
        })
        .collect();
    let half = events.len() / 2;

    // Statistics stay off so the early and late twins decompose with the
    // same (tie-broken) leaf order — live statistics drifting between the
    // two registrations would give them different chains, and different
    // chains legitimately do not share a table.
    let mut proc = StreamProcessor::new(schema.clone()).with_statistics(false);
    let early = proc
        .register(two_hop(&schema, "early"), Strategy::SingleLazy, None)
        .unwrap();
    // One registered chain: no partner yet, so no table.
    assert_eq!(proc.shared_join_stats().tables, 0);
    let mut early_first_half = 0u64;
    for ev in &events[..half] {
        early_first_half += proc.process(ev).iter().filter(|(q, _)| *q == early).count() as u64;
    }
    assert!(early_first_half > 0, "first half produced no matches");

    // The late twin arrives mid-stream: a shared table is created for the
    // common chain and the early query migrates onto it — back-filled by
    // replaying the retained graph, so the early query's live partials
    // keep completing.
    let late = proc
        .register(two_hop(&schema, "late"), Strategy::SingleLazy, None)
        .unwrap();
    let stats = proc.shared_join_stats();
    assert_eq!(stats.tables, 1);
    assert_eq!(stats.subscriptions, 2);
    assert!(stats.replays >= 1, "migration must back-fill the table");

    let mut early_second_half = 0u64;
    let mut late_second_half = 0u64;
    for ev in &events[half..] {
        for (q, _) in proc.process(ev) {
            if q == late {
                late_second_half += 1;
            } else {
                early_second_half += 1;
            }
        }
    }
    // Reference: a fresh processor that sees only the second half. The
    // late subscriber must report exactly these matches — nothing
    // inherited from the shared table's earlier activity.
    let mut fresh = StreamProcessor::new(schema.clone());
    let fresh_id = fresh
        .register(two_hop(&schema, "fresh"), Strategy::SingleLazy, None)
        .unwrap();
    let mut fresh_matches = 0u64;
    for ev in &events[half..] {
        fresh_matches += fresh
            .process(ev)
            .iter()
            .filter(|(q, _)| *q == fresh_id)
            .count() as u64;
    }
    assert_eq!(
        late_second_half, fresh_matches,
        "late subscriber saw pre-registration history"
    );
    // The early query keeps joining across the registration boundary.
    assert!(early_second_half >= late_second_half);
    assert!(early_second_half > 0);

    // Refcount lifecycle via deregistration: the table survives while any
    // subscriber remains and drops with the last one.
    proc.deregister(early).unwrap();
    let stats = proc.shared_join_stats();
    assert_eq!(stats.tables, 1, "late query still holds the table");
    assert_eq!(stats.subscriptions, 1);
    proc.deregister(late).unwrap();
    let stats = proc.shared_join_stats();
    assert_eq!(stats.tables, 0, "last unsubscriber must drop the table");
    assert_eq!(stats.subscriptions, 0);
}

/// Builds a tree over `q` whose leaves are the query's single edges in the
/// given explicit order (bypassing the selectivity-driven order).
fn tree_with_leaf_order(q: &QueryGraph, order: &[usize]) -> SjTree {
    let leaves = order
        .iter()
        .map(|&i| sp_query::QuerySubgraph::from_edges(q, [sp_query::QueryEdgeId(i)]))
        .collect();
    SjTree::from_leaves(q.clone(), leaves)
}

/// An engine for `q` planned against empty statistics, as a processor with
/// statistics off would plan it.
fn unplanned_engine(
    q: QueryGraph,
    strategy: Strategy,
    window: Option<u64>,
) -> ContinuousQueryEngine {
    ContinuousQueryEngine::new(q, strategy, &SelectivityEstimator::new(), window).unwrap()
}

/// Ingests one event into a bare shard and returns the matches it completed.
fn process(shard: &mut Shard, ev: &EdgeEvent) -> Vec<(QueryId, SubgraphMatch)> {
    let mut matches = Vec::new();
    shard.process_into(ev, &mut matches, |_| {});
    matches
}

#[test]
fn drift_driven_resubscription_moves_prefix_refcounts() {
    let schema = cyber_schema();
    let ip = schema.vertex_type("ip").unwrap();
    let tcp = schema.edge_type("tcp").unwrap();
    let esp = schema.edge_type("esp").unwrap();

    // A drift check rebuilds a query on its shard through
    // `Shard::redecompose`; driving the shard directly pins the plans.
    let mut shard = Shard::new(schema.clone());
    let (q1, q2) = (QueryId(0), QueryId(1));
    for (id, name) in [(q1, "one"), (q2, "two")] {
        let q = two_hop(&schema, name);
        shard.register(id, unplanned_engine(q, Strategy::SingleLazy, Some(1_000)));
    }
    shard.set_retention(Some(1_000));
    assert_eq!(shard.shared_joins().stats().tables, 1);
    assert_eq!(shard.shared_joins().stats().subscriptions, 2);

    // Half a pattern arrives: a live partial sits in the shared table.
    assert!(process(
        &mut shard,
        &EdgeEvent::homogeneous(1, 2, ip, tcp, Timestamp(10))
    )
    .is_empty());

    // Re-decompose q1 onto the flipped leaf order mid-window: q1 leaves the
    // table (q2 keeps it alive — the refcount drops to one, the table
    // stays) and runs privately until a partner with the flipped chain
    // appears.
    let query = shard.engine(q1).unwrap().query().clone();
    let flipped = tree_with_leaf_order(&query, &[1, 0]);
    shard
        .redecompose(q1, Strategy::SingleLazy, flipped.clone())
        .unwrap();
    let stats = shard.shared_joins().stats();
    assert_eq!(stats.tables, 1, "q2 still holds the original table");
    assert_eq!(stats.subscriptions, 1);

    // Re-decompose q2 the same way: the original table loses its last
    // subscriber and is dropped; the two flipped chains coalesce into a
    // fresh table (replayed from the retained graph).
    shard
        .redecompose(q2, Strategy::SingleLazy, flipped)
        .unwrap();
    let stats = shard.shared_joins().stats();
    assert_eq!(stats.tables, 1, "flipped chains share a fresh table");
    assert_eq!(stats.subscriptions, 2);
    assert!(stats.replays >= 1);

    // The completing edge arrives after both swaps: the pre-swap partial
    // (replayed into the fresh table) completes exactly once per query.
    let matches = process(
        &mut shard,
        &EdgeEvent::homogeneous(2, 3, ip, esp, Timestamp(20)),
    );
    let for_q1 = matches.iter().filter(|(q, _)| *q == q1).count();
    let for_q2 = matches.iter().filter(|(q, _)| *q == q2).count();
    assert_eq!(for_q1, 1, "q1 lost its live partial across the swap");
    assert_eq!(for_q2, 1, "q2 lost its live partial across the swap");
}

#[test]
fn late_subscriber_keeps_its_boundary_across_redecompose() {
    let schema = cyber_schema();
    let ip = schema.vertex_type("ip").unwrap();
    let tcp = schema.edge_type("tcp").unwrap();
    let esp = schema.edge_type("esp").unwrap();
    let tcp_edge = |i: u64| EdgeEvent::homogeneous(2 * i, 2 * i + 1, ip, tcp, Timestamp(i));
    // Empty statistics: every twin decomposes into the same chain.
    let twin = |name: &str| unplanned_engine(two_hop(&schema, name), Strategy::Single, None);

    let mut shard = Shard::new(schema.clone());
    let early = QueryId(0);
    shard.register(early, twin("early"));
    for i in 0..2 {
        process(&mut shard, &tcp_edge(i));
    }
    // Twins registered after two edges: entitled to matches anchored at
    // the third tcp edge on, not the first two.
    let (late, other) = (QueryId(1), QueryId(2));
    shard.register(late, twin("late"));
    shard.register(other, twin("twin"));
    process(&mut shard, &tcp_edge(2));

    // Re-decomposing onto its own plan re-subscribes `late` with the
    // boundary it registered with, not the current stream position.
    let tree = shard.engine(late).unwrap().tree().unwrap().clone();
    shard.redecompose(late, Strategy::Single, tree).unwrap();

    let mut count = std::collections::HashMap::<QueryId, usize>::new();
    for i in 0..3 {
        let esp_edge = EdgeEvent::homogeneous(2 * i + 1, 100 + i, ip, esp, Timestamp(10 + i));
        for (q, _) in process(&mut shard, &esp_edge) {
            *count.entry(q).or_default() += 1;
        }
    }
    assert_eq!(count.get(&early), Some(&3));
    assert_eq!(count.get(&late), Some(&1), "late lost or gained history");
    assert_eq!(count.get(&other), Some(&1));
}

#[test]
fn mixed_windows_share_one_table_and_filter_at_emit() {
    let schema = cyber_schema();
    let ip = schema.vertex_type("ip").unwrap();
    let tcp = schema.edge_type("tcp").unwrap();
    let esp = schema.edge_type("esp").unwrap();

    let mut proc = StreamProcessor::new(schema.clone());
    let narrow = proc
        .register(two_hop(&schema, "narrow"), Strategy::Single, Some(50))
        .unwrap();
    let wide = proc
        .register(two_hop(&schema, "wide"), Strategy::Single, None)
        .unwrap();
    assert_eq!(proc.shared_join_stats().tables, 1, "one table, two windows");

    // tcp at t=0, esp at t=100: spans 100 ticks — outside the narrow
    // window, inside the (unbounded) wide one.
    proc.process(&EdgeEvent::homogeneous(1, 2, ip, tcp, Timestamp(0)));
    let matches = proc.process(&EdgeEvent::homogeneous(2, 3, ip, esp, Timestamp(100)));
    assert_eq!(matches.iter().filter(|(q, _)| *q == wide).count(), 1);
    assert_eq!(matches.iter().filter(|(q, _)| *q == narrow).count(), 0);

    // A fast completion lands in both.
    proc.process(&EdgeEvent::homogeneous(10, 11, ip, tcp, Timestamp(200)));
    let matches = proc.process(&EdgeEvent::homogeneous(11, 12, ip, esp, Timestamp(210)));
    assert_eq!(matches.iter().filter(|(q, _)| *q == wide).count(), 1);
    assert_eq!(matches.iter().filter(|(q, _)| *q == narrow).count(), 1);
}

fn three_hop(schema: &Schema, name: &str) -> QueryGraph {
    let tcp = schema.edge_type("tcp").unwrap();
    let esp = schema.edge_type("esp").unwrap();
    let mut q = QueryGraph::new(name);
    let a = q.add_any_vertex();
    let b = q.add_any_vertex();
    let c = q.add_any_vertex();
    let d = q.add_any_vertex();
    q.add_edge(a, b, tcp);
    q.add_edge(b, c, esp);
    q.add_edge(c, d, tcp);
    q
}

/// Storage contract of the trie: with a `[tcp, esp]` node feeding a
/// `[tcp, esp, tcp]` child, every tcp→esp partial is stored exactly once —
/// in the child's consume slot — while the child's parent-owned stages stay
/// empty and both prefix roots store nothing.
#[test]
fn nested_prefix_partials_are_stored_exactly_once() {
    let schema = cyber_schema();
    let ip = schema.vertex_type("ip").unwrap();
    let tcp = schema.edge_type("tcp").unwrap();
    let esp = schema.edge_type("esp").unwrap();

    let mut proc = StreamProcessor::new(schema.clone()).with_statistics(false);
    proc.register(two_hop(&schema, "n1"), Strategy::SingleLazy, None)
        .unwrap();
    proc.register(two_hop(&schema, "n2"), Strategy::SingleLazy, None)
        .unwrap();
    proc.register(three_hop(&schema, "d1"), Strategy::SingleLazy, None)
        .unwrap();
    proc.register(three_hop(&schema, "d2"), Strategy::SingleLazy, None)
        .unwrap();

    // 20 disjoint tcp→esp pairs, none completed to three hops: every pair
    // is a live partial of both prefixes.
    for i in 0..20u64 {
        let v = 100 * i;
        proc.process(&EdgeEvent::homogeneous(v, v + 1, ip, tcp, Timestamp(2 * i)));
        proc.process(&EdgeEvent::homogeneous(
            v + 1,
            v + 2,
            ip,
            esp,
            Timestamp(2 * i + 1),
        ));
    }

    let stats = proc.shared_join_stats();
    assert_eq!(stats.tables, 2);
    assert_eq!(stats.max_depth, 3);
    assert_eq!(
        stats.parent_feeds, 20,
        "each pair completion must flow parent → child exactly once"
    );
    let nodes = proc.shared_joins().trie_nodes();
    assert_eq!(nodes.len(), 2);
    let (shallow, deep) = (&nodes[0], &nodes[1]);
    assert_eq!(
        (shallow.depth, shallow.parent_depth, shallow.children),
        (2, None, 1)
    );
    assert_eq!((deep.depth, deep.parent_depth), (3, Some(2)));
    // Shallow node layout [leaf0, leaf1, root]: it owns the tcp and esp
    // leaf partials; its root (the [tcp,esp] completions) is emitted, never
    // stored.
    assert_eq!(shallow.live_by_node, vec![20, 20, 0]);
    // Deep node layout [leaf0, leaf1, leaf2, join(0..=1), root]: the
    // parent-owned stages (leaves 0 and 1) stay empty, the 20 fed pair
    // partials live only in the consume slot, its own rank-2 tcp leaf
    // keeps its partials, and the root again stores nothing.
    assert_eq!(deep.live_by_node, vec![0, 0, 20, 20, 0]);
}

/// A later shallow pair arrives beside an existing deeper node *while
/// partials are in flight*: the trie grows downward only, so the new
/// depth-2 node is a second root, the depth-3 node keeps computing its own
/// leading stages with its live partials, no table needs a back-fill, and
/// the full scripted timeline reports the same match multiset as
/// independent processors registered at the same stream positions.
#[test]
fn shallow_pair_after_deep_pair_stays_exact_with_partials_in_flight() {
    let schema = cyber_schema();
    let ip = schema.vertex_type("ip").unwrap();
    let tcp = schema.edge_type("tcp").unwrap();
    let esp = schema.edge_type("esp").unwrap();

    // Scripted timeline: 30 tcp→esp pairs, then a closing tcp hop for each.
    // The deep pair registers first; the shallow pair registers after 15
    // pairs, with the deep pair's partials live.
    let mut events: Vec<EdgeEvent> = (0..30u64)
        .flat_map(|i| {
            let v = 100 * i;
            [
                EdgeEvent::homogeneous(v, v + 1, ip, tcp, Timestamp(2 * i)),
                EdgeEvent::homogeneous(v + 1, v + 2, ip, esp, Timestamp(2 * i + 1)),
            ]
        })
        .collect();
    events.extend((0..30u64).map(|i| {
        let v = 100 * i;
        EdgeEvent::homogeneous(v + 2, v + 3, ip, tcp, Timestamp(100 + i))
    }));
    let shallow_at = 30;
    let rules = [
        (three_hop(&schema, "d1"), 0),
        (three_hop(&schema, "d2"), 0),
        (two_hop(&schema, "n1"), shallow_at),
        (two_hop(&schema, "n2"), shallow_at),
    ];
    let fingerprint = |m: &SubgraphMatch| format!("{:?}", m.edge_pairs().collect::<Vec<_>>());

    let mut proc = StreamProcessor::new(schema.clone()).with_statistics(false);
    let mut ids: Vec<QueryId> = Vec::new();
    let mut trie = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        for (q, _) in rules.iter().filter(|&&(_, at)| at == i) {
            ids.push(
                proc.register(q.clone(), Strategy::SingleLazy, None)
                    .unwrap(),
            );
        }
        if i == shallow_at {
            // The shallow pair's depth-2 node is a second trie root beside
            // the depth-3 one, and both registered at the same position,
            // so nothing was back-filled.
            let nodes = proc.shared_joins().trie_nodes();
            let shape: Vec<_> = nodes
                .iter()
                .map(|n| (n.depth, n.parent_depth, n.children, n.subscribers))
                .collect();
            assert_eq!(shape, vec![(2, None, 0, 2), (3, None, 0, 2)]);
            assert_eq!(proc.shared_join_stats().replays, 0);
        }
        for (q, m) in proc.process(ev) {
            trie.push((ids.iter().position(|&x| x == q).unwrap(), fingerprint(&m)));
        }
    }
    trie.sort();

    // Oracle: each rule's engine alone, from the same stream position.
    let mut expected = Vec::new();
    for (slot, (q, at)) in rules.iter().enumerate() {
        let engine = ContinuousQueryEngine::new(
            q.clone(),
            Strategy::SingleLazy,
            &SelectivityEstimator::new(),
            None,
        )
        .unwrap();
        run_alone(&schema, engine, &events, *at, |m| {
            expected.push((slot, fingerprint(&m)));
        });
    }
    expected.sort();
    assert_eq!(
        trie, expected,
        "a shallow pair beside a deep node diverged from independent processors"
    );
    // Every deep query completes all 30 chains (partials from before the
    // shallow registration included); the late shallow pair sees only the
    // pairs completed after its registration.
    let per_slot = |slot: usize| expected.iter().filter(|(s, _)| *s == slot).count();
    assert_eq!(
        (per_slot(0), per_slot(1), per_slot(2), per_slot(3)),
        (30, 30, 15, 15)
    );
}

// ---- row-native delivery: rebasing, windows, boundaries, spill ------------

/// The chain `protos[0] → protos[1] → …` numbered *against* the grain:
/// vertices are created from the chain's tail to its head and edges are
/// added last hop first, so the query's own ids are a non-identity
/// permutation of any head-to-tail canonical numbering.
fn permuted_chain(schema: &Schema, name: &str, protos: &[&str]) -> QueryGraph {
    let n = protos.len();
    let mut q = QueryGraph::new(name);
    let ids: Vec<_> = (0..=n).map(|_| q.add_any_vertex()).collect();
    let at = |pos: usize| ids[n - pos];
    for hop in (0..n).rev() {
        q.add_edge(at(hop), at(hop + 1), schema.edge_type(protos[hop]).unwrap());
    }
    q
}

/// Everything a subscriber-side rebase could get wrong: which data edge
/// plays which query edge, which data vertex which query vertex, and the
/// time span.
fn full_fingerprint(m: &SubgraphMatch) -> String {
    format!(
        "{:?} {:?} {:?}",
        m.edge_pairs().collect::<Vec<_>>(),
        m.vertex_pairs().collect::<Vec<_>>(),
        m.time_span()
    )
}

type Rule = (QueryGraph, Option<u64>);

/// Sorted `(rule slot, full fingerprint)` multiset of `rules` on one
/// processor built by `configure`.
fn shared_run(
    schema: &Schema,
    rules: &[Rule],
    events: &[EdgeEvent],
    configure: impl Fn(StreamProcessor) -> StreamProcessor,
) -> (Vec<(usize, String)>, StreamProcessor, Vec<QueryId>) {
    let mut proc = configure(StreamProcessor::new(schema.clone()));
    let ids: Vec<QueryId> = rules
        .iter()
        .map(|(q, w)| proc.register(q.clone(), Strategy::Single, *w).unwrap())
        .collect();
    let mut out = Vec::new();
    {
        let mut sink = FnSink(|q: QueryId, m: SubgraphMatch| {
            out.push((
                ids.iter().position(|&i| i == q).unwrap(),
                full_fingerprint(&m),
            ));
        });
        for ev in events {
            proc.process_into(ev, &mut sink);
        }
    }
    out.sort();
    (out, proc, ids)
}

/// The oracle: every rule's engine alone on its own graph.
fn independent_run(
    schema: &Schema,
    rules: &[Rule],
    events: &[EdgeEvent],
    estimator: &SelectivityEstimator,
) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (slot, (q, w)) in rules.iter().enumerate() {
        let engine =
            ContinuousQueryEngine::new(q.clone(), Strategy::Single, estimator, *w).unwrap();
        run_alone(schema, engine, events, 0, |m| {
            out.push((slot, full_fingerprint(&m)));
        });
    }
    out.sort();
    out
}

/// Three nested chains, each registered head-to-tail under one window and
/// against the grain under another: three prefix tables in a 3-level trie,
/// each with one identity-mapped and one permuted full-depth subscriber.
fn nested_permuted_pack(schema: &Schema) -> Vec<Rule> {
    const CHAIN: [&str; 4] = ["IPv6", "ICMP", "UDP", "TCP"];
    let mut rules = Vec::new();
    for depth in 2..=4 {
        rules.push((
            soc_chain_rule(schema, &format!("straight-{depth}"), &CHAIN[..depth]),
            Some(400),
        ));
        rules.push((
            permuted_chain(schema, &format!("permuted-{depth}"), &CHAIN[..depth]),
            Some(150),
        ));
    }
    rules
}

fn nested_dataset() -> sp_datasets::Dataset {
    NetflowConfig {
        num_hosts: 120,
        num_edges: 4_000,
        ..NetflowConfig::tiny()
    }
    .generate()
}

#[test]
fn permuted_full_depth_subscribers_match_independent_processors() {
    let dataset = nested_dataset();
    let schema = dataset.schema.clone();
    let estimator = dataset.estimator_from_prefix(dataset.len() / 4);
    let rules = nested_permuted_pack(&schema);
    let configure = |p: StreamProcessor| p.with_estimator(estimator.clone()).with_statistics(false);

    let expected = independent_run(&schema, &rules, dataset.events(), &estimator);
    for slot in 0..rules.len() {
        assert!(
            expected.iter().any(|(s, _)| *s == slot),
            "rule {slot} never matched: the stream does not exercise its delivery"
        );
    }
    // The two windows must actually disagree on each table.
    for pair in 0..3 {
        let count = |slot| expected.iter().filter(|(s, _)| *s == slot).count();
        assert!(count(2 * pair) > count(2 * pair + 1));
    }

    let (trie, proc, ids) = shared_run(&schema, &rules, dataset.events(), configure);
    assert_eq!(trie, expected, "trie delivery diverged from the oracle");
    let stats = proc.shared_join_stats();
    assert_eq!((stats.tables, stats.subscriptions), (3, 6));
    assert_eq!(stats.max_depth, 4, "chains must nest three levels deep");
    assert!(stats.parent_feeds > 0, "no parent row reached a trie child");
    for &id in &ids {
        let engine = proc.engine_for(id).unwrap();
        assert_eq!(
            proc.shared_joins().subscription_depth(id),
            Some(engine.tree().unwrap().num_leaves()),
            "every rule subscribes at full depth"
        );
        assert_eq!(
            engine.stored_matches(),
            0,
            "a full-depth subscriber's engine stores nothing"
        );
    }

    let runs = on_every_executor!(&schema, |_, p| {
        executor_run(p, &rules, dataset.events(), &estimator)
    });
    for (label, got) in runs {
        assert_eq!(got, expected, "multiset diverged at {label}");
    }
}

#[test]
fn late_permuted_subscriber_is_boundary_filtered_on_the_row() {
    let dataset = nested_dataset();
    let schema = dataset.schema.clone();
    let estimator = dataset.estimator_from_prefix(dataset.len() / 4);
    let events = dataset.events();
    let half = events.len() / 2;
    let chain = ["ICMP", "UDP", "TCP"];
    let late_rule = (permuted_chain(&schema, "late", &chain), Some(300));
    let early_rules = [
        (soc_chain_rule(&schema, "early-a", &chain), Some(300)),
        (permuted_chain(&schema, "early-b", &chain), None),
    ];
    let mut proc = StreamProcessor::new(schema.clone())
        .with_estimator(estimator.clone())
        .with_statistics(false);
    let mut ids: Vec<QueryId> = early_rules
        .iter()
        .map(|(q, w)| proc.register(q.clone(), Strategy::Single, *w).unwrap())
        .collect();
    let mut got = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        if i == half {
            let (q, w) = &late_rule;
            ids.push(proc.register(q.clone(), Strategy::Single, *w).unwrap());
            assert_eq!(
                proc.shared_join_stats().tables,
                1,
                "the late rule joins the live table"
            );
        }
        for (q, m) in proc.process(ev) {
            got.push((
                ids.iter().position(|&x| x == q).unwrap(),
                full_fingerprint(&m),
            ));
        }
    }
    got.sort();

    // Oracle: each rule's engine alone, from the same stream position.
    let mut expected = Vec::new();
    let all_rules = early_rules.iter().chain(std::iter::once(&late_rule));
    for (slot, (q, w)) in all_rules.enumerate() {
        let engine =
            ContinuousQueryEngine::new(q.clone(), Strategy::Single, &estimator, *w).unwrap();
        let register_at = if slot == 2 { half } else { 0 };
        run_alone(&schema, engine, events, register_at, |m| {
            expected.push((slot, full_fingerprint(&m)));
        });
    }
    expected.sort();
    assert_eq!(got, expected);
    let late = |set: &[(usize, String)]| set.iter().filter(|(s, _)| *s == 2).count();
    assert!(late(&got) > 0, "the late subscriber was never delivered to");
    assert!(
        late(&got) < got.iter().filter(|(s, _)| *s == 0).count(),
        "the boundary must withhold pre-registration matches"
    );
}

#[test]
fn spilled_wide_chain_is_delivered_from_rows_under_two_windows() {
    let dataset = NetflowConfig::tiny().generate();
    let schema = dataset.schema.clone();
    let estimator = dataset.estimator_from_prefix(dataset.len());
    let wide = sp_datasets::wide_soc_rules(&schema, 1).remove(0);
    let protos: Vec<_> = wide.edges().map(|e| e.edge_type).collect();
    assert_eq!(
        protos.len(),
        9,
        "9 edge + 10 vertex bindings: past the inline cap"
    );
    let ip = schema.vertex_type("ip").unwrap();

    // Forty hand-laid instances of the chain on disjoint host runs, one hop
    // per tick; odd instances arrive last hop first. Every fourth instance
    // is stretched to 10 ticks per hop, which only the wide window admits.
    let mut events = Vec::new();
    let mut tick = 0u64;
    for inst in 0..40u64 {
        let base = 10_000 + 20 * inst;
        let stride = if inst % 4 == 3 { 10 } else { 1 };
        let hops: Vec<usize> = if inst % 2 == 1 {
            (0..9).rev().collect()
        } else {
            (0..9).collect()
        };
        for hop in hops {
            tick += stride;
            events.push(EdgeEvent::homogeneous(
                base + hop as u64,
                base + hop as u64 + 1,
                ip,
                protos[hop],
                Timestamp(tick),
            ));
        }
    }
    let rules = vec![(wide.clone(), Some(1_000)), (wide, Some(50))];
    let configure = |p: StreamProcessor| p.with_estimator(estimator.clone()).with_statistics(false);
    let expected = independent_run(&schema, &rules, &events, &estimator);
    let count = |slot| expected.iter().filter(|(s, _)| *s == slot).count();
    assert_eq!((count(0), count(1)), (40, 30));

    let (got, proc, ids) = shared_run(&schema, &rules, &events, configure);
    assert_eq!(got, expected);
    assert_eq!(proc.shared_join_stats().tables, 1);
    assert_eq!(proc.shared_joins().subscription_depth(ids[0]), Some(9));
}

/// Sorted `(rule slot, full fingerprint)` multiset of `rules` on `p`,
/// fed in two calls, so the second starts with whatever the first left
/// behind. On threads every match crosses a worker channel as a row and is
/// materialized on the facade.
fn executor_run<X: Executor>(
    p: Processor<X>,
    rules: &[Rule],
    events: &[EdgeEvent],
    estimator: &SelectivityEstimator,
) -> Vec<(usize, String)> {
    let mut p = p.with_estimator(estimator.clone()).with_statistics(false);
    let ids: Vec<QueryId> = rules
        .iter()
        .map(|(q, w)| p.register(q.clone(), Strategy::Single, *w).unwrap())
        .collect();
    let mut out = Vec::new();
    let mut sink = FnSink(|q: QueryId, m: SubgraphMatch| {
        out.push((
            ids.iter().position(|&i| i == q).unwrap(),
            full_fingerprint(&m),
        ));
    });
    let (head, tail) = events.split_at(events.len() / 2);
    p.process_all_into(head, &mut sink);
    p.process_all_into(tail, &mut sink);
    out.sort();
    out
}

/// Rows end to end: a partial-depth subscriber gets its prefix as feed rows
/// rebased into its own (permuted) numbering, a chain past the inline cap
/// is stored, fed, shipped and finally materialized at spilled width — and
/// independent processors, the shared sequential pipeline and the runtime
/// at every worker count report the same `(rule, bindings, span)` multiset.
#[test]
fn feed_rows_and_channel_rows_agree_with_independent_processors() {
    // (i) Nested chains: the 4-chain is alone at its depth, so it rides the
    // depth-3 table (a trie child of the depth-2 one) as a partial-depth
    // subscriber, beside the permuted 3-chain's full-depth subscription.
    let dataset = nested_dataset();
    let schema = dataset.schema.clone();
    let estimator = dataset.estimator_from_prefix(dataset.len() / 4);
    const CHAIN: [&str; 4] = ["IPv6", "ICMP", "UDP", "TCP"];
    let rules = vec![
        (
            soc_chain_rule(&schema, "straight-2", &CHAIN[..2]),
            Some(400),
        ),
        (
            permuted_chain(&schema, "permuted-2", &CHAIN[..2]),
            Some(150),
        ),
        (
            permuted_chain(&schema, "permuted-3", &CHAIN[..3]),
            Some(300),
        ),
        (soc_chain_rule(&schema, "straight-4", &CHAIN), Some(400)),
    ];
    let configure = |p: StreamProcessor| p.with_estimator(estimator.clone()).with_statistics(false);
    let expected = independent_run(&schema, &rules, dataset.events(), &estimator);
    for slot in 0..rules.len() {
        assert!(
            expected.iter().any(|(s, _)| *s == slot),
            "rule {slot} never matched"
        );
    }
    let (got, proc, ids) = shared_run(&schema, &rules, dataset.events(), configure);
    assert_eq!(got, expected);
    let depth = |id| proc.shared_joins().subscription_depth(id);
    assert_eq!(
        (depth(ids[0]), depth(ids[1]), depth(ids[2]), depth(ids[3])),
        (Some(2), Some(2), Some(3), Some(3)),
        "three full-depth subscribers and the 4-chain at partial depth"
    );
    let runs = on_every_executor!(&schema, |_, p| {
        executor_run(p, &rules, dataset.events(), &estimator)
    });
    for (label, got) in runs {
        assert_eq!(got, expected, "nested pack diverged at {label}");
    }

    // (ii) Spilled width: two 8-edge chains (9 vertex bindings) share a
    // table at full depth, the 9-edge chain extending them (19 bindings)
    // consumes that table's rows as its feed.
    let dataset = NetflowConfig::tiny().generate();
    let schema = dataset.schema.clone();
    let estimator = dataset.estimator_from_prefix(dataset.len());
    const WIDE: [&str; 9] = [
        "TCP", "ESP", "TCP", "GRE", "TCP", "ESP", "TCP", "GRE", "TCP",
    ];
    let protos: Vec<_> = WIDE.iter().map(|p| schema.edge_type(p).unwrap()).collect();
    let ip = schema.vertex_type("ip").unwrap();
    let mut events = Vec::new();
    let mut tick = 0u64;
    for inst in 0..40u64 {
        let base = 10_000 + 20 * inst;
        let stride = if inst % 4 == 3 { 10 } else { 1 };
        let hops: Vec<usize> = if inst % 2 == 1 {
            (0..9).rev().collect()
        } else {
            (0..9).collect()
        };
        for hop in hops {
            tick += stride;
            events.push(EdgeEvent::homogeneous(
                base + hop as u64,
                base + hop as u64 + 1,
                ip,
                protos[hop],
                Timestamp(tick),
            ));
        }
    }
    let rules = vec![
        (soc_chain_rule(&schema, "wide-8", &WIDE[..8]), Some(1_000)),
        (
            soc_chain_rule(&schema, "wide-8-narrow", &WIDE[..8]),
            Some(50),
        ),
        (soc_chain_rule(&schema, "wide-9", &WIDE), Some(1_000)),
    ];
    let configure = |p: StreamProcessor| p.with_estimator(estimator.clone()).with_statistics(false);
    let expected = independent_run(&schema, &rules, &events, &estimator);
    let count = |slot| expected.iter().filter(|(s, _)| *s == slot).count();
    assert_eq!((count(0), count(1), count(2)), (40, 30, 40));
    let (got, mut proc, ids) = shared_run(&schema, &rules, &events, configure);
    assert_eq!(got, expected);
    let joins = proc.shared_joins();
    assert_eq!(joins.subscription_depth(ids[0]), Some(8));
    let fed = joins
        .subscription_depth(ids[2])
        .expect("the 9-chain shares a prefix with the 8-chains");
    assert!(
        (2..9).contains(&fed),
        "the 9-chain is a partial-depth subscriber, not depth {fed}"
    );
    assert!(proc.profile_for(ids[2]).unwrap().shared_join_emissions > 0);
    let runs = on_every_executor!(&schema, |_, p| {
        executor_run(p, &rules, &events, &estimator)
    });
    for (label, got) in runs {
        assert_eq!(got, expected, "wide pack diverged at {label}");
    }
}

/// The direct path must not move a single counter: the numbers below were
/// read off the parent commit (feed → engine → `complete` → sink) on the
/// same stream.
#[test]
fn direct_delivery_leaves_every_counter_where_the_feed_path_put_it() {
    let dataset = nested_dataset();
    let schema = dataset.schema.clone();
    let estimator = dataset.estimator_from_prefix(dataset.len() / 4);
    let rules = nested_permuted_pack(&schema);
    let (_, mut proc, ids) = shared_run(&schema, &rules, dataset.events(), |p| {
        p.with_estimator(estimator.clone()).with_statistics(false)
    });
    let stats = proc.shared_join_stats();
    let per_query: Vec<(u64, u64, u64, u64)> = ids
        .iter()
        .map(|&id| {
            let p = proc.profile_for(id).unwrap();
            (
                p.edges_processed,
                p.shared_join_emissions,
                p.join_stages_shared,
                p.complete_matches,
            )
        })
        .collect();
    assert_eq!(
        (
            stats.emissions,
            stats.deliveries,
            stats.parent_feeds,
            stats.inserts_run
        ),
        PINNED_STATS
    );
    assert_eq!(per_query, PINNED_PROFILES);
}

/// `(emissions, deliveries, parent_feeds, inserts_run)` at the parent commit.
const PINNED_STATS: (u64, u64, u64, u64) = (4814, 5202, 1030, 4796);

/// Per rule of [`nested_permuted_pack`]: `(edges_processed,
/// shared_join_emissions, join_stages_shared, complete_matches)` at the
/// parent commit.
const PINNED_PROFILES: [(u64, u64, u64, u64); 6] = [
    (481, 206, 481, 206),
    (481, 81, 481, 81),
    (1664, 824, 1664, 824),
    (1664, 137, 1664, 137),
    (3766, 3784, 3766, 3784),
    (3766, 170, 3766, 170),
];
