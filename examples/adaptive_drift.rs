//! Drift-adaptive re-decomposition in action (ROADMAP: "Adaptive
//! re-decomposition").
//!
//! Run with:
//! ```text
//! cargo run --release --example adaptive_drift
//! ```
//!
//! A SOC-style rule pack watches a netflow stream whose protocol mix flips
//! mid-way (the tunnelling protocols flood while TCP dries up). Each rule's
//! SJ-Tree was ordered by the *phase-1* selectivities, so after the flip the
//! engines search their now-common leaf first — until a drift check's
//! re-plan finds a materially better leaf order and the processor swaps
//! each engine's tree without dropping partial state. The example prints every rule's leaf
//! order before and after, the redecomposition counters, and the post-shift
//! engine work compared against an adaptivity-off twin fed the same stream.

use sp_bench::experiments::drift_rule_pack;
use sp_bench::runner::leaf_work;
use sp_datasets::{Dataset, NetflowDriftConfig};
use streampattern::{DriftConfig, QueryId, StatsMode, Strategy, StreamProcessor};

fn main() {
    let edges = 12_000;
    let shift_at = 4_000;
    let dataset = NetflowDriftConfig {
        num_hosts: 12_000,
        num_edges: edges,
        shift_at,
        popularity_exponent: 0.5,
        ..NetflowDriftConfig::default()
    }
    .generate();
    let schema = &dataset.schema;
    // The benchmark's flip-sensitive rule pack: every chain pairs protocols
    // from opposite ends of the phase-1 rank order.
    let pack = drift_rule_pack(schema, 4);

    // Phase-1 statistics, decayed so they keep tracking the stream.
    let estimator =
        Dataset::estimator_from_events(&dataset.events()[..shift_at / 2], StatsMode::Decayed(512));

    let build = |adaptive: bool| -> (StreamProcessor, Vec<QueryId>) {
        let mut proc = StreamProcessor::new(dataset.schema.clone())
            .with_estimator(estimator.clone())
            .with_statistics(true);
        if adaptive {
            proc = proc.with_adaptive(DriftConfig {
                check_interval: 256,
                min_observations: 256,
            });
        }
        let mut ids = Vec::new();
        for q in &pack {
            ids.push(
                proc.register(q.clone(), Strategy::SingleLazy, Some(600))
                    .expect("rule decomposes"),
            );
        }
        (proc, ids)
    };
    let (mut adaptive, ids) = build(true);
    let (mut frozen, _) = build(false);

    let leaf_order = |proc: &StreamProcessor, id: QueryId| -> String {
        let tree = proc.engine_for(id).unwrap().tree().unwrap();
        tree.leaves()
            .iter()
            .map(|&leaf| {
                tree.subgraph(leaf)
                    .primitive(tree.query())
                    .map(|p| p.describe(schema))
                    .unwrap_or_else(|| "?".into())
            })
            .collect::<Vec<_>>()
            .join(" , ")
    };

    println!("phase-1 leaf orders (most selective first):");
    for (&id, q) in ids.iter().zip(&pack) {
        println!("  {:12} {}", q.name(), leaf_order(&adaptive, id));
    }

    let split = dataset
        .events()
        .partition_point(|ev| (ev.timestamp.0 as usize) < shift_at);
    let (pre, post) = dataset.events().split_at(split);
    adaptive.process_all(pre.iter());
    frozen.process_all(pre.iter());
    let (a_at_shift, f_at_shift) = (leaf_work(&mut adaptive), leaf_work(&mut frozen));
    let matches_a = adaptive.process_all(post.iter());
    let matches_f = frozen.process_all(post.iter());
    assert_eq!(
        adaptive.total_matches(),
        frozen.total_matches(),
        "adaptivity must not change the match multiset"
    );
    let _ = (matches_a, matches_f);

    println!("\npost-shift leaf orders after drift-triggered re-decomposition:");
    for (&id, q) in ids.iter().zip(&pack) {
        let p = adaptive.profile_for(id).unwrap();
        println!(
            "  {:12} {}   (redecompositions: {})",
            q.name(),
            leaf_order(&adaptive, id),
            p.redecompositions
        );
    }

    let a = adaptive.profile();
    let (a_end, f_end) = (leaf_work(&mut adaptive), leaf_work(&mut frozen));
    let (a_s, f_s) = (a_end.0 - a_at_shift.0, f_end.0 - f_at_shift.0);
    println!(
        "\npost-shift engine work ({} edges after the flip):",
        post.len()
    );
    println!(
        "  frozen plan : {f_s} leaf searches, {} leaf matches",
        f_end.1 - f_at_shift.1
    );
    println!(
        "  adaptive    : {a_s} leaf searches, {} leaf matches, {} replay searches across {} rebuilds",
        a_end.1 - a_at_shift.1,
        a.replay_searches,
        a.redecompositions
    );
    println!(
        "  eliminated  : {:.1}% of the frozen plan's post-shift leaf searches",
        100.0 * (1.0 - a_s as f64 / f_s.max(1) as f64)
    );
    println!("\nadaptive stats: {:?}", adaptive.adaptive_stats());
    println!(
        "total matches (both processors): {}",
        adaptive.total_matches()
    );
}
