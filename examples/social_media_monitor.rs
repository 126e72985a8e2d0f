//! Continuous social-media monitoring on an LSBench-like stream.
//!
//! Run with:
//! ```text
//! cargo run --release --example social_media_monitor
//! ```
//!
//! The query is the paper's motivating social example ("tell me when two
//! friends interact with the same post"): a `knows` relationship between two
//! persons, one of whom creates a post that the other one likes:
//!
//! ```text
//!   author -knows-> friend
//!   author -createsPost-> post
//!   friend -likesPost-> post
//! ```
//!
//! Note the cycle (author, friend, post) — DAG-based decompositions of
//! related work cannot express this query exactly, but the SJ-Tree engine
//! handles it like any other.

use sp_datasets::LsbenchConfig;
use sp_query::QueryGraph;
use streampattern::{choose_strategy, ContinuousQueryEngine, PipelineMetrics, StreamProcessor};

fn main() {
    let dataset = LsbenchConfig {
        num_persons: 2_000,
        num_edges: 60_000,
        ..LsbenchConfig::default()
    }
    .generate();
    let schema = dataset.schema.clone();
    let person = schema.vertex_type("person").unwrap();
    let post = schema.vertex_type("post").unwrap();
    let knows = schema.edge_type("knows").unwrap();
    let creates = schema.edge_type("createsPost").unwrap();
    let likes = schema.edge_type("likesPost").unwrap();

    let mut query = QueryGraph::new("friend-likes-my-post");
    let author = query.add_vertex(person);
    let friend = query.add_vertex(person);
    let the_post = query.add_vertex(post);
    query.add_edge(author, friend, knows);
    query.add_edge(author, the_post, creates);
    query.add_edge(friend, the_post, likes);
    println!("{}", query.describe(&schema));

    // Statistics from the static half of the stream.
    let estimator = dataset.estimator_from_prefix(dataset.len() / 2);
    let choice = choose_strategy(
        &query,
        &estimator,
        streampattern::RELATIVE_SELECTIVITY_THRESHOLD,
    )
    .expect("query decomposes");
    println!(
        "expected selectivity: single={:.3e} path={:.3e} -> strategy {}",
        choice.expected_single, choice.expected_path, choice.strategy
    );

    let engine = ContinuousQueryEngine::new(query, choice.strategy, &estimator, Some(100_000))
        .expect("engine builds");
    println!(
        "decomposition:\n{}",
        engine.tree().expect("SJ-Tree strategy").describe(&schema)
    );
    // Metrics switch on the engine's iso / update timers behind the
    // "time in subgraph isomorphism" line below.
    let mut proc = StreamProcessor::with_engine(schema.clone(), engine)
        .with_statistics(false)
        .with_metrics(PipelineMetrics::detached());

    let start = std::time::Instant::now();
    let mut alerts = 0u64;
    for ev in dataset.events() {
        for (_, m) in proc.process(ev) {
            alerts += 1;
            if alerts <= 10 {
                let who: Vec<String> = m
                    .vertex_pairs()
                    .map(|(q, d)| format!("{q}={}", d.0 % 100_000_000))
                    .collect();
                println!("alert #{alerts}: {}", who.join("  "));
            }
        }
    }
    let elapsed = start.elapsed();

    let profile = proc.profile();
    println!("\n=== summary ===");
    println!("stream edges      : {}", profile.edges_processed);
    println!("alerts            : {alerts}");
    println!("elapsed           : {elapsed:.1?}");
    println!("iso searches      : {}", profile.iso_searches);
    println!("searches skipped  : {}", profile.searches_skipped);
    println!("retroactive probes: {}", profile.retroactive_searches);
    println!(
        "time in subgraph isomorphism: {:.1}%",
        100.0 * profile.iso_time_fraction()
    );
}
