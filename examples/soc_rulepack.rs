//! A SOC-style rule pack with heavy leaf overlap, demonstrating shared-leaf
//! evaluation.
//!
//! Run with:
//! ```text
//! cargo run --release --example soc_rulepack
//! ```
//!
//! Twelve netflow detection rules — scan, beacon, exfiltration and tunnel
//! variants — watch one stream. The rules decompose into a small pool of
//! SJ-Tree leaves (a TCP edge appears in most of them, ICMP and ESP in
//! several), so the shard's `SharedLeafIndex` runs each distinct leaf
//! search **once per edge** and fans the results out; rules whose
//! decompositions begin with the same leaf chain also share one prefix
//! table. The example prints both shared stages' own counters: searches
//! run, searches served from another rule's search, and the fraction of
//! the pack's work they eliminated.

use sp_datasets::NetflowConfig;
use sp_graph::Schema;
use sp_query::QueryGraph;
use streampattern::{Strategy, StreamProcessor};

/// The rule pack: `name: protoA -> protoB [-> protoC]` chains over untyped
/// hosts. Overlap is deliberate — it is what sharing exploits.
fn rule_pack(schema: &Schema) -> Vec<QueryGraph> {
    let rules: [(&str, &[&str]); 12] = [
        ("scan-tcp", &["ICMP", "TCP"]),
        ("exfil-esp", &["TCP", "ESP"]),
        ("scan-udp", &["ICMP", "UDP"]),
        ("exfil-gre", &["TCP", "GRE"]),
        ("tunnel", &["GRE", "ESP"]),
        ("beacon", &["UDP", "UDP"]),
        ("relay", &["TCP", "TCP"]),
        ("probe-chain", &["ICMP", "ICMP"]),
        ("exfil-bounce", &["TCP", "ESP", "TCP"]),
        ("scan-then-flood", &["ICMP", "TCP", "UDP"]),
        ("ah-probe", &["AH", "TCP"]),
        ("v6-relay", &["IPv6", "TCP"]),
    ];
    rules
        .iter()
        .map(|(name, protos)| {
            let mut q = QueryGraph::new(*name);
            let mut prev = q.add_any_vertex();
            for proto in *protos {
                let next = q.add_any_vertex();
                q.add_edge(prev, next, schema.edge_type(proto).expect("protocol"));
                prev = next;
            }
            q
        })
        .collect()
}

fn main() {
    let dataset = NetflowConfig {
        num_hosts: 1_500,
        num_edges: 20_000,
        ..NetflowConfig::default()
    }
    .generate();
    let schema = dataset.schema.clone();

    let mut proc = StreamProcessor::new(schema.clone());
    for rule in rule_pack(&schema) {
        proc.register(rule, Strategy::SingleLazy, Some(500))
            .expect("rule decomposes");
    }
    let t0 = std::time::Instant::now();
    proc.process_all(dataset.events.iter());
    let elapsed = t0.elapsed();

    let stats = proc.shared_leaf_stats();
    println!("=== SOC rule pack: 12 rules over one netflow stream ===\n");
    println!(
        "{} rules decompose into {} leaf subscriptions over only {} distinct leaf shapes",
        proc.num_queries(),
        stats.total_subscriptions,
        stats.distinct_leaves
    );
    println!(
        "run: {elapsed:.1?}; leaf searches run {}, served shared {}, handed back {} \
         ({:.1}% of the pack's leaf-search work eliminated)\n",
        stats.searches_run,
        stats.searches_shared,
        stats.searches_delegated,
        100.0 * stats.elimination_ratio()
    );

    // Per-rule profile: who consumed shared results, who was charged the
    // search time, who matched what.
    println!(
        "{:<16} {:>10} {:>12} {:>9} {:>9} {:>8}",
        "rule", "dispatched", "iso searches", "skipped", "shared", "alerts"
    );
    let mut total_shared = 0;
    for id in proc.query_ids() {
        let engine = proc.engine_for(id).expect("registered");
        let p = engine.profile();
        total_shared += p.leaf_searches_shared;
        println!(
            "{:<16} {:>10} {:>12} {:>9} {:>9} {:>8}",
            engine.query().name(),
            p.edges_processed,
            p.iso_searches,
            p.searches_skipped,
            p.leaf_searches_shared,
            p.complete_matches
        );
    }
    println!(
        "\nper-rule `shared` column sums to {total_shared} = the index's eliminated count {}",
        stats.searches_shared
    );
    assert_eq!(total_shared, stats.searches_shared);

    // The shared JOIN stage on top: rules whose decompositions begin with
    // the same canonical leaf chain share one refcounted prefix table —
    // leaf searches AND hash joins for the prefix run once pack-wide.
    let join = proc.shared_join_stats();
    println!(
        "\nshared join stage: {} prefix tables over {} subscribed rules",
        join.tables, join.subscriptions
    );
    println!(
        "  prefix searches run {} / saved {}, inserts run {} / saved {}, \
         {} prefix-root emissions ({:.1}% of prefix work eliminated)",
        join.searches_run,
        join.searches_saved,
        join.inserts_run,
        join.inserts_saved,
        join.emissions,
        100.0 * join.elimination_ratio()
    );
    println!("alerts: {}", proc.total_matches());
}
