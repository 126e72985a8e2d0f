//! A SOC-style rule pack with heavy overlap, demonstrating the shared join
//! stage.
//!
//! Run with:
//! ```text
//! cargo run --release --example soc_rulepack
//! ```
//!
//! Twelve netflow detection rules — scan, beacon, exfiltration and tunnel
//! variants — watch one stream. The rules decompose into a small pool of
//! SJ-Tree leaves (a TCP edge appears in most of them, ICMP and ESP in
//! several). Every rule's engine searches its own leaves; rules whose
//! decompositions begin with the same leaf chain share one prefix table.
//! The example prints each rule's profile and the join stage's own
//! counters: prefix work run, prefix work saved, and the fraction of the
//! prefix work it eliminated.

use sp_datasets::{soc_chain_rule, NetflowConfig};
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
        .map(|(name, protos)| soc_chain_rule(schema, name, protos))
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

    println!("=== SOC rule pack: 12 rules over one netflow stream ===\n");
    println!("run: {elapsed:.1?}\n");

    // Per-rule profile: what each rule was dispatched, searched and
    // consumed from a shared prefix table, and what it matched.
    println!(
        "{:<16} {:>10} {:>12} {:>9} {:>9} {:>8}",
        "rule", "dispatched", "iso searches", "skipped", "prefix", "alerts"
    );
    for id in proc.query_ids() {
        let engine = proc.engine_for(id).expect("registered");
        let p = engine.profile();
        println!(
            "{:<16} {:>10} {:>12} {:>9} {:>9} {:>8}",
            engine.query().name(),
            p.edges_processed,
            p.iso_searches,
            p.searches_skipped,
            p.shared_join_emissions,
            p.complete_matches
        );
    }

    // The shared join stage: rules whose decompositions begin with the
    // same canonical leaf chain share one refcounted prefix table — leaf
    // searches AND hash joins for the prefix run once pack-wide.
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
