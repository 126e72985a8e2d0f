//! Layer-isolation replays: the same stream through ONE layer's public
//! functions, with nothing else on the path.
//!
//! Each replay reproduces what the pipeline asks of the layer — same events,
//! same order, same purge cadence (every 4096 edges) — but calls only that
//! layer, so its cost is a number of its own rather than a share of
//! something: `sp-graph` ingest/expire, `sp-selectivity` `observe_edge`,
//! `sp-iso` anchored leaf search, `sp-sjtree` `MatchStore` insert/purge.
//! Searches here are *eager* (no lazy gate): the replays price a call, the
//! traced pass says how many calls the pipeline makes.

use crate::workloads::{Rule, Workload};
use sp_graph::{DynamicGraph, EdgeData, EdgeEvent, EdgeId, EdgeType, VertexId};
use sp_iso::{find_matches_containing_edge_into, SearchScratch, SubgraphMatch};
use sp_query::{canonicalize_subgraph, QueryGraph, QuerySubgraph};
use sp_selectivity::SelectivityEstimator;
use sp_sjtree::{decompose, MatchStore, SjTree};
use std::collections::{HashMap, HashSet};
use std::time::Instant;
use streampattern::{choose_strategy, StrategySpec, RELATIVE_SELECTIVITY_THRESHOLD};

/// The processor's default purge cadence, mirrored by every replay.
const PURGE_INTERVAL: usize = 4_096;

/// Per-layer costs measured in isolation.
#[derive(Debug, Default, Clone)]
pub struct Isolation {
    /// `ensure_vertex` ×2 + `add_edge`, nanoseconds per event.
    pub graph_ingest_ns_per_edge: f64,
    /// `expire`, nanoseconds per event (amortized over the cadence).
    pub graph_expire_ns_per_edge: f64,
    /// Most edges live in the window graph at once.
    pub live_edges_peak: usize,
    /// Most vertices live at once.
    pub live_vertices_peak: usize,
    /// `observe_edge`, nanoseconds per event.
    pub observe_ns_per_edge: f64,
    /// Distinct leaf primitives of the pack.
    pub distinct_leaves: usize,
    /// Anchored searches run (one per dispatched leaf per edge).
    pub iso_calls: u64,
    /// Leaf matches they found.
    pub iso_matches: u64,
    /// Nanoseconds per anchored search.
    pub iso_search_ns_per_call: f64,
    /// Name of the 2-leaf tree the store replay used.
    pub store_tree: String,
    /// Leaf rows inserted into the store.
    pub store_rows: u64,
    /// `MatchStore::insert` (with the joins it triggers), ns per row.
    pub insert_ns_per_row: f64,
    /// `MatchStore::purge`, milliseconds per pass.
    pub purge_ms_per_pass: f64,
    /// Wall seconds of all replays together.
    pub replay_s: f64,
}

/// The SJ-Tree a rule decomposes to under the workload's set-up statistics
/// (what registration at stream start would build).
pub fn plan(rule: &Rule, estimator: &SelectivityEstimator) -> Option<SjTree> {
    let strategy = match rule.spec {
        StrategySpec::Fixed(s) => s,
        StrategySpec::Auto => {
            choose_strategy(&rule.query, estimator, RELATIVE_SELECTIVITY_THRESHOLD)
                .ok()?
                .strategy
        }
    };
    decompose(&rule.query, strategy.policy()?, estimator).ok()
}

/// Ingests one event the way `StreamProcessor::process_into` does and
/// returns the stored edge.
#[inline]
fn ingest(graph: &mut DynamicGraph, ev: &EdgeEvent) -> EdgeData {
    let src = graph
        .ensure_vertex(VertexId(ev.src), ev.src_type)
        .unwrap_or(VertexId(ev.src));
    let dst = graph
        .ensure_vertex(VertexId(ev.dst), ev.dst_type)
        .unwrap_or(VertexId(ev.dst));
    let id = graph.add_edge(src, dst, ev.edge_type, ev.timestamp);
    *graph.edge(id).expect("edge was just inserted")
}

struct Leaf {
    query: QueryGraph,
    subgraph: QuerySubgraph,
}

/// Runs every replay over the workload's whole stream. `productive` ranks
/// the resident rules (index → complete matches in the traced pass) so the
/// store replay can use the busiest 2-leaf tree.
pub fn replay(w: &Workload, productive: &[u64]) -> Isolation {
    let started = Instant::now();
    let events = &w.dataset.events;
    let n = events.len() as f64;
    let rules: Vec<&Rule> = w
        .resident
        .iter()
        .chain(w.churn.iter().flat_map(|c| c.rotation.iter()))
        .collect();
    let retention = rules.iter().filter_map(|r| r.window).max();
    let new_graph = || {
        let mut g = DynamicGraph::new(w.dataset.schema.clone());
        g.set_window(retention);
        g
    };
    let mut out = Isolation::default();

    // sp-graph: ingest and expiry, timed per purge-cadence chunk.
    {
        let mut graph = new_graph();
        let (mut ingest_ns, mut expire_ns) = (0u64, 0u64);
        for chunk in events.chunks(PURGE_INTERVAL) {
            let t = Instant::now();
            for ev in chunk {
                std::hint::black_box(ingest(&mut graph, ev));
            }
            ingest_ns += t.elapsed().as_nanos() as u64;
            out.live_edges_peak = out.live_edges_peak.max(graph.num_edges());
            out.live_vertices_peak = out.live_vertices_peak.max(graph.num_vertices());
            let t = Instant::now();
            std::hint::black_box(graph.expire());
            expire_ns += t.elapsed().as_nanos() as u64;
        }
        out.graph_ingest_ns_per_edge = ingest_ns as f64 / n;
        out.graph_expire_ns_per_edge = expire_ns as f64 / n;
    }

    // sp-selectivity: the statistics write the ingest path makes per edge.
    {
        let mut estimator = SelectivityEstimator::new().with_mode(w.estimator.mode());
        let t = Instant::now();
        for (i, ev) in events.iter().enumerate() {
            estimator.observe_edge(&EdgeData {
                id: EdgeId(i as u64),
                src: VertexId(ev.src),
                dst: VertexId(ev.dst),
                edge_type: ev.edge_type,
                timestamp: ev.timestamp,
            });
        }
        out.observe_ns_per_edge = t.elapsed().as_nanos() as f64 / n;
        std::hint::black_box(estimator.num_edges_observed());
    }

    // sp-iso: one anchored search per distinct leaf primitive per edge whose
    // type the leaf contains (what the dispatch index would let through).
    let trees: Vec<Option<SjTree>> = rules.iter().map(|r| plan(r, &w.estimator)).collect();
    {
        let mut seen = HashSet::new();
        let mut leaves = Vec::new();
        let mut by_type: HashMap<EdgeType, Vec<usize>> = HashMap::new();
        for tree in trees.iter().flatten() {
            for &leaf in tree.leaves() {
                let subgraph = tree.subgraph(leaf);
                let Some((signature, _)) = canonicalize_subgraph(tree.query(), subgraph) else {
                    continue;
                };
                if !seen.insert(signature) {
                    continue;
                }
                let types: HashSet<EdgeType> = subgraph
                    .edges()
                    .map(|e| tree.query().edge(e).edge_type)
                    .collect();
                for t in types {
                    by_type.entry(t).or_default().push(leaves.len());
                }
                leaves.push(Leaf {
                    query: tree.query().clone(),
                    subgraph: subgraph.clone(),
                });
            }
        }
        out.distinct_leaves = leaves.len();
        let mut graph = new_graph();
        let mut scratch = SearchScratch::new();
        let mut found: Vec<SubgraphMatch> = Vec::new();
        let mut search_ns = 0u64;
        for (i, ev) in events.iter().enumerate() {
            let edge = ingest(&mut graph, ev);
            if let Some(dispatched) = by_type.get(&edge.edge_type) {
                let t = Instant::now();
                for &l in dispatched {
                    let leaf = &leaves[l];
                    found.clear();
                    find_matches_containing_edge_into(
                        &graph,
                        &leaf.query,
                        &leaf.subgraph,
                        &edge,
                        &mut scratch,
                        &mut found,
                    );
                    out.iso_matches += found.len() as u64;
                }
                search_ns += t.elapsed().as_nanos() as u64;
                out.iso_calls += dispatched.len() as u64;
            }
            if (i + 1) % PURGE_INTERVAL == 0 {
                graph.expire();
            }
        }
        out.iso_search_ns_per_call = search_ns as f64 / out.iso_calls.max(1) as f64;
    }

    // sp-sjtree: the pack's most productive 2-leaf tree, fed the leaf
    // matches of the stream (searches untimed, inserts and purges timed).
    let busiest = trees
        .iter()
        .enumerate()
        .take(w.resident.len())
        .filter_map(|(i, t)| Some((i, t.as_ref()?)))
        .filter(|(_, t)| t.num_leaves() == 2)
        .max_by_key(|(i, _)| (productive.get(*i).copied().unwrap_or(0), usize::MAX - i));
    if let Some((i, tree)) = busiest {
        out.store_tree = rules[i].query.name().to_string();
        let window = rules[i].window;
        let leaf_nodes: Vec<_> = tree.leaves().to_vec();
        let mut store = MatchStore::new_interned(tree);
        let mut graph = new_graph();
        let mut scratch = SearchScratch::new();
        let mut found: Vec<SubgraphMatch> = Vec::new();
        let mut complete: Vec<SubgraphMatch> = Vec::new();
        let (mut insert_ns, mut purge_ns, mut purges) = (0u64, 0u64, 0u64);
        for (i, ev) in events.iter().enumerate() {
            let edge = ingest(&mut graph, ev);
            for &node in &leaf_nodes {
                found.clear();
                find_matches_containing_edge_into(
                    &graph,
                    tree.query(),
                    tree.subgraph(node),
                    &edge,
                    &mut scratch,
                    &mut found,
                );
                if found.is_empty() {
                    continue;
                }
                out.store_rows += found.len() as u64;
                let t = Instant::now();
                for m in found.drain(..) {
                    store.insert(tree, node, m, window, &mut complete);
                }
                insert_ns += t.elapsed().as_nanos() as u64;
                complete.clear();
            }
            if (i + 1) % PURGE_INTERVAL == 0 {
                graph.expire();
                let t = Instant::now();
                std::hint::black_box(store.purge(&graph, graph.latest_timestamp(), window));
                purge_ns += t.elapsed().as_nanos() as u64;
                purges += 1;
            }
        }
        out.insert_ns_per_row = insert_ns as f64 / out.store_rows.max(1) as f64;
        out.purge_ms_per_pass = purge_ns as f64 / 1e6 / purges.max(1) as f64;
    }

    out.replay_s = started.elapsed().as_secs_f64();
    out
}
