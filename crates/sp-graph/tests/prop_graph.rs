//! Randomized property tests for the dynamic graph store.
//!
//! The workspace builds offline, so instead of `proptest` these tests draw a
//! few hundred random stream specifications from a seeded PRNG and check the
//! same invariants on each. Failures print the offending seed so a case can
//! be replayed by hand.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sp_graph::{
    DynamicGraph, EdgeData, EdgeEvent, EdgeId, EdgeType, GraphError, Schema, Timestamp,
    TypeSignature, VertexId, VertexType,
};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

/// A compact description of a random edge stream.
#[derive(Debug, Clone)]
struct StreamSpec {
    edges: Vec<(u64, u64, u32, u64)>, // (src, dst, edge_type, timestamp)
    window: Option<u64>,
}

fn random_spec(rng: &mut SmallRng) -> StreamSpec {
    let len = rng.gen_range(1usize..200);
    let edges = (0..len)
        .map(|_| {
            (
                rng.gen_range(0u64..20),
                rng.gen_range(0u64..20),
                rng.gen_range(0u32..5),
                rng.gen_range(0u64..1000),
            )
        })
        .collect();
    let window = if rng.gen_bool(0.5) {
        Some(rng.gen_range(1u64..500))
    } else {
        None
    };
    StreamSpec { edges, window }
}

fn build_graph(spec: &StreamSpec) -> DynamicGraph {
    let mut schema = Schema::new();
    let vt = schema.intern_vertex_type("v");
    for t in 0..5 {
        schema.intern_edge_type(&format!("t{t}"));
    }
    let mut g = match spec.window {
        Some(w) => DynamicGraph::with_window(schema, w),
        None => DynamicGraph::new(schema),
    };
    for &(src, dst, et, ts) in &spec.edges {
        let s = g.ensure_vertex(VertexId(src), vt).unwrap();
        let d = g.ensure_vertex(VertexId(dst), vt).unwrap();
        g.add_edge(s, d, EdgeType(et), Timestamp(ts));
        g.expire();
    }
    g
}

/// Runs `check` over a deterministic batch of random stream specs.
fn for_random_specs(cases: u64, check: impl Fn(&StreamSpec, &DynamicGraph)) {
    for seed in 0..cases {
        let mut rng = SmallRng::seed_from_u64(0xC0FFEE ^ seed);
        let spec = random_spec(&mut rng);
        let g = build_graph(&spec);
        check(&spec, &g);
    }
}

/// The sum of out-degrees and the sum of in-degrees both equal the number of
/// live edges, and every adjacency entry refers to a live edge.
#[test]
fn adjacency_is_consistent() {
    for_random_specs(100, |spec, g| {
        let out_sum: usize = g.vertices().map(|(v, _)| g.out_degree(v)).sum();
        let in_sum: usize = g.vertices().map(|(v, _)| g.in_degree(v)).sum();
        assert_eq!(out_sum, g.num_edges(), "spec: {spec:?}");
        assert_eq!(in_sum, g.num_edges(), "spec: {spec:?}");
        for (v, _) in g.vertices() {
            for inc in g.incident_edges(v) {
                let e = g.edge(inc.edge).expect("adjacency points at live edge");
                assert!(e.touches(v), "spec: {spec:?}");
            }
        }
    });
}

/// After expiry, every live edge is within the window of the newest edge.
#[test]
fn window_invariant_holds() {
    for_random_specs(100, |spec, g| {
        if let Some(w) = g.window() {
            let newest = g.latest_timestamp();
            let cutoff = newest.0.saturating_sub(w);
            for e in g.edges() {
                assert!(
                    e.timestamp.0 >= cutoff,
                    "edge at {} violates window starting at {cutoff}; spec: {spec:?}",
                    e.timestamp.0
                );
            }
        }
    });
}

/// How often the window oracle's streams reached the cases it exists for.
#[derive(Debug, Default)]
struct Coverage {
    late_edges: usize,
    equal_timestamps: usize,
    removed_in_order: usize,
    removed_late: usize,
    shrunk_after_spill: usize,
    expired: usize,
}

/// Per-vertex reference adjacency: the `Vec`s a push / `swap_remove` list
/// holds, and the longest each has been since the vertex appeared.
#[derive(Debug, Default)]
struct RefVertex {
    out: Vec<EdgeId>,
    inc: Vec<EdgeId>,
    longest: usize,
}

/// The reference model of one windowed graph: every edge ever added, the
/// explicitly removed ones, those gone either way, per-vertex adjacency and
/// the late edges (behind the newest timestamp when they were added).
#[derive(Debug, Default)]
struct WindowOracle {
    added: Vec<(EdgeId, u64, u64, u64)>, // (id, src, dst, ts)
    removed: HashSet<EdgeId>,
    gone: HashSet<EdgeId>,
    latest: u64,
    vertices: HashMap<u64, RefVertex>,
    late: HashSet<EdgeId>,
}

impl WindowOracle {
    fn add(&mut self, id: EdgeId, src: u64, dst: u64, ts: u64, cov: &mut Coverage) {
        if self.added.last().is_some_and(|e| e.3 == ts) {
            cov.equal_timestamps += 1;
        }
        if ts < self.latest {
            cov.late_edges += 1;
            self.late.insert(id);
        }
        self.added.push((id, src, dst, ts));
        self.latest = self.latest.max(ts);
        let out = self.vertices.entry(src).or_default();
        out.out.push(id);
        out.longest = out.longest.max(out.out.len());
        let inc = self.vertices.entry(dst).or_default();
        inc.inc.push(id);
        inc.longest = inc.longest.max(inc.inc.len());
    }

    /// Detaches one edge the way the graph does: `swap_remove` from both
    /// endpoint lists, dropping an endpoint left with no edge.
    fn detach(&mut self, id: EdgeId, src: u64, dst: u64) {
        for (v, incoming) in [(src, false), (dst, true)] {
            let rv = self.vertices.get_mut(&v).expect("endpoint is live");
            let list = if incoming { &mut rv.inc } else { &mut rv.out };
            let pos = list.iter().position(|&e| e == id).expect("edge listed");
            list.swap_remove(pos);
            if rv.out.is_empty() && rv.inc.is_empty() {
                self.vertices.remove(&v);
            }
        }
    }
}

/// The converse of [`window_invariant_holds`], on streams with late and
/// equal timestamps, explicit removals of late and in-order edges,
/// hub vertices whose adjacency spills past the inline slots and shrinks
/// back, and `expire` at a random cadence: after every `expire`, the live
/// edge set is *exactly* `{e : ts >= latest - w}` of the edges added and
/// not removed, the live vertices are exactly their endpoints, and every
/// adjacency list holds what a `Vec` with push / `swap_remove` would, with
/// expired edges detached in `(timestamp, id)` order.
#[test]
fn expire_leaves_exactly_the_window_and_keeps_adjacency_order() {
    let mut cov = Coverage::default();
    for seed in 0..150u64 {
        let mut rng = SmallRng::seed_from_u64(0x0A11CE ^ seed);
        let w = rng.gen_range(1u64..120);
        let cadence = rng.gen_range(1u32..40);
        let mut schema = Schema::new();
        let vt = schema.intern_vertex_type("v");
        let et = schema.intern_edge_type("t");
        let mut g = DynamicGraph::with_window(schema, w);
        let mut oracle = WindowOracle::default();
        let mut clock = 0u64;
        for _ in 0..rng.gen_range(50usize..400) {
            if rng.gen_bool(0.08) && !oracle.added.is_empty() {
                let &(id, src, dst, _) = &oracle.added[rng.gen_range(0..oracle.added.len())];
                if oracle.gone.insert(id) {
                    if oracle.late.contains(&id) {
                        cov.removed_late += 1;
                    } else {
                        cov.removed_in_order += 1;
                    }
                    assert_eq!(g.remove_edge(id).unwrap().id, id, "seed {seed}");
                    oracle.removed.insert(id);
                    oracle.detach(id, src, dst);
                }
            } else {
                // Vertex 0 is a hub; the rest churn. A zero step repeats a
                // timestamp; a late edge lands up to two windows back.
                let pick = |rng: &mut SmallRng| {
                    if rng.gen_bool(0.3) {
                        0
                    } else {
                        rng.gen_range(1u64..12)
                    }
                };
                let (src, dst) = (pick(&mut rng), pick(&mut rng));
                clock += rng.gen_range(0u64..3);
                let ts = if rng.gen_bool(0.2) {
                    clock.saturating_sub(rng.gen_range(1..=2 * w))
                } else {
                    clock
                };
                g.ensure_vertex(VertexId(src), vt).unwrap();
                g.ensure_vertex(VertexId(dst), vt).unwrap();
                let id = g.add_edge(VertexId(src), VertexId(dst), et, Timestamp(ts));
                oracle.add(id, src, dst, ts, &mut cov);
            }
            if rng.gen_range(0..cadence) != 0 {
                continue;
            }

            let cutoff = oracle.latest.saturating_sub(w);
            let mut expiring: Vec<_> = oracle
                .added
                .iter()
                .filter(|e| !oracle.gone.contains(&e.0) && e.3 < cutoff)
                .map(|&(id, src, dst, ts)| (ts, id, src, dst))
                .collect();
            expiring.sort();
            assert_eq!(g.expire(), expiring.len(), "seed {seed}");
            cov.expired += expiring.len();
            for &(_, id, src, dst) in &expiring {
                oracle.gone.insert(id);
                oracle.detach(id, src, dst);
            }

            let mut expected: Vec<EdgeId> = oracle
                .added
                .iter()
                .filter(|e| !oracle.removed.contains(&e.0) && e.3 >= cutoff)
                .map(|e| e.0)
                .collect();
            let mut live: Vec<EdgeId> = g.edges().map(|e| e.id).collect();
            expected.sort();
            live.sort();
            assert_eq!(live, expected, "seed {seed}: live edges != window");
            let mut vertices: Vec<u64> = g.vertices().map(|(v, _)| v.0).collect();
            let mut endpoints: Vec<u64> = oracle.vertices.keys().copied().collect();
            vertices.sort();
            endpoints.sort();
            assert_eq!(vertices, endpoints, "seed {seed}: live vertices");
            for (&v, rv) in &oracle.vertices {
                let data = g.vertex(VertexId(v)).expect("live vertex");
                assert_eq!(data.out_edges(), rv.out.as_slice(), "seed {seed}: out({v})");
                assert_eq!(data.in_edges(), rv.inc.as_slice(), "seed {seed}: in({v})");
                if rv.longest > 2 && rv.out.len().max(rv.inc.len()) <= 2 {
                    cov.shrunk_after_spill += 1;
                }
            }
        }
    }
    assert!(
        cov.late_edges > 0
            && cov.equal_timestamps > 0
            && cov.removed_in_order > 0
            && cov.removed_late > 0
            && cov.shrunk_after_spill > 0
            && cov.expired > 0,
        "the streams missed a case: {cov:?}"
    );
}

/// A plain model of the windowed graph: the live edges in a `BTreeMap` by
/// id, each vertex's recorded type, and expiry by scanning every live edge
/// for the ones older than the cutoff, in `(timestamp, id)` order.
#[derive(Debug, Default)]
struct GraphModel {
    edges: BTreeMap<EdgeId, EdgeData>,
    types: HashMap<VertexId, VertexType>,
    issued: u64,
    latest: u64,
}

impl GraphModel {
    /// Records the type a vertex is created with; whether `vertex_type`
    /// conflicts with the type it already has.
    fn ensure(&mut self, v: VertexId, vertex_type: VertexType) -> bool {
        let recorded = *self.types.entry(v).or_insert(vertex_type);
        recorded != vertex_type && !vertex_type.is_any()
    }

    fn add(&mut self, src: VertexId, dst: VertexId, ts: u64) -> EdgeData {
        let edge = EdgeData {
            id: EdgeId(self.issued),
            src,
            dst,
            edge_type: EdgeType((self.issued % 3) as u32),
            timestamp: Timestamp(ts),
        };
        self.issued += 1;
        self.latest = self.latest.max(ts);
        self.edges.insert(edge.id, edge);
        edge
    }

    fn remove(&mut self, id: EdgeId) -> Option<EdgeData> {
        let edge = self.edges.remove(&id)?;
        for v in [edge.src, edge.dst] {
            if !self.edges.values().any(|e| e.touches(v)) {
                self.types.remove(&v);
            }
        }
        Some(edge)
    }

    fn expire(&mut self, window: Option<u64>) -> usize {
        let Some(w) = window else { return 0 };
        let cutoff = self.latest.saturating_sub(w);
        let mut old: Vec<(Timestamp, EdgeId)> = self
            .edges
            .values()
            .filter(|e| e.timestamp.0 < cutoff)
            .map(|e| (e.timestamp, e.id))
            .collect();
        old.sort();
        for &(_, id) in &old {
            self.remove(id);
        }
        old.len()
    }

    /// Everything the graph answers about its edges and vertices, for every
    /// edge id ever issued and every live vertex.
    fn check(&self, g: &DynamicGraph, at: &str) {
        assert_eq!(g.num_edges(), self.edges.len(), "{at}: num_edges");
        assert_eq!(g.num_vertices(), self.types.len(), "{at}: num_vertices");
        assert_eq!(g.total_edges_seen(), self.issued, "{at}");
        for id in (0..self.issued).map(EdgeId) {
            assert_eq!(g.edge(id), self.edges.get(&id), "{at}: edge {id:?}");
            assert_eq!(g.contains_edge(id), self.edges.contains_key(&id), "{at}");
        }
        let mut adjacency: HashMap<VertexId, [BTreeSet<EdgeId>; 2]> = HashMap::new();
        for e in self.edges.values() {
            adjacency.entry(e.src).or_default()[0].insert(e.id);
            adjacency.entry(e.dst).or_default()[1].insert(e.id);
        }
        for (&v, &vertex_type) in &self.types {
            assert_eq!(g.vertex_type(v), Some(vertex_type), "{at}: type of {v:?}");
            let [out, inc] = adjacency.remove(&v).unwrap_or_default();
            let out_edges: BTreeSet<EdgeId> = g.out_edges(v).map(|e| e.id).collect();
            let in_edges: BTreeSet<EdgeId> = g.in_edges(v).map(|e| e.id).collect();
            assert_eq!(
                (out_edges, in_edges),
                (out, inc),
                "{at}: adjacency of {v:?}"
            );
        }
    }
}

/// `DynamicGraph` against [`GraphModel`], operation by operation: ingest
/// (with vertex type conflicts and wildcards), `ensure_vertex` +
/// `add_edge`, explicit `remove_edge` of any id ever issued, and `expire`,
/// over streams with late and equal timestamps, self-loops and multi-edges,
/// under a small window, a large one and none.
#[test]
fn graph_agrees_with_a_plain_model() {
    let (mut late, mut equal, mut loops, mut removed, mut expired, mut conflicts) =
        (0, 0, 0, 0, 0, 0);
    for seed in 0..60u64 {
        let mut rng = SmallRng::seed_from_u64(0xD1FF ^ seed);
        let window = match seed % 3 {
            0 => Some(rng.gen_range(1u64..12)),
            1 => Some(rng.gen_range(200u64..1_000)),
            _ => None,
        };
        let mut g = DynamicGraph::new(Schema::new());
        g.set_window(window);
        let mut model = GraphModel::default();
        let mut clock = 0u64;
        // Vertex `v`'s type is `v % 2`, but an event names the other type
        // or the wildcard now and then.
        let type_of = |rng: &mut SmallRng, v: u64| match rng.gen_range(0u32..20) {
            0 => VertexType(1 - (v % 2) as u32),
            1 => VertexType::ANY,
            _ => VertexType((v % 2) as u32),
        };
        for step in 0..rng.gen_range(100usize..300) {
            let at = format!("seed {seed} step {step}");
            match rng.gen_range(0u32..20) {
                0..=1 if model.issued > 0 => {
                    let id = EdgeId(rng.gen_range(0..model.issued));
                    let want = model.remove(id);
                    match g.remove_edge(id) {
                        Ok(edge) => assert_eq!(Some(edge), want, "{at}"),
                        Err(GraphError::UnknownEdge(e)) => {
                            assert_eq!((e, want), (id, None), "{at}")
                        }
                        Err(e) => panic!("{at}: {e}"),
                    }
                    removed += usize::from(want.is_some());
                }
                2..=4 => {
                    let n = model.expire(window);
                    assert_eq!(g.expire(), n, "{at}: expired");
                    expired += n;
                }
                op => {
                    let src = rng.gen_range(0u64..8);
                    let dst = if rng.gen_bool(0.1) {
                        src
                    } else {
                        rng.gen_range(0u64..8)
                    };
                    loops += usize::from(src == dst);
                    let step = rng.gen_range(0u64..3);
                    equal += usize::from(step == 0);
                    clock += step;
                    let ts = if rng.gen_bool(0.15) {
                        late += 1;
                        clock.saturating_sub(rng.gen_range(1u64..=20))
                    } else {
                        clock
                    };
                    let (src_type, dst_type) = (type_of(&mut rng, src), type_of(&mut rng, dst));
                    let (src, dst) = (VertexId(src), VertexId(dst));
                    let want = u64::from(model.ensure(src, src_type))
                        + u64::from(model.ensure(dst, dst_type));
                    conflicts += want;
                    let edge = model.add(src, dst, ts);
                    if op % 4 == 0 {
                        // The public two-step path the benchmark's replay uses.
                        let got = u64::from(g.ensure_vertex(src, src_type).is_err())
                            + u64::from(g.ensure_vertex(dst, dst_type).is_err());
                        assert_eq!(got, want, "{at}: conflicts");
                        let id = g.add_edge(src, dst, edge.edge_type, edge.timestamp);
                        assert_eq!(id, edge.id, "{at}");
                    } else {
                        let event = EdgeEvent {
                            src: src.0,
                            dst: dst.0,
                            src_type,
                            dst_type,
                            edge_type: edge.edge_type,
                            timestamp: edge.timestamp,
                        };
                        assert_eq!(g.ingest(&event), (edge, want), "{at}");
                    }
                }
            }
            model.check(&g, &at);
        }
    }
    assert!(
        late > 0 && equal > 0 && loops > 0 && removed > 0 && expired > 0 && conflicts > 0,
        "the streams missed a case: late {late}, equal {equal}, self-loops {loops}, \
         removed {removed}, expired {expired}, conflicts {conflicts}"
    );
}

/// The sticky type signature: bit `t % 64` of a vertex's out (in) mask is
/// set by exactly the edges of type `t` added out of (into) it since the
/// vertex was last created, so a clear bit proves it has no live edge of
/// that type in that direction — through late edges, explicit removals,
/// expiry, types 64 apart that share a bit, and vertices that die and come
/// back with an empty signature.
#[test]
fn clear_signature_bit_means_no_live_edge_of_that_type() {
    let (mut late, mut removed, mut expired, mut recreated) = (0, 0, 0, 0);
    for seed in 0..100u64 {
        let mut rng = SmallRng::seed_from_u64(0x5161 ^ seed);
        let w = rng.gen_range(1u64..60);
        let mut schema = Schema::new();
        let vt = schema.intern_vertex_type("v");
        let mut g = DynamicGraph::with_window(schema, w);
        // Per live vertex, the (out, in) masks its edges since creation set.
        let mut expected: HashMap<u64, (u64, u64)> = HashMap::new();
        let mut dead: HashSet<u64> = HashSet::new();
        let mut added: Vec<EdgeId> = Vec::new();
        let mut clock = 0u64;
        for _ in 0..rng.gen_range(50usize..300) {
            match rng.gen_range(0u32..10) {
                0 if !added.is_empty() => {
                    removed +=
                        usize::from(g.remove_edge(added[rng.gen_range(0..added.len())]).is_ok());
                }
                1 => expired += g.expire(),
                _ => {
                    let (src, dst) = (rng.gen_range(0u64..10), rng.gen_range(0u64..10));
                    let t = [0u32, 1, 2, 64, 66][rng.gen_range(0usize..5)];
                    clock += rng.gen_range(0u64..3);
                    let ts = if rng.gen_bool(0.2) {
                        late += 1;
                        clock.saturating_sub(rng.gen_range(1..=w))
                    } else {
                        clock
                    };
                    for v in [src, dst] {
                        recreated += usize::from(dead.remove(&v));
                        g.ensure_vertex(VertexId(v), vt).unwrap();
                    }
                    added.push(g.add_edge(
                        VertexId(src),
                        VertexId(dst),
                        EdgeType(t),
                        Timestamp(ts),
                    ));
                    let bit = 1u64 << (t % 64);
                    expected.entry(src).or_default().0 |= bit;
                    expected.entry(dst).or_default().1 |= bit;
                }
            }
            expected.retain(|&v, _| {
                let live = g.contains_vertex(VertexId(v));
                if !live {
                    dead.insert(v);
                }
                live
            });
            for (&v, &(out_types, in_types)) in &expected {
                let sig = g.type_signature(VertexId(v));
                assert_eq!(
                    (sig.out_types, sig.in_types),
                    (out_types, in_types),
                    "seed {seed}: vertex {v}"
                );
            }
            for &v in &dead {
                assert_eq!(g.type_signature(VertexId(v)), TypeSignature::default());
            }
            for e in g.edges() {
                let bit = TypeSignature::bit(e.edge_type);
                assert!(
                    g.type_signature(e.src).out_types & bit != 0
                        && g.type_signature(e.dst).in_types & bit != 0,
                    "seed {seed}: live {e:?} behind a clear bit"
                );
            }
        }
    }
    assert!(
        late > 0 && removed > 0 && expired > 0 && recreated > 0,
        "the streams missed a case: late {late}, removed {removed}, \
         expired {expired}, recreated {recreated}"
    );
}

/// No isolated vertices survive window expiry.
#[test]
fn no_isolated_vertices() {
    for_random_specs(100, |spec, g| {
        for (v, data) in g.vertices() {
            assert!(data.degree() > 0, "vertex {v} is isolated; spec: {spec:?}");
        }
    });
}

/// total_edges_seen is monotone and never smaller than the live count.
#[test]
fn seen_count_dominates_live_count() {
    for_random_specs(100, |spec, g| {
        assert_eq!(g.total_edges_seen(), spec.edges.len() as u64);
        assert!(g.num_edges() as u64 <= g.total_edges_seen());
    });
}

/// Degree stats average equals 2E/V for live graphs.
#[test]
fn degree_stats_matches_handshake_lemma() {
    for_random_specs(100, |spec, g| {
        if g.num_vertices() > 0 {
            let stats = g.degree_stats();
            let expected = 2.0 * g.num_edges() as f64 / g.num_vertices() as f64;
            assert!(
                (stats.average_degree - expected).abs() < 1e-9,
                "spec: {spec:?}"
            );
        }
    });
}

#[test]
fn vertex_type_wildcard_is_default() {
    assert_eq!(VertexType::default(), VertexType::ANY);
}
