//! The *traced* pass: where the per-layer numbers come from.
//!
//! One repetition with `PipelineMetrics` attached through the public
//! `with_metrics` / `enable_metrics`, benchmark-side spans around every
//! public call, the public counter structs read at the end, then the
//! layer-isolation replays. [`UNTRACED_REPS`] untraced repetitions with a
//! paced stretch run first: traced wall ÷ the wall of the one right before it
//! is the price of tracing, and their paced stretches give the detection
//! latencies and the generator's own record, none of which carry a bound. The
//! runtime workload also runs its sequential twin. The traced repetition
//! and the twin feed the paced stretch back to back and measure the closed
//! stretch only. End-to-end metrics never come from here.

use crate::job::{Job, Proc};
use crate::layers;
use crate::passes::{Fold, Verifier};
use crate::report::Metrics;
use crate::trace::Trace;
use crate::workloads::{Engine, Workload};
use serde::Value;
use sp_metrics::MetricsRegistry;
use std::fmt::Write as _;
use std::path::PathBuf;
use streampattern::{AdaptiveStats, PipelineMetrics, ProfileCounters};

/// Untraced repetitions (with the paced stretch) a traced run starts with.
const UNTRACED_REPS: usize = 4;

/// Result of the traced run of one workload.
pub struct Traced {
    /// Every per-layer metric.
    pub metrics: Metrics,
    /// Digests agreed and nothing failed.
    pub correct: bool,
    /// Operations attempted over all passes of this run.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Human-readable account.
    pub detail: String,
}

/// Where traces are written: `benchmark/out/`, next to this package's
/// manifest wherever the checkout lives.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn median_ms(mut ns: Vec<u64>) -> f64 {
    if ns.is_empty() {
        return 0.0;
    }
    ns.sort_unstable();
    ns[ns.len() / 2] as f64 / 1e6
}

fn profile_counters(p: &ProfileCounters) -> Vec<(String, Value)> {
    [
        ("edges_processed", p.edges_processed),
        ("vertex_type_conflicts", p.vertex_type_conflicts),
        ("iso_searches", p.iso_searches),
        ("leaf_matches", p.leaf_matches),
        ("retroactive_searches", p.retroactive_searches),
        ("searches_skipped", p.searches_skipped),
        ("leaf_searches_shared", p.leaf_searches_shared),
        ("shared_join_emissions", p.shared_join_emissions),
        ("join_stages_shared", p.join_stages_shared),
        ("complete_matches", p.complete_matches),
        ("redecompositions", p.redecompositions),
        ("replay_searches", p.replay_searches),
        ("replay_time_ns", p.replay_time.as_nanos() as u64),
        ("partial_matches_purged", p.partial_matches_purged),
        ("iso_time_ns", p.iso_time.as_nanos() as u64),
        ("update_time_ns", p.update_time.as_nanos() as u64),
        ("peak_partial_matches", p.peak_partial_matches as u64),
    ]
    .into_iter()
    .map(|(k, v)| (format!("profile.{k}"), Value::UInt(v)))
    .collect()
}

/// Runs the traced pass (and its companions) for one workload and writes
/// `out/trace-<workload>.json`.
pub fn traced(w: &Workload, seed: u64) -> Traced {
    let mut detail = String::new();
    let mut verify = Verifier::new(w, &mut detail);
    let mut m = Metrics::default();

    // Untraced reference repetitions of the same job.
    let mut plain = Fold::new();
    for i in 0..UNTRACED_REPS {
        plain.run_rep(i, true, w, &mut verify, &mut detail);
    }

    // The traced repetition.
    let mut trace = Trace::new();
    let registry = MetricsRegistry::new();
    let mut job = Job::set_up(w, w.engine, Some(&registry), Some(&mut trace));
    let pipeline = PipelineMetrics::register(&registry);
    job.skip_paced(Some(&mut trace));
    let stages_before = pipeline.stage_split();
    let runtime_before = match &job.proc {
        Proc::Par(p) => Some(p.stats()),
        Proc::Seq(_) => None,
    };
    let job_setup_s = job.setup_s();
    let closed_span = trace.spans().len();
    let measured = job.closed(Some(&mut trace));
    let measured_wall_s = measured.wall_ns.iter().sum::<u64>() as f64 / 1e9;
    let stages: Vec<(&str, u64)> = pipeline
        .stage_split()
        .into_iter()
        .zip(stages_before)
        .map(|((name, after), (_, before))| (name, after - before))
        .collect();
    // Set-up, paced stretch (fed back to back) and closed stretch: what the
    // engines' own counters cover.
    let run_wall_s = trace.now_ns() as f64 / 1e9;
    let stream_edges = w.dataset.len() as f64;

    // Public counters, read once the region is over.
    let mut counters: Vec<(String, Value)> = Vec::new();
    // Anchored searches the shared join stage ran itself (the engines'
    // counters do not hold them; the runtime facade does not expose them).
    let mut join_stage_searches = 0u64;
    let resident_ids = job.resident_ids.clone();
    let (profile, stored, productive, adaptive): (ProfileCounters, u64, Vec<u64>, AdaptiveStats) =
        match &mut job.proc {
            Proc::Seq(p) => {
                let leaf = p.shared_leaf_stats();
                let join = p.shared_join_stats();
                let adaptive = p.adaptive_stats();
                join_stage_searches = join.searches_run;
                for (k, v) in [
                    ("shared_leaf.distinct_leaves", leaf.distinct_leaves as u64),
                    ("shared_leaf.searches_run", leaf.searches_run),
                    ("shared_leaf.searches_shared", leaf.searches_shared),
                    ("shared_leaf.searches_delegated", leaf.searches_delegated),
                    ("shared_join.tables", join.tables as u64),
                    ("shared_join.subscriptions", join.subscriptions as u64),
                    ("shared_join.searches_run", join.searches_run),
                    ("shared_join.inserts_run", join.inserts_run),
                    ("shared_join.searches_saved", join.searches_saved),
                    ("shared_join.inserts_saved", join.inserts_saved),
                    ("shared_join.emissions", join.emissions),
                    ("shared_join.deliveries", join.deliveries),
                    ("shared_join.replays", join.replays),
                    ("shared_join.max_depth", join.max_depth as u64),
                    ("shared_join.parent_feeds", join.parent_feeds),
                    ("adaptive.checks", adaptive.checks),
                    ("adaptive.drifts_detected", adaptive.drifts_detected),
                    ("adaptive.redecompositions", adaptive.redecompositions),
                    ("graph.live_edges", p.graph().num_edges() as u64),
                ] {
                    counters.push((k.into(), Value::UInt(v)));
                }
                m.set("core.shared_leaf_elimination", leaf.elimination_ratio());
                m.set(
                    "core.shared_join_inserts_saved_ratio",
                    ratio(
                        join.inserts_saved as f64,
                        (join.inserts_saved + join.inserts_run) as f64,
                    ),
                );
                m.set("core.trie_replays", join.replays as f64);
                for name in [
                    "runtime.batches_sent",
                    "runtime.backpressure_per_batch",
                    "runtime.match_batches_received",
                    "runtime.shard_cost_skew",
                    "runtime.drain_ms",
                    "runtime.batch_fill_ms",
                ] {
                    m.set(name, 0.0);
                }
                let productive = resident_ids
                    .iter()
                    .map(|id| {
                        id.and_then(|id| p.profile_for(id))
                            .map_or(0, |c| c.complete_matches)
                    })
                    .collect();
                (p.profile(), p.stored_matches(), productive, adaptive)
            }
            Proc::Par(p) => {
                let profile = p.profile();
                let stats = p.stats();
                let before = runtime_before.expect("recorded for the runtime");
                let batches = stats.batches_sent - before.batches_sent;
                let costs = p.shard_costs().to_vec();
                let mean = costs.iter().sum::<f64>() / costs.len().max(1) as f64;
                let max = costs.iter().copied().fold(0.0, f64::max);
                let adaptive = p.adaptive_stats();
                for (k, v) in [
                    ("runtime.batches_sent", stats.batches_sent),
                    ("runtime.backpressure_events", stats.backpressure_events),
                    (
                        "runtime.match_batches_received",
                        stats.match_batches_received,
                    ),
                ] {
                    counters.push((k.into(), Value::UInt(v)));
                }
                for (i, c) in costs.iter().enumerate() {
                    counters.push((format!("runtime.shard_cost.w{i}"), Value::Float(*c)));
                }
                m.set("runtime.batches_sent", batches as f64);
                m.set(
                    "runtime.backpressure_per_batch",
                    ratio(
                        (stats.backpressure_events - before.backpressure_events) as f64,
                        batches as f64,
                    ),
                );
                m.set(
                    "runtime.match_batches_received",
                    (stats.match_batches_received - before.match_batches_received) as f64,
                );
                m.set("runtime.shard_cost_skew", ratio(max, mean));
                m.set("runtime.drain_ms", measured.drain_ns as f64 / 1e6);
                m.set(
                    "runtime.batch_fill_ms",
                    p.config().batch_size as f64 / w.offered_eps * 1e3,
                );
                // The facade exposes no shared-stage snapshot; the per-engine
                // counters carry the leaf-sharing half.
                m.set(
                    "core.shared_leaf_elimination",
                    ratio(
                        profile.leaf_searches_shared as f64,
                        (profile.leaf_searches_shared + profile.iso_searches) as f64,
                    ),
                );
                m.set("core.shared_join_inserts_saved_ratio", 0.0);
                m.set("core.trie_replays", 0.0);
                let productive = resident_ids
                    .iter()
                    .map(|id| {
                        id.and_then(|id| p.profile_for(id))
                            .map_or(0, |c| c.complete_matches)
                    })
                    .collect();
                (profile, p.stored_matches(), productive, adaptive)
            }
        };
    m.set("adaptive.checks", adaptive.checks as f64);
    m.set("adaptive.drifts_detected", adaptive.drifts_detected as f64);
    m.set(
        "adaptive.redecompositions",
        adaptive.redecompositions as f64,
    );
    counters.extend(profile_counters(&profile));
    counters.push(("stored_matches".into(), Value::UInt(stored)));
    for (name, ns) in pipeline.stage_split() {
        counters.push((format!("stage.{name}_ns"), Value::UInt(ns)));
    }
    verify.check("traced", &job.finish(), &mut detail);

    // core: where the time of the calls into the pipeline went.
    let is_runtime = w.engine == Engine::Parallel;
    let busy_in_closed = |names: &[&str]| -> u64 {
        trace
            .spans()
            .iter()
            .filter(|s| s.parent == Some(closed_span) && names.contains(&s.name))
            .map(|s| s.busy_ns)
            .sum()
    };
    let calls_ns = busy_in_closed(&["process_into.slice", "process_all_into"]);
    let control_ns = busy_in_closed(&["register", "deregister", "run_drift_checks"]);
    let mut coverage = 0.0;
    for (name, ns) in &stages {
        let share = ratio(*ns as f64, calls_ns as f64);
        coverage += share;
        m.set(
            match *name {
                "ingest" => "core.ingest_share",
                "dispatch" => "core.dispatch_share",
                "shared_join" => "core.shared_join_share",
                "shared_leaf" => "core.shared_leaf_share",
                "private_engine" => "core.private_engine_share",
                "emit" => "core.emit_share",
                "purge" => "core.purge_share",
                other => panic!("unknown pipeline stage {other}"),
            },
            share,
        );
    }
    m.set("core.span_coverage", coverage);
    m.set("core.unattributed_share", (1.0 - coverage).max(0.0));
    m.set(
        "core.matches_per_edge",
        measured.matches as f64 / measured.edges as f64,
    );
    m.set(
        "core.lazy_skip_ratio",
        ratio(
            profile.searches_skipped as f64,
            (profile.searches_skipped + profile.iso_searches) as f64,
        ),
    );
    let registers = trace.durations("register");
    m.set(
        "core.register_ms_max",
        registers.iter().copied().max().unwrap_or(0) as f64 / 1e6,
    );
    m.set("core.register_ms_p50", median_ms(registers));
    m.set(
        "core.deregister_ms_p50",
        median_ms(trace.durations("deregister")),
    );
    m.set(
        "core.control_share",
        ratio(control_ns as f64, measured_wall_s * 1e9),
    );

    // sp-iso / sp-sjtree / sp-selectivity, from the engines' own counters
    // (whole repetition: set-up included).
    // Logical searches of the engines (a shared-leaf result consumed counts
    // as one), and the searches physically run: those minus the shared ones,
    // plus the shared join stage's own.
    let searches = (profile.iso_searches + profile.retroactive_searches) as f64;
    m.set(
        "iso.searches_per_edge",
        (searches - profile.leaf_searches_shared as f64 + join_stage_searches as f64)
            / stream_edges,
    );
    m.set(
        "iso.leaf_matches_per_search",
        ratio(profile.leaf_matches as f64, searches),
    );
    m.set(
        "iso.time_share",
        ratio(profile.iso_time.as_secs_f64(), run_wall_s),
    );
    m.set("sjtree.inserts_per_edge", stored as f64 / stream_edges);
    m.set(
        "sjtree.update_time_share",
        ratio(profile.update_time.as_secs_f64(), run_wall_s),
    );
    m.set(
        "sjtree.stored_matches_peak",
        profile.peak_partial_matches as f64,
    );
    m.set(
        "sjtree.purged_per_edge",
        profile.partial_matches_purged as f64 / stream_edges,
    );
    m.set(
        "adaptive.replay_ms",
        profile.replay_time.as_secs_f64() * 1e3,
    );
    m.set("adaptive.replay_searches", profile.replay_searches as f64);

    // sp-runtime: the identical job on one thread.
    if is_runtime {
        let mut twin = Job::set_up(w, Engine::Sequential, None, None);
        twin.skip_paced(None);
        let twin_closed = twin.closed(None);
        let twin_wall_s = twin_closed.wall_ns.iter().sum::<u64>() as f64 / 1e9;
        verify.check("sequential twin", &twin.finish(), &mut detail);
        m.set(
            "runtime.seq_baseline_eps",
            twin_closed.edges as f64 / twin_wall_s,
        );
        m.set(
            "runtime.overhead_ratio",
            plain.last_rep_wall_s() / twin_wall_s,
        );
    } else {
        m.set("runtime.seq_baseline_eps", 0.0);
        m.set("runtime.overhead_ratio", 0.0);
    }

    // The paced stretches of the untraced repetitions, for the numbers they
    // yield that carry no bound.
    let (p50_ms, p99_ms, samples) = plain.latency_ms();
    m.set("detect_latency_p50_ms", p50_ms);
    m.set("detect_latency_p99_ms", p99_ms);
    m.set("latency.samples", samples as f64);
    m.set("pacer.offered_eps", w.offered_eps);
    m.set("pacer.late_p99_us", plain.late_p99_us);
    m.set("pacer.overshoot_p99_us", plain.overshoot_p99_us);
    m.set("pacer.backlog_share", plain.backlog_share);
    m.set("reps.throughput_spread", plain.throughput_spread());

    // Layer isolation.
    let iso = layers::replay(w, &productive);
    m.set("graph.ingest_ns_per_edge", iso.graph_ingest_ns_per_edge);
    m.set("graph.expire_ns_per_edge", iso.graph_expire_ns_per_edge);
    m.set("graph.live_edges_peak", iso.live_edges_peak as f64);
    m.set("graph.live_vertices_peak", iso.live_vertices_peak as f64);
    m.set("selectivity.observe_ns_per_edge", iso.observe_ns_per_edge);
    m.set("iso.search_ns_per_call", iso.iso_search_ns_per_call);
    m.set("sjtree.insert_ns_per_row", iso.insert_ns_per_row);
    m.set("sjtree.purge_ms_per_pass", iso.purge_ms_per_pass);
    for (k, v) in [
        ("isolation.distinct_leaves", iso.distinct_leaves as u64),
        ("isolation.iso_calls", iso.iso_calls),
        ("isolation.iso_matches", iso.iso_matches),
        ("isolation.store_rows", iso.store_rows),
    ] {
        counters.push((k.into(), Value::UInt(v)));
    }
    counters.push((
        "isolation.store_tree".into(),
        Value::Str(iso.store_tree.clone()),
    ));

    m.set("datasets.generate_s", w.generate_s);
    m.set("datasets.stream_events", stream_edges);
    m.set(
        "metrics.overhead_ratio",
        measured_wall_s / plain.last_rep_wall_s(),
    );

    let _ = writeln!(
        detail,
        "traced: setup {:.4} s, closed stretch {measured_wall_s:.4} s (untraced, the repetition \
         before: {:.4} s), {} spans, calls {:.4} s, control {:.4} s, stages {:?}",
        job_setup_s,
        plain.last_rep_wall_s(),
        trace.spans().len(),
        calls_ns as f64 / 1e9,
        control_ns as f64 / 1e9,
        stages,
    );
    let _ = writeln!(
        detail,
        "isolation: {} distinct leaves, {} searches -> {} leaf matches; store tree {:?} took {} rows; \
         replays {:.3} s",
        iso.distinct_leaves, iso.iso_calls, iso.iso_matches, iso.store_tree, iso.store_rows,
        iso.replay_s
    );

    let path = out_dir().join(format!("trace-{}.json", w.name));
    let doc = trace.to_json(w.name, seed, counters);
    let written = std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, serde::json::to_compact_string(&doc)));
    match written {
        Ok(()) => {
            let _ = writeln!(detail, "trace written to {}", path.display());
        }
        Err(e) => {
            // The numbers above do not depend on the file; say so and go on.
            let _ = writeln!(detail, "trace NOT written ({}): {e}", path.display());
        }
    }

    Traced {
        metrics: m,
        correct: verify.correct,
        attempted: verify.attempted,
        failed: verify.failed,
        detail,
    }
}
