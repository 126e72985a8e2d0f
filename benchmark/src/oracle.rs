//! `--verify-oracle`: the pipeline against the one honest oracle.
//!
//! The pinned digests say the pipeline still reports what it reported when
//! they were pinned; they cannot say that was right. Here a short slice of
//! each workload's stream runs through the workload's own pipeline (shared
//! leaves, shared joins, lazy gates, two workers, `Auto` strategies — as
//! configured) and through one *independent* single-query processor per rule
//! running `Strategy::Vf2Baseline`, a from-scratch search of the window on
//! every edge. The two match multisets must be identical.
//!
//! The slice ends before the first rotation of `netflow_churn`, so every
//! rule is live for all of it and the oracle needs no registration schedule.

use crate::digest::MatchDigest;
use crate::passes::run_rep;
use crate::workloads::{Rule, Workload};
use streampattern::{FnSink, QueryId, Strategy, StreamProcessor};

/// Outcome of one oracle comparison.
pub struct OracleCheck {
    /// Events compared.
    pub edges: usize,
    /// Rules compared.
    pub rules: usize,
    /// Digest of the workload's pipeline.
    pub pipeline: MatchDigest,
    /// Digest of the independent VF2 processors.
    pub oracle: MatchDigest,
    /// The pipeline run itself reported no failed operation.
    pub pipeline_ok: bool,
}

impl OracleCheck {
    /// Both sides agree and nothing failed.
    pub fn passed(&self) -> bool {
        self.pipeline_ok && self.pipeline == self.oracle
    }
}

/// Compares pipeline and oracle over `edges` events of `w`.
pub fn check(w: &Workload, edges: usize) -> OracleCheck {
    let edges = match &w.churn {
        // Index `period` is the first rotation: stay below it.
        Some(c) => edges.min(c.period),
        None => edges,
    };
    // From where the paced stretch starts: on `lsbench_calm` the stream's
    // head is the static friendship phase, which most queries never touch.
    let end = (w.warmup + edges).min(w.dataset.len());
    let slice = w.slice(w.warmup..end, edges / 2);
    let rep = run_rep(&slice, false);

    // Registration order gives the pipeline's ids: residents, then the
    // rotation's initial `live` rules.
    let rules: Vec<&Rule> = slice
        .resident
        .iter()
        .chain(
            slice
                .churn
                .iter()
                .flat_map(|c| c.rotation.iter().take(c.live)),
        )
        .collect();
    let mut oracle = MatchDigest::default();
    for (i, rule) in rules.iter().enumerate() {
        let mut p = StreamProcessor::new(slice.dataset.schema.clone()).with_statistics(false);
        p.register(rule.query.clone(), Strategy::Vf2Baseline, rule.window)
            .expect("every benchmark rule is a connected, non-empty query");
        let mut sink = FnSink(|_, m| {
            oracle.add(QueryId(i as u64), &m);
        });
        p.process_batch_into(&slice.dataset.events, &mut sink);
    }
    OracleCheck {
        edges: slice.dataset.len(),
        rules: rules.len(),
        pipeline: rep.finished.digest,
        oracle,
        pipeline_ok: rep.finished.ops.1 == 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{build, NAMES};

    /// Tiny-scale run of what `--verify-oracle` does at full scale.
    #[test]
    fn pipeline_matches_vf2_oracle_on_every_workload() {
        for name in NAMES {
            let w = build(name, 7, 0.02);
            let c = check(&w, 400);
            assert!(
                c.passed(),
                "{name}: pipeline {} vs oracle {}",
                c.pipeline.render(),
                c.oracle.render()
            );
            assert!(c.rules >= 9, "{name}: {} rules", c.rules);
        }
    }

    /// The check is not vacuous: some slice must actually contain matches.
    #[test]
    fn oracle_slices_contain_matches() {
        let w = build("netflow_storm", 7, 0.02);
        let c = check(&w, 400);
        assert!(c.oracle.count > 0, "no match in the storm slice");
    }
}
