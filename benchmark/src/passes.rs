//! The end-to-end run: identical repetitions with tracing off, folded into
//! the end-to-end metrics; the *traced* run (`traced.rs`) gives the
//! per-layer ones, the paced stretch's latencies among them.
//!
//! Every repetition does the same work on the same events, so a run holds
//! several timings of every piece of it: each set-up step, each closed slice,
//! each match's latency. The metrics are built from the FASTEST timing of
//! each piece. On the shared VM interference only ever adds time, and it
//! comes and goes within milliseconds to seconds: a whole repetition is
//! never free of it, but nearly every piece is in one repetition or another.

use crate::digest::{stream_digest, MatchDigest};
use crate::job::{Closed, Finished, Job, Paced};
use crate::report::Metrics;
use crate::sys::peak_rss_mb;
use crate::workloads::Workload;
use std::fmt::Write as _;

/// One repetition: fresh processor, set-up, paced stretch (if any), closed
/// stretch.
pub struct Rep {
    /// Nanoseconds of each set-up step.
    pub setup_ns: Vec<u64>,
    /// The paced stretch, when the repetition has one.
    pub paced: Option<Paced>,
    /// The closed stretch.
    pub closed: Closed,
    /// Digest and operation counts.
    pub finished: Finished,
}

/// Runs one repetition on the workload's own engine. With `paced`, the
/// events after the warm-up are first released on the schedule for
/// `paced_len` events and the closed stretch is what follows; without, the
/// closed stretch starts right after the warm-up.
pub fn run_rep(w: &Workload, paced: bool) -> Rep {
    let mut job = Job::set_up(w, w.engine, None, None);
    let paced = paced.then(|| job.paced());
    let closed = job.closed(None);
    Rep {
        setup_ns: std::mem::take(&mut job.setup_ns),
        paced,
        closed,
        finished: job.finish(),
    }
}

fn secs(ns: &[u64]) -> f64 {
    ns.iter().sum::<u64>() as f64 / 1e9
}

impl Closed {
    /// Edges plus control operations per second, given the stretch's wall
    /// seconds.
    fn eps(&self, wall_s: f64) -> f64 {
        (self.edges + self.control_ops) as f64 / wall_s
    }

    /// CPU microseconds per stream edge, given the stretch's CPU seconds.
    fn cpu_us(&self, cpu_s: f64) -> f64 {
        cpu_s * 1e6 / self.edges as f64
    }
}

/// The `ceil(q·n)`-th smallest of `sorted`, as milliseconds from nanoseconds.
fn quantile_ms(sorted: &[u32], q: f64) -> f64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    f64::from(sorted[rank - 1]) / 1e6
}

fn sorted(mut v: Vec<u32>) -> Vec<u32> {
    v.sort_unstable();
    v
}

/// Checks every repetition's digest against the first of the run and the
/// pin; a wrong digest fails every operation of the repetition.
pub struct Verifier {
    expected: Option<MatchDigest>,
    /// All repetitions agreed so far.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
}

impl Verifier {
    /// Starts verification by checking the *input* against its pin.
    pub fn new(w: &Workload, detail: &mut String) -> Self {
        let mut correct = true;
        let stream = stream_digest(&w.dataset.events);
        let _ = writeln!(
            detail,
            "stream: {} events ({} warm-up, {} paced at {} eps, {} closed), digest {stream:016x}, \
             generated in {:.3} s",
            w.dataset.len(),
            w.warmup,
            w.paced_len,
            w.offered_eps,
            w.dataset.len() - w.warmup - w.paced_len,
            w.generate_s
        );
        if let Some(pins) = &w.pins {
            if pins.stream != stream {
                correct = false;
                let _ = writeln!(
                    detail,
                    "MISMATCH: stream digest {stream:016x} != pinned {:016x}",
                    pins.stream
                );
            }
        }
        Self {
            expected: w.pins.map(|p| p.matches),
            correct,
            attempted: 0,
            failed: 0,
        }
    }

    /// Accounts one finished repetition.
    pub fn check(&mut self, pass: &str, f: &Finished, detail: &mut String) {
        let (attempted, mut failed) = f.ops;
        let want = *self.expected.get_or_insert(f.digest);
        if f.digest != want {
            failed = attempted;
            let _ = writeln!(
                detail,
                "MISMATCH: {pass} digest {} != expected {}",
                f.digest.render(),
                want.render()
            );
        }
        if failed > 0 {
            self.correct = false;
        }
        self.attempted += attempted;
        self.failed += failed;
        let _ = writeln!(
            detail,
            "{pass}: digest {} ops_attempted={attempted} ops_failed={failed}",
            f.digest.render()
        );
    }
}

/// The repetitions of one run, folded: the fastest timing of every piece,
/// and the harness's own records.
pub struct Fold {
    /// Fastest nanoseconds of each set-up step.
    setup_ns: Vec<u64>,
    /// Lowest latency of each match position (see [`Paced::latency`]).
    latency: Vec<u32>,
    /// Fastest wall nanoseconds of each closed slice.
    wall_ns: Vec<u64>,
    /// Lowest CPU nanoseconds of each closed slice.
    cpu_ns: Vec<u64>,
    /// The closed stretch's counts (the same in every repetition).
    closed: Option<Closed>,
    /// Whole-stretch throughput of every repetition.
    rep_eps: Vec<f64>,
    /// Wall seconds of the latest repetition's closed stretch.
    last_rep_wall_s: f64,
    /// Lowest per-repetition median latency so far, milliseconds.
    best_p50_ms: f64,
    /// `pacer.late_p99_us` of the repetition with that median: release − due
    /// over all events.
    pub late_p99_us: f64,
    /// `pacer.overshoot_p99_us`: the same over events the pacer waited for.
    pub overshoot_p99_us: f64,
    /// `pacer.backlog_share`: events that came due while the thread was busy.
    pub backlog_share: f64,
    /// `VmHWM` after the first repetition, megabytes.
    pub rss_mb: f64,
}

impl Fold {
    /// No repetition yet.
    pub fn new() -> Self {
        Self {
            setup_ns: Vec::new(),
            latency: Vec::new(),
            wall_ns: Vec::new(),
            cpu_ns: Vec::new(),
            closed: None,
            rep_eps: Vec::new(),
            last_rep_wall_s: 0.0,
            best_p50_ms: f64::INFINITY,
            late_p99_us: 0.0,
            overshoot_p99_us: 0.0,
            backlog_share: 0.0,
            rss_mb: 0.0,
        }
    }

    /// Runs repetition `i` (with or without a paced stretch, see
    /// [`run_rep`]; one kind per fold), has `verify` check it, accounts it
    /// in `detail` and folds it in.
    pub fn run_rep(
        &mut self,
        i: usize,
        paced: bool,
        w: &Workload,
        verify: &mut Verifier,
        detail: &mut String,
    ) {
        let Rep {
            setup_ns,
            paced,
            closed,
            finished,
        } = run_rep(w, paced);
        if i == 0 {
            // Read after ONE repetition in a fresh process: the memory the
            // workload needs — the stream, the window graph, the match
            // stores, the runtime's queues. Later repetitions (each a new
            // processor, for the runtime new threads and allocator arenas)
            // only add what the allocator did not hand back.
            self.rss_mb = peak_rss_mb().expect("read VmHWM");
        }
        let _ = write!(detail, "rep {i}: setup {:.4} s | ", secs(&setup_ns));
        if let Some(paced) = paced {
            self.fold_paced(paced, detail);
        }
        let (wall_s, cpu_s) = (secs(&closed.wall_ns), secs(&closed.cpu_ns));
        let _ = writeln!(
            detail,
            "closed {} edges + {} control ops in {wall_s:.4} s = {:.0} eps, cpu {:.3} us/edge, \
             {:.2} matches/edge",
            closed.edges,
            closed.control_ops,
            closed.eps(wall_s),
            closed.cpu_us(cpu_s),
            closed.matches as f64 / closed.edges as f64,
        );
        verify.check(&format!("rep {i}"), &finished, detail);

        self.rep_eps.push(closed.eps(wall_s));
        self.last_rep_wall_s = wall_s;
        if self.closed.is_none() {
            self.setup_ns = setup_ns;
            self.wall_ns = closed.wall_ns.clone();
            self.cpu_ns = closed.cpu_ns.clone();
            self.closed = Some(closed);
        } else {
            fold_min(&mut self.setup_ns, &setup_ns);
            fold_min(&mut self.wall_ns, &closed.wall_ns);
            fold_min(&mut self.cpu_ns, &closed.cpu_ns);
        }
    }

    /// Accounts the paced stretch of a repetition and folds it in.
    fn fold_paced(&mut self, paced: Paced, detail: &mut String) {
        let latency = sorted(paced.latency.clone());
        let (p50, p99) = (quantile_ms(&latency, 0.50), quantile_ms(&latency, 0.99));
        let lateness = sorted(paced.pacer.lateness);
        let overshoot = sorted(paced.pacer.overshoot);
        let late_p99 = quantile_ms(&lateness, 0.99);
        // A stretch without a single wait has no overshoot to speak of.
        let over = |q| {
            if overshoot.is_empty() {
                0.0
            } else {
                quantile_ms(&overshoot, q)
            }
        };
        let (over_p50, over_p99) = (over(0.50), over(0.99));
        let backlog_share = paced.pacer.backlog as f64 / paced.edges as f64;
        let _ = write!(
            detail,
            "paced {:.3} s ({:.0} eps achieved): latency.samples={} p50={p50:.4} ms p99={p99:.4} ms \
             max={:.3} ms, pacer.late_p99_us={:.2} pacer.overshoot_p99_us={:.3} \
             pacer.backlog_share={backlog_share:.4}",
            paced.wall_s,
            paced.edges as f64 / paced.wall_s,
            latency.len(),
            quantile_ms(&latency, 1.0),
            late_p99 * 1e3,
            over_p99 * 1e3,
        );
        // The generator's own error must be small against what it measures,
        // quantile for quantile.
        if over_p50 > 0.10 * p50 || over_p99 > 0.10 * p99 {
            let _ = write!(
                detail,
                " INVALID (pacer overshoot p50 {:.3} us / p99 {:.3} us exceeds 10% of the latency \
                 at the same percentile: the generator was preempted)",
                over_p50 * 1e3,
                over_p99 * 1e3,
            );
        }
        let _ = write!(detail, " | ");
        if p50 < self.best_p50_ms {
            self.best_p50_ms = p50;
            self.late_p99_us = late_p99 * 1e3;
            self.overshoot_p99_us = over_p99 * 1e3;
            self.backlog_share = backlog_share;
        }
        if self.latency.is_empty() {
            self.latency = paced.latency;
        } else if paced.latency.len() == self.latency.len() {
            // (A repetition with another match count has a wrong digest and
            // is charged for it; it has no place in the fold.)
            fold_min(&mut self.latency, &paced.latency);
        }
    }

    fn counts(&self) -> &Closed {
        self.closed.as_ref().expect("at least one repetition")
    }

    /// `setup_s`: the set-up's steps, each at its fastest.
    pub fn setup_s(&self) -> f64 {
        secs(&self.setup_ns)
    }

    /// Wall seconds of the closed stretch, each slice at its fastest.
    pub fn closed_wall_s(&self) -> f64 {
        secs(&self.wall_ns)
    }

    /// `throughput_eps` over [`Self::closed_wall_s`].
    pub fn throughput_eps(&self) -> f64 {
        self.counts().eps(self.closed_wall_s())
    }

    /// `cpu_us_per_edge`, each slice at its lowest.
    pub fn cpu_us_per_edge(&self) -> f64 {
        self.counts().cpu_us(secs(&self.cpu_ns))
    }

    /// Wall seconds of the latest repetition's closed stretch, as it ran.
    pub fn last_rep_wall_s(&self) -> f64 {
        self.last_rep_wall_s
    }

    /// `reps.throughput_spread`: fastest ÷ slowest whole-stretch throughput.
    pub fn throughput_spread(&self) -> f64 {
        let max = self.rep_eps.iter().copied().fold(0.0, f64::max);
        let min = self.rep_eps.iter().copied().fold(f64::INFINITY, f64::min);
        max / min
    }

    /// `detect_latency_p50_ms`, `detect_latency_p99_ms` and `latency.samples`
    /// of the folded latencies (of repetitions with a paced stretch).
    pub fn latency_ms(&self) -> (f64, f64, usize) {
        let v = sorted(self.latency.clone());
        (quantile_ms(&v, 0.50), quantile_ms(&v, 0.99), v.len())
    }
}

fn fold_min<T: Ord + Copy>(into: &mut [T], from: &[T]) {
    assert_eq!(
        into.len(),
        from.len(),
        "repetitions do the same work piece by piece"
    );
    for (a, b) in into.iter_mut().zip(from) {
        *a = (*a).min(*b);
    }
}

/// Result of the end-to-end run of one workload.
pub struct EndToEnd {
    /// The end-to-end metrics.
    pub metrics: Metrics,
    /// Every digest matched (each other, and the pins when they apply).
    pub correct: bool,
    /// Stream events + control operations attempted over all repetitions.
    pub attempted: u64,
    /// Operations failed, plus every operation of a repetition whose digest
    /// is wrong.
    pub failed: u64,
    /// Human-readable account of the repetitions.
    pub detail: String,
}

/// `reps` repetitions of one workload — set-up and closed stretch, no paced
/// stretch — folded into the end-to-end metrics.
pub fn end_to_end(w: &Workload, reps: usize) -> EndToEnd {
    let mut detail = String::new();
    let mut verify = Verifier::new(w, &mut detail);
    let mut fold = Fold::new();
    for i in 0..reps {
        fold.run_rep(i, false, w, &mut verify, &mut detail);
    }
    let _ = writeln!(
        detail,
        "fastest of {reps} repetitions, piece by piece: setup_s={:.4} throughput_eps={:.0} \
         cpu_us_per_edge={:.3}; reps.throughput_spread={:.4}",
        fold.setup_s(),
        fold.throughput_eps(),
        fold.cpu_us_per_edge(),
        fold.throughput_spread(),
    );
    let mut metrics = Metrics::default();
    metrics.set("setup_s", fold.setup_s());
    metrics.set("throughput_eps", fold.throughput_eps());
    metrics.set("cpu_us_per_edge", fold.cpu_us_per_edge());
    metrics.set("peak_rss_mb", fold.rss_mb);
    EndToEnd {
        metrics,
        correct: verify.correct,
        attempted: verify.attempted,
        failed: verify.failed,
        detail,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{build, Engine, NAMES};

    /// Repetitions of a workload report the same match multiset, piece for
    /// piece, and so does — for the runtime workload — its sequential twin.
    #[test]
    fn repetitions_agree_on_every_workload_at_tiny_scale() {
        for name in NAMES {
            let w = build(name, 11, 0.02);
            let a = run_rep(&w, true);
            assert_eq!(a.finished.ops.1, 0, "{name}: failed operations");
            assert!(a.finished.digest.count > 0, "{name}: no match at all");
            let paced = a.paced.as_ref().expect("asked for");
            assert!(
                !paced.latency.is_empty(),
                "{name}: no match in the paced stretch"
            );
            assert_eq!(paced.edges, w.paced_len as u64);
            assert_eq!(
                paced.pacer.lateness.len(),
                w.paced_len,
                "{name}: lateness per event"
            );
            assert_eq!(
                a.closed.edges as usize,
                w.dataset.len() - w.warmup - w.paced_len
            );

            let b = run_rep(&w, true);
            assert_eq!(b.finished.digest, a.finished.digest, "{name}");
            assert_eq!(b.setup_ns.len(), a.setup_ns.len(), "{name}");
            assert_eq!(
                b.paced.unwrap().latency.len(),
                paced.latency.len(),
                "{name}"
            );
            assert_eq!(b.closed.wall_ns.len(), a.closed.wall_ns.len(), "{name}");
            assert_eq!(b.closed.matches, a.closed.matches, "{name}");

            // Without a paced stretch the closed stretch takes its events.
            let c = run_rep(&w, false);
            assert!(c.paced.is_none());
            assert_eq!(c.finished.digest, a.finished.digest, "{name}");
            assert_eq!(c.closed.edges as usize, w.dataset.len() - w.warmup);

            if w.engine != Engine::Sequential {
                let mut twin = Job::set_up(&w, Engine::Sequential, None, None);
                twin.skip_paced(None);
                let closed = twin.closed(None);
                assert_eq!(closed.matches, a.closed.matches);
                let twin = twin.finish();
                assert_eq!(twin.ops.1, 0);
                assert_eq!(
                    twin.digest, a.finished.digest,
                    "{name}: runtime != sequential twin"
                );
            }
        }
    }

    /// The churn schedule really rotates rules inside the closed stretch.
    #[test]
    fn churn_counts_its_control_operations() {
        let w = build("netflow_churn", 11, 0.05);
        let rep = run_rep(&w, false);
        let churn = w.churn.as_ref().unwrap();
        let rotations = (w.warmup..w.dataset.len())
            .filter(|i| i % churn.period == 0)
            .count() as u64;
        assert!(rotations > 0);
        assert_eq!(rep.closed.control_ops, 3 * rotations);
        assert_eq!(rep.finished.ops.1, 0);
    }

    /// The fold keeps the fastest timing of every piece, not of a whole
    /// repetition.
    #[test]
    fn fold_takes_the_minimum_piece_by_piece() {
        let mut into = vec![5u64, 1, 9];
        fold_min(&mut into, &[2, 3, 9]);
        assert_eq!(into, [2, 1, 9]);
        assert_eq!(quantile_ms(&[1_000_000, 2_000_000, 3_000_000], 0.5), 2.0);
        assert_eq!(quantile_ms(&[1_000_000, 2_000_000, 3_000_000], 0.99), 3.0);
        assert_eq!(quantile_ms(&[1_000_000, 2_000_000], 0.5), 1.0);
    }

    /// A wrong digest fails the whole repetition and flips `correct`.
    #[test]
    fn verifier_charges_a_wrong_digest_to_every_operation() {
        let w = build("netflow_storm", 11, 0.02);
        let mut detail = String::new();
        let mut v = Verifier::new(&w, &mut detail);
        let good = MatchDigest {
            count: 3,
            sum: 7,
            xor: 9,
        };
        let pass = |digest, attempted| Finished {
            digest,
            ops: (attempted, 0),
        };
        v.check("rep 0", &pass(good, 100), &mut detail);
        v.check("rep 1", &pass(good, 50), &mut detail);
        assert!(v.correct && v.failed == 0 && v.attempted == 150, "{detail}");
        let bad = MatchDigest { count: 8, ..good };
        v.check("rep 2", &pass(bad, 50), &mut detail);
        assert!(!v.correct);
        assert_eq!((v.attempted, v.failed), (200, 50));
        assert!(detail.contains("MISMATCH"));
    }
}
