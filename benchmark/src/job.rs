//! One repetition of a workload: set-up, optionally the *paced* stretch (open
//! loop, on the release schedule), then the *closed* stretch (the rest of
//! the stream back to back, in timed slices). Repetitions of one kind do
//! exactly the same work on the same events, which is what lets the passes
//! compare them slice by slice.
//!
//! Everything here goes through the crates' public API only. The traced pass
//! runs the same code and additionally hands in a [`Trace`] (spans around
//! each public call) and a `MetricsRegistry`.

use crate::digest::MatchDigest;
use crate::pacer::{Pacer, Schedule};
use crate::sys::process_cpu_ns;
use crate::trace::{spanned, Trace};
use crate::workloads::{Churn, Engine, Rule, Workload, WORKERS};
use sp_graph::EdgeEvent;
use sp_iso::SubgraphMatch;
use sp_metrics::MetricsRegistry;
use sp_runtime::ParallelStreamProcessor;
use std::collections::VecDeque;
use std::time::Instant;
use streampattern::{MatchSink, PipelineMetrics, QueryId, StreamProcessor};

/// Events per timed slice of the closed stretch on the sequential processor
/// (0.7–6 ms of work; a quarter of the churn period, so rotations fall on
/// slice boundaries).
const SLICE_SEQUENTIAL: usize = 250;

/// Events per `process_all_into` call on the runtime, in the warm-up and in
/// the closed stretch, where a call is a timed slice: two batches per worker.
/// Each call ends with a drain barrier, so no queue ever holds more than the
/// matches of this many events. Fed more per call, the matches pile up in
/// the facade's queue to a depth that depends on thread timing, and
/// `peak_rss_mb` with it: 53–64 MB over ten seeds with 16 384 events per
/// call, 44–50 MB with 2048, 40–41.5 MB with 512 — at the same throughput.
const CALL_RUNTIME: usize = 512;

/// The sink of every pass: digests each match and, inside the paced stretch,
/// records its detection latency against the release schedule.
#[derive(Default)]
pub struct BenchSink {
    /// Digest of everything received so far.
    pub digest: MatchDigest,
    /// `(events since the stretch began at the match's newest edge, latency
    /// in ns)` of every match received while the paced stretch runs, in
    /// arrival order. Both saturate.
    samples: Vec<(u32, u32)>,
    /// The release schedule while the paced stretch runs.
    schedule: Option<Schedule>,
}

impl MatchSink for BenchSink {
    #[inline]
    fn on_match(&mut self, query: QueryId, m: SubgraphMatch) {
        // Edge ids are stream indices: every processor (and every runtime
        // replica) ingests each event exactly once, in order, from id 0.
        let newest = self.digest.add(query, &m);
        if let Some(s) = &self.schedule {
            let latency = s.now_ns().saturating_sub(s.due_ns(newest));
            self.samples.push((
                u32::try_from(s.offset(newest)).unwrap_or(u32::MAX),
                u32::try_from(latency).unwrap_or(u32::MAX),
            ));
        }
    }
}

/// The processor under test.
pub enum Proc {
    /// Sequential processor.
    Seq(Box<StreamProcessor>),
    /// Threaded runtime.
    Par(Box<ParallelStreamProcessor>),
}

/// What the paced stretch of one repetition recorded.
pub struct Paced {
    /// Wall seconds of the stretch.
    pub wall_s: f64,
    /// Stream events in it.
    pub edges: u64,
    /// Latency in ns of every match, ordered by the match's newest edge and,
    /// within one edge, by arrival. Every repetition reports the same number
    /// of matches per edge (the digests say so), so position `i` holds the
    /// same order statistic of the same edge's matches in every repetition.
    pub latency: Vec<u32>,
    /// The pacer, with its lateness records.
    pub pacer: Pacer,
}

/// What the closed stretch of one repetition cost, slice by slice.
pub struct Closed {
    /// Wall nanoseconds of each slice.
    pub wall_ns: Vec<u64>,
    /// CPU nanoseconds (user + system, all threads) of each slice.
    pub cpu_ns: Vec<u64>,
    /// Stream events in the stretch.
    pub edges: u64,
    /// Control operations (register / deregister / drift check) in it.
    pub control_ops: u64,
    /// Matches reported in it.
    pub matches: u64,
    /// Runtime only: nanoseconds, summed over the slices, from the last
    /// event being handed over to `process_all_into` returning (final batch
    /// + drain barrier).
    pub drain_ns: u64,
}

/// What a finished repetition reported.
pub struct Finished {
    /// Digest of every match, warm-up included.
    pub digest: MatchDigest,
    /// Operations attempted and failed.
    pub ops: (u64, u64),
}

/// Live state of the `netflow_churn` rotation.
struct Rotation {
    live: VecDeque<QueryId>,
    next: usize,
}

/// A workload mid-run.
pub struct Job<'w> {
    w: &'w Workload,
    /// The processor, exposed so the traced pass can read its counters.
    pub proc: Proc,
    /// The sink all matches go to.
    pub sink: BenchSink,
    rotation: Option<Rotation>,
    /// Ids of the resident rules, in pack order (`None`: registration
    /// failed).
    pub resident_ids: Vec<Option<QueryId>>,
    /// Nanoseconds of each step of the set-up: construction + registration
    /// first, then one per warm-up call.
    pub setup_ns: Vec<u64>,
    /// Stream events handed to the processor so far.
    fed: u64,
    /// Stream events and control operations attempted so far.
    pub ops_attempted: u64,
    /// Operations that failed (registration errors, unknown deregistrations,
    /// events a runtime replica did not ingest).
    pub ops_failed: u64,
}

/// Hands the runtime its events, paced or not, and notes when it ran dry.
struct Feed<'a, 'p> {
    events: std::slice::Iter<'a, EdgeEvent>,
    index: u64,
    pacer: Option<&'p mut Pacer>,
    exhausted_at: Option<Instant>,
}

impl<'a> Iterator for Feed<'a, '_> {
    type Item = &'a EdgeEvent;

    #[inline]
    fn next(&mut self) -> Option<&'a EdgeEvent> {
        let Some(ev) = self.events.next() else {
            self.exhausted_at.get_or_insert_with(Instant::now);
            return None;
        };
        if let Some(p) = self.pacer.as_deref_mut() {
            p.wait_for(self.index);
        }
        self.index += 1;
        Some(ev)
    }
}

impl<'w> Job<'w> {
    /// Set-up: constructs the processor (`engine` overrides the workload's
    /// own, for the sequential twin), registers the pack and replays the
    /// warm-up prefix. `setup_ns` times the steps of this call.
    pub fn set_up(
        w: &'w Workload,
        engine: Engine,
        metrics: Option<&MetricsRegistry>,
        mut trace: Option<&mut Trace>,
    ) -> Job<'w> {
        let mut lap = Instant::now();
        let span = trace.as_deref_mut().map(|t| t.begin("set_up", "harness"));
        let proc = match engine {
            Engine::Sequential => {
                let mut p = w.sequential();
                if let Some(reg) = metrics {
                    p = p.with_metrics(PipelineMetrics::register(reg));
                }
                Proc::Seq(Box::new(p))
            }
            Engine::Parallel => {
                let mut p = w.parallel(WORKERS);
                if let Some(reg) = metrics {
                    p.enable_metrics(reg);
                }
                Proc::Par(Box::new(p))
            }
        };
        let mut job = Job {
            w,
            proc,
            sink: BenchSink::default(),
            rotation: None,
            resident_ids: Vec::new(),
            setup_ns: Vec::with_capacity(1 + w.warmup.div_ceil(CALL_RUNTIME)),
            fed: 0,
            ops_attempted: 0,
            ops_failed: 0,
        };
        for rule in &w.resident {
            let id = job.register(rule, trace.as_deref_mut());
            job.resident_ids.push(id);
        }
        if let Some(churn) = &w.churn {
            let mut rotation = Rotation {
                live: VecDeque::new(),
                next: 0,
            };
            for _ in 0..churn.live {
                let rule = &churn.rotation[rotation.next % churn.rotation.len()];
                rotation.next += 1;
                if let Some(id) = job.register(rule, trace.as_deref_mut()) {
                    rotation.live.push_back(id);
                }
            }
            job.rotation = Some(rotation);
        }
        let mut step_done = |job: &mut Job| {
            let now = Instant::now();
            job.setup_ns.push((now - lap).as_nanos() as u64);
            lap = now;
        };
        step_done(&mut job);
        // In calls of the runtime's size on either engine: the sequential
        // processor cannot tell the difference, and the steps of `setup_s`
        // are the same for the runtime and its sequential twin.
        for from in (0..w.warmup).step_by(CALL_RUNTIME) {
            let to = (from + CALL_RUNTIME).min(w.warmup);
            job.feed(from, to, None, trace.as_deref_mut());
            step_done(&mut job);
        }
        if let (Some(t), Some(id)) = (trace, span) {
            t.end(id);
        }
        job
    }

    /// Seconds the set-up took.
    pub fn setup_s(&self) -> f64 {
        self.setup_ns.iter().sum::<u64>() as f64 / 1e9
    }

    /// The paced stretch: the `paced_len` events after the warm-up, released
    /// on the workload's fixed schedule.
    pub fn paced(&mut self) -> Paced {
        let from = self.w.warmup;
        let to = from + self.w.paced_len;
        let schedule = Schedule::starting_now(self.w.offered_eps, from as u64);
        self.sink.schedule = Some(schedule);
        // The runtime's two workers need both cores: the facade thread must
        // not spin on one of them while it waits.
        let mut pacer = Pacer::new(schedule, matches!(self.proc, Proc::Par(_)));
        self.feed(from, to, Some(&mut pacer), None);
        let wall_s = schedule.now_ns() as f64 / 1e9;
        self.sink.schedule = None;
        let mut samples = std::mem::take(&mut self.sink.samples);
        // Stable: matches of one edge keep their arrival order. The
        // sequential processor delivers in edge order already; the runtime's
        // two workers interleave.
        samples.sort_by_key(|&(edge, _)| edge);
        Paced {
            wall_s,
            edges: (to - from) as u64,
            latency: samples.into_iter().map(|(_, ns)| ns).collect(),
            pacer,
        }
    }

    /// The paced stretch fed back to back and untimed — for the repetitions
    /// (traced, sequential twin) that only measure the closed stretch.
    pub fn skip_paced(&mut self, trace: Option<&mut Trace>) {
        let from = self.w.warmup;
        self.feed(from, from + self.w.paced_len, None, trace);
    }

    /// The closed stretch: everything not fed yet, back to back, one timed
    /// slice after another.
    pub fn closed(&mut self, mut trace: Option<&mut Trace>) -> Closed {
        let from = self.fed as usize;
        let to = self.w.dataset.len();
        let slice = match self.proc {
            Proc::Seq(_) => SLICE_SEQUENTIAL,
            Proc::Par(_) => CALL_RUNTIME,
        };
        let slices = (to - from).div_ceil(slice);
        let mut closed = Closed {
            wall_ns: Vec::with_capacity(slices),
            cpu_ns: Vec::with_capacity(slices),
            edges: (to - from) as u64,
            control_ops: 0,
            matches: 0,
            drain_ns: 0,
        };
        let matches_before = self.sink.digest.count;
        let ops_before = self.ops_attempted;
        let span = trace.as_deref_mut().map(|t| t.begin("closed", "harness"));
        let mut cpu = process_cpu_ns().expect("read the process CPU clock");
        let mut wall = Instant::now();
        for start in (from..to).step_by(slice) {
            let end = (start + slice).min(to);
            closed.drain_ns += self.feed(start, end, None, trace.as_deref_mut());
            let (wall_now, cpu_now) = (
                Instant::now(),
                process_cpu_ns().expect("read the process CPU clock"),
            );
            closed.wall_ns.push((wall_now - wall).as_nanos() as u64);
            closed.cpu_ns.push(cpu_now - cpu);
            (wall, cpu) = (wall_now, cpu_now);
        }
        if let (Some(t), Some(id)) = (trace, span) {
            t.end(id);
        }
        closed.control_ops = self.ops_attempted - ops_before - closed.edges;
        closed.matches = self.sink.digest.count - matches_before;
        closed
    }

    /// Ends the repetition: checks the runtime ingested every event on every
    /// replica, stops its threads, and returns the digest and the operation
    /// counts.
    pub fn finish(mut self) -> Finished {
        if let Proc::Par(mut p) = self.proc {
            for report in p.worker_reports() {
                self.ops_failed += self.fed.saturating_sub(report.edges_ingested);
            }
            let report = p.shutdown();
            // `worker_reports` drains into an internal buffer; anything it
            // caught belongs to the digest as well.
            for (q, m) in report.pending_matches {
                self.sink.on_match(q, m);
            }
        }
        Finished {
            digest: self.sink.digest,
            ops: (self.ops_attempted, self.ops_failed),
        }
    }

    fn register(&mut self, rule: &Rule, trace: Option<&mut Trace>) -> Option<QueryId> {
        self.ops_attempted += 1;
        let (query, spec, window) = (rule.query.clone(), rule.spec, rule.window);
        let proc = &mut self.proc;
        let result = spanned(trace, "register", "core", || match proc {
            Proc::Seq(p) => p.register(query, spec, window),
            Proc::Par(p) => p.register(query, spec, window),
        });
        if result.is_err() {
            self.ops_failed += 1;
        }
        result.ok()
    }

    /// One rotation step of the churn schedule: the oldest rotating rule
    /// leaves, the next one joins, and the plans are re-checked against the
    /// live statistics — three control operations.
    fn rotate(&mut self, churn: &Churn, mut trace: Option<&mut Trace>) {
        let Proc::Seq(proc) = &mut self.proc else {
            unreachable!("the churn schedule only runs on the sequential processor");
        };
        let rotation = self.rotation.as_mut().expect("churn implies a rotation");
        self.ops_attempted += 1;
        let removed = rotation.live.pop_front().and_then(|id| {
            spanned(trace.as_deref_mut(), "deregister", "core", || {
                proc.deregister(id)
            })
        });
        if removed.is_none() {
            self.ops_failed += 1;
        }
        let rule = &churn.rotation[rotation.next % churn.rotation.len()];
        rotation.next += 1;
        if let Some(id) = self.register(rule, trace.as_deref_mut()) {
            self.rotation
                .as_mut()
                .expect("still there")
                .live
                .push_back(id);
        }
        let Proc::Seq(proc) = &mut self.proc else {
            unreachable!();
        };
        self.ops_attempted += 1;
        spanned(trace, "run_drift_checks", "core", || {
            proc.run_drift_checks()
        });
    }

    /// Feeds stream indices `from..to`. Returns the runtime's drain time
    /// (0 for the sequential processor).
    fn feed(
        &mut self,
        from: usize,
        to: usize,
        pacer: Option<&mut Pacer>,
        trace: Option<&mut Trace>,
    ) -> u64 {
        self.ops_attempted += (to - from) as u64;
        self.fed += (to - from) as u64;
        let w = self.w;
        let events = &w.dataset.events[from..to];
        match &mut self.proc {
            Proc::Par(p) => {
                let mut feed = Feed {
                    events: events.iter(),
                    index: from as u64,
                    pacer,
                    exhausted_at: None,
                };
                let sink = &mut self.sink;
                spanned(trace, "process_all_into", "sp-runtime", || {
                    p.process_all_into(&mut feed, sink);
                    // From the last event handed over to the call returning.
                    feed.exhausted_at
                        .map_or(0, |at| at.elapsed().as_nanos() as u64)
                })
            }
            Proc::Seq(_) => {
                self.feed_sequential(from, events, pacer, trace);
                0
            }
        }
    }

    fn feed_sequential(
        &mut self,
        from: usize,
        events: &[EdgeEvent],
        mut pacer: Option<&mut Pacer>,
        mut trace: Option<&mut Trace>,
    ) {
        let w = self.w;
        // (span id, calls, busy ns) of the open slice span of a traced pass.
        let mut slice: Option<(usize, u64, u64)> = None;
        for (offset, ev) in events.iter().enumerate() {
            let index = from + offset;
            if let Some(churn) = &w.churn {
                if index > 0 && index.is_multiple_of(churn.period) {
                    if let (Some(t), Some((id, calls, busy))) = (trace.as_deref_mut(), slice.take())
                    {
                        t.end_slice(id, calls, busy);
                    }
                    self.rotate(churn, trace.as_deref_mut());
                }
            }
            if let Some(p) = pacer.as_deref_mut() {
                p.wait_for(index as u64);
            }
            let Proc::Seq(proc) = &mut self.proc else {
                unreachable!();
            };
            match trace.as_deref_mut() {
                None => {
                    proc.process_into(ev, &mut self.sink);
                }
                Some(t) => {
                    let open =
                        slice.get_or_insert_with(|| (t.begin("process_into.slice", "core"), 0, 0));
                    let t0 = Instant::now();
                    proc.process_into(ev, &mut self.sink);
                    open.1 += 1;
                    open.2 += t0.elapsed().as_nanos() as u64;
                }
            }
        }
        if let (Some(t), Some((id, calls, busy))) = (trace, slice.take()) {
            t.end_slice(id, calls, busy);
        }
    }
}
