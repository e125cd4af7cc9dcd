//! The one run driver behind every runner.
//!
//! A run is one loop over independent live-points. Each run kind
//! implements [`Observe`]: the `f64` row it measures per point, how rows
//! accumulate, its stop rule and what it reports. [`drive`] owns the
//! rest: chunk claiming and decode-ahead ([`crate::sched`]),
//! checkpoint/resume, health events, profiling, and the index-ordered
//! replay that makes the estimate independent of the thread count.
//!
//! Workers push rows into a shared accumulator and apply the stop rule
//! to it after every point at `threads = 1` (the serial run, on the
//! calling thread) and every [`RunPolicy::merge_stride`] points above.

use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::Mutex;

use spectral_isa::Program;
use spectral_telemetry::{Counter, ProfilePhase, Stopwatch, WorkerTimeline};
use spectral_uarch::MachineConfig;

use crate::error::CoreError;
use crate::health::{HealthMonitor, Interval, PointMeta};
use crate::library::{DecodeScratch, LivePointLibrary};
use crate::livepoint::LivePoint;
use crate::resume::RunKind;
use crate::resume::{config_fingerprint, policy_fingerprint, CheckpointSpec, RecoverySession};
use crate::runner::{simulate_warm, warm_hierarchy, RunPolicy};
use crate::sched::{note_worker_time, ChunkCursor, ChunkLog, PrefetchRing, WorkQueue};

// Simulation time and count (one per simulation) and accumulator lock
// traffic. No-ops without the `telemetry` feature.
static TLM_POINTS: Counter = Counter::new("core.run.points");
static TLM_SIMULATE_NS: Counter = Counter::new("core.run.simulate_ns");
static TLM_MERGES: Counter = Counter::new("core.run.merges");
static TLM_LOCK_WAIT_NS: Counter = Counter::new("core.run.lock_wait_ns");

/// Live-points each worker decodes ahead of the one it simulates.
const PREFETCH_DEPTH: usize = 4;

/// A convergence-trajectory sample: `(points, mean, half_width)`.
pub(crate) type Sample = (u64, f64, f64);

/// A progress-record series: `(metric, sweep configuration, estimate)`.
pub(crate) type Series<'a> = (&'static str, Option<usize>, &'a dyn Interval);

/// What one run kind measures per live-point and how it accumulates.
pub(crate) trait Observe: Sync {
    /// The running estimate, pushed one row at a time.
    type Acc: Send;
    /// Checkpoint kind; its name also labels the run's span, events
    /// and profile.
    const KIND: RunKind;

    /// The machines each point is simulated under: a row holds their
    /// CPIs in this order, then the point's [`label`](Self::label).
    fn machines(&self) -> &[MachineConfig];
    /// An empty accumulator.
    fn acc(&self) -> Self::Acc;
    fn push(&self, acc: &mut Self::Acc, row: &[f64]);
    /// The relative error that sizes chunks, and whether the stop rule
    /// holds.
    fn status(&self, acc: &Self::Acc, policy: &RunPolicy) -> (f64, bool);
    /// The estimates that progress records and trajectories report.
    fn series<'a>(&self, acc: &'a Self::Acc) -> Vec<Series<'a>>;

    /// A value that ends the point's row, if the kind needs one.
    fn label(&self, _lp: &LivePoint) -> Option<f64> {
        None
    }
    /// `f64`s per row.
    fn arity(&self) -> usize {
        self.machines().len()
    }
}

/// A finished run: the replayed accumulator, one trajectory per
/// series, and whether the stop rule ever held.
pub(crate) struct Run<A> {
    pub acc: A,
    pub trajectories: Vec<Vec<Sample>>,
    pub processed: usize,
    pub reached: bool,
}

/// Run `obs` over `library` on `threads` workers (see the module docs).
/// Errors are those of the runners' `run_parallel`.
pub(crate) fn drive<O: Observe>(
    obs: &O,
    library: &LivePointLibrary,
    program: &Program,
    policy: &RunPolicy,
    threads: usize,
) -> Result<Run<O::Acc>, CoreError> {
    if library.is_empty() {
        return Err(CoreError::EmptyLibrary);
    }
    let spec = CheckpointSpec {
        kind: O::KIND,
        benchmark: program.name().to_owned(),
        library_hash: library.content_hash(),
        policy_fp: policy_fingerprint(policy) ^ config_fingerprint(&obs.machines()),
        arity: obs.arity(),
    };
    let session = RecoverySession::start(&policy.recovery, spec)?;
    let _span = spectral_telemetry::span(O::KIND.span());
    let limit = policy.max_points.unwrap_or(usize::MAX).min(library.len());
    let threads = threads.clamp(1, limit.max(1));
    let seq = spectral_telemetry::next_run_seq();
    let _profile = spectral_telemetry::run_scope(seq, O::KIND.as_str(), threads);
    // Chunks start one merge stride long and shrink as the run nears
    // its target.
    let stride = policy.merge_stride.max(1);
    let d = Driver {
        obs,
        library,
        program,
        policy,
        session,
        seq,
        // A serial run applies the stop rule after every point.
        batch: if threads == 1 { 1 } else { stride },
        cursor: ChunkCursor::new(limit, threads, stride),
        stop: AtomicBool::new(false),
        shared: Mutex::new(Shared { acc: obs.acc(), n: 0, stop_n: None, fault: None }),
    };
    let lanes: Vec<(ChunkLog, HealthMonitor)> = if threads == 1 {
        vec![d.work(0)]
    } else {
        std::thread::scope(|scope| {
            let d = &d;
            let handles: Vec<_> = (0..threads).map(|w| scope.spawn(move || d.work(w))).collect();
            handles.into_iter().map(|h| h.join().expect("worker threads do not panic")).collect()
        })
    };
    let Shared { stop_n, fault, .. } = d.shared.into_inner().expect("run lock");
    if let Some(e) = fault {
        return Err(e);
    }
    d.session.finish()?;

    // Deterministic reduction: replay every row in ascending index
    // order into a fresh accumulator, regenerating the trajectories.
    let (logs, monitors): (Vec<_>, Vec<_>) = lanes.into_iter().unzip();
    let rows = ChunkLog::into_ordered(logs);
    let mut acc = obs.acc();
    let mut trajectories = vec![Vec::new(); obs.series(&acc).len()];
    for (i, row) in rows.chunks_exact(obs.arity()).enumerate() {
        obs.push(&mut acc, row);
        if policy.trajectory_stride > 0 && (i + 1).is_multiple_of(policy.trajectory_stride) {
            for (traj, (_, _, est)) in trajectories.iter_mut().zip(obs.series(&acc)) {
                let (n, mean, half_width, _) = est.interval(policy.confidence);
                traj.push((n, mean, half_width));
            }
        }
    }
    // Close the event stream with the replayed estimate and the exact
    // overshoot past the stop point, unless a serial run's last record
    // already showed the final state.
    let processed = rows.len() / obs.arity();
    let overshoot = stop_n.map_or(0, |n| processed as u64 - n);
    if threads > 1 || !processed.is_multiple_of(stride) || overshoot > 0 {
        emit(obs, &monitors[0], &acc, policy, overshoot);
    }
    Ok(Run { acc, trajectories, processed, reached: stop_n.is_some() })
}

/// Emit a progress record per series of `acc`.
fn emit<O: Observe>(obs: &O, monitor: &HealthMonitor, acc: &O::Acc, policy: &RunPolicy, over: u64) {
    for (metric, config, est) in obs.series(acc) {
        monitor.progress(metric, config, est, policy, over);
    }
}

/// One run's state, shared by its workers.
struct Driver<'a, O: Observe> {
    obs: &'a O,
    library: &'a LivePointLibrary,
    program: &'a Program,
    policy: &'a RunPolicy,
    session: RecoverySession,
    seq: u64,
    /// Points a worker buffers before pushing them to `shared`.
    batch: usize,
    cursor: ChunkCursor,
    stop: AtomicBool,
    shared: Mutex<Shared<O::Acc>>,
}

/// The state behind the run's lock.
struct Shared<A> {
    /// Every pushed row, for stop decisions (the result is replayed).
    acc: A,
    n: u64,
    /// The count at which the stop rule first held.
    stop_n: Option<u64>,
    fault: Option<CoreError>,
}

/// A worker's private state.
struct Lane {
    scratch: DecodeScratch,
    ring: PrefetchRing,
    monitor: HealthMonitor,
    tl: WorkerTimeline,
    busy_ns: u64,
}

impl<O: Observe> Driver<'_, O> {
    /// One worker: claim chunks, restore or measure each point, log its
    /// row, and push rows to the shared accumulator in batches.
    fn work(&self, worker: usize) -> (ChunkLog, HealthMonitor) {
        let (kind, arity) = (O::KIND.as_str(), self.obs.arity());
        let wall = Stopwatch::start();
        let mut lane = Lane {
            scratch: DecodeScratch::new(),
            ring: PrefetchRing::new(PREFETCH_DEPTH),
            monitor: HealthMonitor::new(self.seq, kind, worker, self.policy),
            tl: WorkerTimeline::new(self.seq, kind, worker),
            busy_ns: 0,
        };
        let (mut log, mut row, mut batch) = (ChunkLog::default(), Vec::new(), Vec::new());
        let mut queue = WorkQueue::new(&self.cursor, worker);
        while !self.stop.load(Relaxed) {
            let Some(chunk) = queue.next_chunk(&mut lane.tl) else { break };
            log.begin(chunk.start, chunk.len() * arity);
            // Restored indices never decode: the prefetch ring sees
            // only the chunk's fresh remainder.
            let mut pending = chunk.clone().filter(|&i| !self.session.knows(i));
            for index in chunk.take_while(|_| !self.stop.load(Relaxed)) {
                if let Err(e) = self.point(index, &mut pending, &mut lane, &mut row) {
                    self.shared.lock().expect("run lock").fault.get_or_insert(e);
                    self.stop.store(true, Relaxed);
                    break;
                }
                log.push(&row);
                batch.extend_from_slice(&row);
                if batch.len() == self.batch * arity {
                    self.flush(&mut batch, &mut lane);
                }
            }
        }
        if !batch.is_empty() {
            self.flush(&mut batch, &mut lane);
        }
        note_worker_time(lane.busy_ns, wall.ns());
        (log, lane.monitor)
    }

    /// Fill `row` for point `index`: from the resume checkpoint, or by
    /// decoding (through the ring) and simulating it, feeding the
    /// health monitor and the checkpoint writer.
    fn point(
        &self,
        index: usize,
        pending: &mut impl Iterator<Item = usize>,
        lane: &mut Lane,
        row: &mut Vec<f64>,
    ) -> Result<(), CoreError> {
        row.clear();
        if let Some(restored) = self.session.restored(index) {
            row.extend_from_slice(restored);
            return Ok(());
        }
        lane.ring.fill(self.library, pending, &mut lane.scratch, &mut lane.tl)?;
        let (lp, decode_ns) = lane.ring.pop().expect("ring holds the current index");
        let sw = Stopwatch::start();
        let machines = self.obs.machines();
        // A machine whose geometry matches the previous one's starts
        // from a copy of that warm hierarchy instead of reconstructing it.
        let mut shared = None;
        for (i, machine) in machines.iter().enumerate() {
            // Fault site `core.sim.point`: simulation faults and worker
            // death (an armed kill here dies inside worker code).
            spectral_faultd::probe("core.sim.point")?;
            let hierarchy = match shared.take() {
                Some(hierarchy) => hierarchy,
                None => warm_hierarchy(&lp, self.program, machine)?,
            };
            if machines.get(i + 1).is_some_and(|next| next.hierarchy == machine.hierarchy) {
                shared = Some(hierarchy.clone());
            }
            row.push(simulate_warm(&lp, self.program, machine, hierarchy)?.cpi());
            TLM_POINTS.inc();
        }
        let simulate_ns = sw.ns();
        TLM_SIMULATE_NS.add(simulate_ns);
        row.extend(self.obs.label(&lp));
        lane.tl.note(ProfilePhase::Simulate, simulate_ns);
        lane.busy_ns += decode_ns + simulate_ns;
        let window = &lp.window;
        let (detail_start, measure_start) = (window.detail_start, window.measure_start);
        let meta = PointMeta { decode_ns, simulate_ns, detail_start, measure_start };
        // The anomaly stream watches the row's first CPI (the base
        // machine of a multi-machine run).
        lane.monitor.observe(index as u64, row[0], &meta);
        self.session.record(index, row)
    }

    /// Push a worker's buffered rows into the shared accumulator, then
    /// emit progress (every merge stride), adapt the chunk size, and
    /// apply the stop rule.
    fn flush(&self, batch: &mut Vec<f64>, lane: &mut Lane) {
        let (obs, policy) = (self.obs, self.policy);
        let mut guard = lane.tl.enter(ProfilePhase::MergeWait);
        let sw = Stopwatch::start();
        let mut shared = self.shared.lock().expect("run lock");
        TLM_LOCK_WAIT_NS.add(sw.ns());
        TLM_MERGES.inc();
        guard.switch(ProfilePhase::Merge);
        let s = &mut *shared;
        for row in batch.chunks_exact(obs.arity()) {
            obs.push(&mut s.acc, row);
            s.n += 1;
        }
        batch.clear();
        if self.batch > 1 || s.n.is_multiple_of(policy.merge_stride.max(1) as u64) {
            emit(obs, &lane.monitor, &s.acc, policy, 0);
        }
        let (rel, done) = obs.status(&s.acc, policy);
        if policy.stop_at_target {
            self.cursor.note_rel_error(rel, policy.target_rel_err);
        }
        if done && s.stop_n.is_none() {
            s.stop_n = Some(s.n);
        }
        if done && policy.stop_at_target {
            self.stop.store(true, Relaxed);
        }
    }
}
