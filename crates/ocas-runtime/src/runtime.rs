//! The runtime entry point: execute one physical plan for real, with a
//! twin simulated run, beside it on a worker thread, for side-by-side
//! seconds.

use crate::backend::{FileBackend, PoolConfig};
use crate::pool::PoolStats;
use ocas_engine::{
    CpuModel, ExecError, ExecStats, Executor, Mode, Output, Plan, RelSpec, Relation, RowBuf, RowGen,
};
use ocas_hierarchy::Hierarchy;
use ocas_storage::{DeviceStats, RecoveryCounters, StorageBackend, StorageError, StorageSim};
use std::panic::{self, AssertUnwindSafe};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Instant;

/// Runtime failures.
#[derive(Debug)]
pub enum RuntimeError {
    /// Engine-level failure (either backend).
    Exec(ExecError),
    /// Storage-level failure.
    Storage(StorageError),
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::Exec(e) => write!(f, "execution: {e}"),
            RuntimeError::Storage(e) => write!(f, "storage: {e}"),
        }
    }
}

impl std::error::Error for RuntimeError {}

impl From<ExecError> for RuntimeError {
    fn from(e: ExecError) -> Self {
        RuntimeError::Exec(e)
    }
}
impl From<StorageError> for RuntimeError {
    fn from(e: StorageError) -> Self {
        RuntimeError::Storage(e)
    }
}

/// Scope guard over the devices a run allocates on: snapshots their
/// allocation watermarks at entry so the error path can roll everything
/// back. [`Runtime::execute`] calls [`SpillGuard::cleanup`] on failure —
/// each device is truncated to its entry mark, so a failed run leaves no
/// spill extents or output extent behind. The success path simply drops
/// the guard: outputs are harvested after the measured window and must
/// survive.
struct SpillGuard {
    marks: Vec<(String, u64)>,
}

impl SpillGuard {
    /// Marks the devices `plan` can allocate on: its spill device (a sort's
    /// `scratch`, a GRACE join's `spill`), the backend's fallback and a
    /// device-bound output's device.
    fn new(fb: &impl StorageBackend, plan: &Plan) -> SpillGuard {
        let spill = match plan {
            Plan::ExternalSort { scratch, .. } => Some(scratch.as_str()),
            Plan::GraceJoin { spill, .. } => Some(spill.as_str()),
            _ => None,
        };
        let output = match plan.output() {
            Output::ToDevice { device, .. } => Some(device.as_str()),
            Output::Discard => None,
        };
        let mut marks: Vec<(String, u64)> = Vec::new();
        for d in [spill, fb.spill_fallback(), output].into_iter().flatten() {
            if !marks.iter().any(|(name, _)| name == d) {
                marks.push((d.to_string(), fb.watermark(d).unwrap_or(0)));
            }
        }
        SpillGuard { marks }
    }

    fn cleanup(self, fb: &mut impl StorageBackend) {
        for (device, mark) in &self.marks {
            let _ = fb.truncate_device(device, *mark);
        }
    }
}

/// What one real execution measured, next to its simulated twin.
#[derive(Debug)]
pub struct RealReport {
    /// Wall-clock seconds of the real execution, including dirty-page
    /// write-back and sync (input materialization and result harvesting
    /// stay outside the window).
    pub wall_seconds: f64,
    /// Wall-clock seconds spent inside charged I/O requests.
    pub io_seconds: f64,
    /// Simulated seconds of the identical plan on the device simulator,
    /// over simulator extents served by the real run's generators
    /// ([`Relation::twin`]: the same rows as generating them again).
    pub sim_seconds: f64,
    /// Output rows of the real execution, one flat batch. A device-bound
    /// output is read back from its device after the measured window
    /// ([`Runtime::harvest`]), in its layout
    /// ([`ExecStats::output_layout`]); one that cannot be (more than the
    /// executor's 1 GiB output window) is left empty.
    pub output: RowBuf,
    /// Output rows of the simulated faithful twin.
    pub sim_output: RowBuf,
    /// High-water mark of resident tuple bytes of the real execution:
    /// [`ExecStats::peak_resident_bytes`] of the executor — for an external
    /// sort its batch, run cursors and output batch, for a GRACE join its
    /// build bucket, one probe extent and the sink's staging.
    pub peak_resident_bytes: Option<u64>,
    /// Per-device I/O counters of the real execution.
    pub real_devices: Vec<(String, DeviceStats)>,
    /// Per-device I/O counters of the simulated twin.
    pub sim_devices: Vec<(String, DeviceStats)>,
    /// Per-device buffer-pool statistics of the real execution.
    pub pools: Vec<(String, PoolStats)>,
    /// True when at least one device of the real execution ran with
    /// `O_DIRECT` engaged (only possible in
    /// [`crate::TimingMode::DiskBounded`] on a filesystem that supports
    /// it). The nightly CI disk-bounded job asserts this so the fallback
    /// path cannot silently become the only path exercised.
    pub direct_io: bool,
    /// Fault-injection and recovery counters of the real execution
    /// (`None` when the run neither injected faults nor degraded).
    pub recovery: Option<RecoveryCounters>,
}

impl RealReport {
    /// True when real and simulated outputs agree row-for-row.
    pub fn outputs_match(&self) -> bool {
        self.output == self.sim_output
    }
}

/// Executes plans against real temp files, and their simulated twins on a
/// worker thread of the calling thread's own ([`Runtime::run_plan`]).
#[derive(Debug, Clone)]
pub struct Runtime {
    /// Target hierarchy: devices become files, sizes become capacities.
    pub hierarchy: Hierarchy,
    /// Buffer-pool configuration for the real backend.
    pub pool: PoolConfig,
}

impl Runtime {
    /// A runtime for a hierarchy with default pool settings.
    pub fn new(hierarchy: Hierarchy) -> Runtime {
        Runtime {
            hierarchy,
            pool: PoolConfig::default(),
        }
    }

    /// Overrides the buffer-pool configuration, builder style.
    pub fn with_pool(mut self, pool: PoolConfig) -> Runtime {
        self.pool = pool;
        self
    }

    /// Executes `plan` over `rels` on real files: the generic executor in
    /// faithful mode, on the rows its block reads return — every template,
    /// the external sort's runs and the GRACE join's buckets included, is
    /// the code its simulator twin runs. A plan with a parameter no
    /// execution can honour is rejected before any request
    /// ([`Plan::validate`]). A device-bound output is not collected while
    /// the plan runs: [`Runtime::harvest`] reads it back afterwards, outside
    /// whatever the caller measures.
    ///
    /// The backend is handed back whatever happened. After a failure every
    /// device is at its entry watermark. Any backend will do: a faulted
    /// real run is this over [`Faulted<FileBackend>`](ocas_storage::Faulted),
    /// the injector the simulator runs under too.
    ///
    /// ```
    /// use ocas_engine::{Output, Plan, RelSpec, Relation};
    /// use ocas_hierarchy::presets;
    /// use ocas_runtime::{FileBackend, PoolConfig, Runtime};
    /// use ocas_storage::{FaultKind, FaultOp, FaultPlan, Faulted, RetryPolicy, StorageBackend};
    ///
    /// let h = presets::two_hdd_ram(1 << 22);
    /// // `HDD2` holds nothing but the sort's runs: its request 0 is the
    /// // first run's allocation, refused once (the sort shrinks the run),
    /// // and its request 4 a write that fails once (and is retried).
    /// let faults = FaultPlan::new()
    ///     .with("HDD2", FaultOp::Alloc, 0, FaultKind::NoSpace)
    ///     .with("HDD2", FaultOp::Write, 4, FaultKind::Transient);
    /// let fb = FileBackend::from_hierarchy(&h, PoolConfig::default())?;
    /// let mut fb = Faulted::new(fb, faults, RetryPolicy::default());
    /// let rel = Relation::create(&mut fb, &RelSpec::ints("A", "HDD", 1_500), true, 11)?;
    ///
    /// let sort = Plan::ExternalSort {
    ///     input: 0,
    ///     fan_in: 4,
    ///     b_in: 64,
    ///     b_out: 128,
    ///     scratch: "HDD2".into(),
    ///     output: Output::Discard,
    /// };
    /// let (fb, run) = Runtime::execute(fb, &[rel], &sort);
    /// let rows = run?.output.expect("collected");
    /// assert_eq!(rows.len(), 1_500);
    /// assert!(rows.is_sorted());
    ///
    /// let rec = fb.recovery_counters().expect("the injector counts");
    /// assert_eq!((rec.no_space_faults, rec.transient_faults), (1, 1));
    /// assert_eq!((rec.degraded_shrinks, rec.retry_successes), (1, 1));
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn execute<B: StorageBackend>(
        fb: B,
        rels: &[Relation],
        plan: &Plan,
    ) -> (B, Result<ExecStats, RuntimeError>) {
        let guard = SpillGuard::new(&fb, plan);
        let collect = matches!(plan.output(), Output::Discard);
        let mut ex =
            Executor::new(fb, Mode::Faithful, CpuModel::disabled()).with_output_collection(collect);
        ex.rels = rels.to_vec();
        let stats = ex.run(plan);
        let mut fb = ex.sm;
        let stats = stats.map_err(|e| {
            guard.cleanup(&mut fb);
            e.into()
        });
        (fb, stats)
    }

    /// The output rows of a run on `fb`: the collected ones, or else those
    /// read back (uncharged) from the extent a device-bound output was
    /// written to — none when it has no such extent
    /// ([`ExecStats::output_extent`]).
    pub fn harvest(fb: &mut FileBackend, stats: ExecStats) -> Result<RowBuf, StorageError> {
        let layout = stats.output_layout;
        match (stats.output, stats.output_extent) {
            (Some(rows), _) => Ok(rows),
            (None, Some((file, bytes))) => {
                let mut buf = vec![0; bytes as usize];
                fb.peek(file, 0, &mut buf)?;
                Ok(layout.decode(&buf))
            }
            (None, None) => Ok(RowBuf::new(layout.width())),
        }
    }

    /// Runs `plan` for real against temp files and, at the same time, the
    /// identical plan faithfully on the device simulator, and reports both.
    ///
    /// `rel_specs` are instantiated in order (plan relation indices refer
    /// to that order) with per-relation seeds `seed + index`: each
    /// relation's [`RowGen`] is built once and shared. The simulator twin —
    /// a fresh [`StorageSim`], a faithful executor and
    /// [twin relations](Relation::twin) over those generators, allocated in
    /// `rel_specs` order — goes to the calling thread's twin worker before
    /// the files are written ([`Relation::generated`]); this thread then
    /// creates the files, executes, flushes and harvests, and joins the
    /// twin last. So the real run computes on what its files hold and the
    /// twin on the generators' rows, and [`RealReport::outputs_match`]
    /// compares the two.
    ///
    /// The worker is one long-lived thread per calling thread, started by
    /// its first `run_plan` and ended when that thread exits; it runs one
    /// twin at a time, so a run never overlaps the previous call's twin.
    /// A real-run error is returned whatever the twin did; otherwise a twin
    /// error is. A twin panic is resumed on the calling thread. While this
    /// thread records an [`ocas_obs`] trace, the twin records on the worker
    /// with the same cap, and its events are [absorbed](ocas_obs::absorb)
    /// after the real run's, as if the twin had run here afterwards.
    pub fn run_plan(
        &self,
        plan: &Plan,
        rel_specs: &[RelSpec],
        seed: u64,
    ) -> Result<RealReport, RuntimeError> {
        let gens: Vec<Arc<RowGen>> = rel_specs
            .iter()
            .zip(seed..)
            .map(|(spec, seed)| Arc::new(RowGen::from_spec(spec, seed)))
            .collect();
        let twin = Twin::start(&self.hierarchy, plan, rel_specs, &gens);
        let real = self.run_real(plan, rel_specs, gens);
        let (twin, trace) = twin.join();
        let mut report = real?;
        // The twin's events follow the real run's, as if it had run here
        // afterwards; a failed real run records no twin.
        if let Some(trace) = trace {
            ocas_obs::absorb(&trace);
        }
        let twin = twin?;
        report.sim_seconds = twin.seconds;
        report.sim_output = twin.output;
        report.sim_devices = twin.devices;
        Ok(report)
    }

    /// The real half of [`Runtime::run_plan`]: files written from `gens`,
    /// the measured run, then the uncharged harvest. The twin's fields are
    /// left empty.
    fn run_real(
        &self,
        plan: &Plan,
        rel_specs: &[RelSpec],
        gens: Vec<Arc<RowGen>>,
    ) -> Result<RealReport, RuntimeError> {
        let mut fb = FileBackend::from_hierarchy(&self.hierarchy, self.pool)?;
        let mut rels = Vec::new();
        for (spec, gen) in rel_specs.iter().zip(gens) {
            rels.push(Relation::generated(&mut fb, spec, gen)?);
        }
        let t0 = Instant::now();
        let (mut fb, run) = Self::execute::<FileBackend>(fb, &rels, plan);
        let run = run?;
        // Write-back and sync belong to the measured run: without this,
        // outputs small enough to sit in the buffer pools would be "free".
        fb.flush()?;
        let wall_seconds = t0.elapsed().as_secs_f64();

        // Harvest (uncharged, outside the measured window): device-bound
        // runs read their output extent back for verification.
        let peak_resident_bytes = Some(run.peak_resident_bytes);
        let output = Self::harvest(&mut fb, run)?;
        Ok(RealReport {
            wall_seconds,
            io_seconds: fb.clock(),
            sim_seconds: 0.0,
            output,
            sim_output: RowBuf::default(),
            peak_resident_bytes,
            real_devices: fb.all_device_stats(),
            sim_devices: Vec::new(),
            pools: fb.pool_stats(),
            direct_io: fb.any_direct(),
            recovery: fb.recovery_counters(),
        })
    }
}

/// What the simulator twin of a real run reports.
struct TwinReport {
    seconds: f64,
    output: RowBuf,
    devices: Vec<(String, DeviceStats)>,
}

/// What comes back from the worker: the twin's outcome (`Err` holds a
/// panic's payload) and, when the caller was recording, its trace.
type TwinDone = (
    thread::Result<Result<TwinReport, RuntimeError>>,
    Option<ocas_obs::Trace>,
);

/// A simulator twin running on the calling thread's worker.
struct Twin(mpsc::Receiver<TwinDone>);

impl Twin {
    /// Queues the twin of `plan` over `specs` on this thread's worker.
    fn start(h: &Hierarchy, plan: &Plan, specs: &[RelSpec], gens: &[Arc<RowGen>]) -> Twin {
        let (h, plan, specs, gens) = (h.clone(), plan.clone(), specs.to_vec(), gens.to_vec());
        let cap = ocas_obs::cap();
        let (done, answer) = mpsc::sync_channel(1);
        let job = move || {
            if let Some(cap) = cap {
                ocas_obs::start_with_cap(cap);
            }
            let run = panic::catch_unwind(AssertUnwindSafe(|| Twin::run(&h, &plan, &specs, gens)));
            // Stops the worker's recorder after a panic too.
            let trace = ocas_obs::finish();
            // The caller may be gone (it panicked); nobody needs the answer.
            let _ = done.send((run, trace));
        };
        TWIN_WORKER.with(|w| w.submit(Box::new(job)));
        Twin(answer)
    }

    /// Waits for the twin and returns its outcome and, when the caller was
    /// recording, its trace. A panic on the worker is resumed here.
    fn join(self) -> (Result<TwinReport, RuntimeError>, Option<ocas_obs::Trace>) {
        let (run, trace) = self.0.recv().expect("the twin worker answers");
        let run = run.unwrap_or_else(|payload| panic::resume_unwind(payload));
        (run, trace)
    }

    /// The twin itself: a fresh simulator, a faithful executor with the
    /// default CPU model, and twin relations over `gens`.
    fn run(
        h: &Hierarchy,
        plan: &Plan,
        specs: &[RelSpec],
        gens: Vec<Arc<RowGen>>,
    ) -> Result<TwinReport, RuntimeError> {
        let sm = StorageSim::from_hierarchy(h);
        let mut ex = Executor::new(sm, Mode::Faithful, CpuModel::default());
        for (spec, gen) in specs.iter().zip(gens) {
            let rel = Relation::twin(&mut ex.sm, spec, gen)?;
            ex.add_relation(rel);
        }
        let stats = ex.run(plan)?;
        let devices = h
            .ids()
            .filter_map(|id| {
                let name = &h.node(id).name;
                ex.sm.device_stats(name).map(|s| (name.clone(), s))
            })
            .collect();
        Ok(TwinReport {
            seconds: stats.seconds,
            output: stats.output.unwrap_or_default(),
            devices,
        })
    }
}

type Job = Box<dyn FnOnce() + Send>;

/// One long-lived thread that runs its owner thread's twins, in order.
/// Dropped with its owner's thread-locals: closing the queue ends the
/// worker's loop, and the drop waits for it.
struct TwinWorker {
    jobs: Option<mpsc::Sender<Job>>,
    thread: Option<thread::JoinHandle<()>>,
}

impl TwinWorker {
    fn spawn() -> TwinWorker {
        let (jobs, queue) = mpsc::channel::<Job>();
        let thread = thread::Builder::new()
            .name("ocas-twin".into())
            .spawn(move || queue.into_iter().for_each(|job| job()))
            .expect("spawn the twin worker");
        TwinWorker {
            jobs: Some(jobs),
            thread: Some(thread),
        }
    }

    fn submit(&self, job: Job) {
        let jobs = self.jobs.as_ref().expect("the queue is open until drop");
        jobs.send(job).expect("the twin worker is running");
    }
}

impl Drop for TwinWorker {
    fn drop(&mut self) {
        drop(self.jobs.take());
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

thread_local! {
    /// The calling thread's twin worker, spawned by its first `run_plan`.
    static TWIN_WORKER: TwinWorker = TwinWorker::spawn();
}
