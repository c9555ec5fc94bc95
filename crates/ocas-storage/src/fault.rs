//! Deterministic, seeded fault injection over any [`StorageBackend`].
//!
//! A [`FaultPlan`] is a scriptable schedule: "the `at`-th storage request
//! on device `D` fails with kind `K`". Request indices are counted per
//! device across all operations (alloc/read/write, each *attempt*
//! consumes one index), so a plan replays bit-identically on any backend
//! that issues the same request stream.
//!
//! [`Faulted<B>`](Faulted) is the one injector: it wraps a backend — the
//! simulator or a real one — and applies a plan at the [`StorageBackend`]
//! trait seam, one index per request — each request of a run numbered and
//! handed to the inner backend on its own, whatever the inner backend does
//! with it — recovering where policy allows:
//!
//! * [`FaultKind::Transient`] and short transfers are retried under a
//!   [`RetryPolicy`] with exponential backoff charged to the backend's
//!   clock (simulated seconds on the simulator, wall-accounted seconds on
//!   a real backend);
//! * [`FaultKind::NoSpace`] surfaces as
//!   [`StorageError::NoSpace`] — not retryable, but callers
//!   (external sort, GRACE join) degrade by shrinking spill units or
//!   failing over to an alternate device;
//! * [`FaultKind::Latency`] charges extra seconds and proceeds;
//! * [`FaultKind::TornWriteBack`] is forwarded to the backend's buffer
//!   pool (real backends only): the next write-back of a dirty page on
//!   that device writes only half the page while recording the full
//!   intended checksum, so the tear is *detected* on re-read as a typed
//!   [`StorageError::CorruptPage`] instead of a wrong answer.
//!
//! Every injection, every retry and every degradation is counted once in
//! [`RecoveryCounters`] and emitted once on the `fault:<device>` /
//! `retry:<device>` / `degrade:<device>` observability tracks, recorded on
//! the calling (owning) thread so traces stay deterministic.

use crate::backend::{check_run_bytes, StorageBackend};
use crate::device::DeviceStats;
use crate::manager::{FileId, StorageError};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::BTreeMap;

/// Which storage operation a [`FaultSpec`] matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOp {
    /// Reads, with their bytes or elided.
    Read,
    /// Writes, with their bytes or elided.
    Write,
    /// Extent allocation.
    Alloc,
    /// Any of the above.
    Any,
}

impl FaultOp {
    /// True if a spec declaring `self` fires on a request of kind `op`.
    pub fn matches(self, op: FaultOp) -> bool {
        self == FaultOp::Any || self == op
    }

    /// Stable lower-case name (used in error context and obs counters).
    pub fn name(self) -> &'static str {
        match self {
            FaultOp::Read => "read",
            FaultOp::Write => "write",
            FaultOp::Alloc => "alloc",
            FaultOp::Any => "any",
        }
    }
}

/// What goes wrong when a [`FaultSpec`] fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Transient `EIO`: this attempt fails; a retry re-issues it (the
    /// retry consumes the *next* request index, so a one-shot spec does
    /// not re-fire).
    Transient,
    /// Short read: half the requested bytes move (and are charged), then
    /// the request fails transiently. The retry re-issues the full
    /// idempotent request.
    ShortRead,
    /// Short write: as [`FaultKind::ShortRead`], on the write path.
    ShortWrite,
    /// `ENOSPC`: an allocation fails without reserving space. One-shot —
    /// a degraded (smaller or relocated) allocation consumes a later
    /// index and proceeds.
    NoSpace,
    /// Latency spike: the request succeeds after the given extra seconds
    /// are charged to the clock.
    Latency(f64),
    /// Torn page write-back: the next buffer-pool write-back on the
    /// device persists only half the page. Detected later as
    /// [`StorageError::CorruptPage`] by the per-page checksum. Ignored by
    /// backends without a pool (the simulator holds no data to tear).
    TornWriteBack,
}

impl FaultKind {
    /// Stable lower-case name (used in obs counters and bench rows).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Transient => "transient",
            FaultKind::ShortRead => "short_read",
            FaultKind::ShortWrite => "short_write",
            FaultKind::NoSpace => "no_space",
            FaultKind::Latency(_) => "latency",
            FaultKind::TornWriteBack => "torn_write_back",
        }
    }
}

/// One scheduled fault: fires when the `at`-th request (0-based, counted
/// per device across all operations) on `device` matches `op`.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Device name the spec watches.
    pub device: String,
    /// Operation filter.
    pub op: FaultOp,
    /// Per-device request index at which to fire.
    pub at: u64,
    /// Failure to inject.
    pub kind: FaultKind,
}

/// A deterministic, scriptable schedule of storage faults.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// The scheduled faults. Multiple specs may target the same index;
    /// the first match wins.
    pub specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Builder: schedules `kind` at per-device request index `at` on
    /// `device`, filtered by `op`.
    pub fn with(mut self, device: &str, op: FaultOp, at: u64, kind: FaultKind) -> FaultPlan {
        self.specs.push(FaultSpec {
            device: device.to_string(),
            op,
            at,
            kind,
        });
        self
    }

    /// A deterministic randomized plan for chaos testing: `faults`
    /// entries spread over `devices` within the first `horizon` request
    /// indices. The same `seed` always produces the same plan.
    pub fn randomized(seed: u64, devices: &[&str], faults: usize, horizon: u64) -> FaultPlan {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut plan = FaultPlan::new();
        if devices.is_empty() || horizon == 0 {
            return plan;
        }
        for _ in 0..faults {
            let device = devices[rng.gen_range(0..devices.len())];
            let at = rng.gen_range(0..horizon);
            let (op, kind) = match rng.gen_range(0u32..6) {
                0 => (FaultOp::Any, FaultKind::Transient),
                1 => (FaultOp::Read, FaultKind::ShortRead),
                2 => (FaultOp::Write, FaultKind::ShortWrite),
                3 => (FaultOp::Alloc, FaultKind::NoSpace),
                4 => (
                    FaultOp::Any,
                    FaultKind::Latency(rng.gen_range(0.0001f64..0.01)),
                ),
                _ => (FaultOp::Write, FaultKind::TornWriteBack),
            };
            plan = plan.with(device, op, at, kind);
        }
        plan
    }

    /// True if no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }
}

/// Bounded-retry policy for transient errors: up to `max_attempts` tries
/// per request, sleeping `backoff_seconds * backoff_factor^attempt`
/// between tries — charged to the backend clock, never actually slept.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts per request (1 = no retries).
    pub max_attempts: u32,
    /// Backoff before the first retry, in (charged) seconds.
    pub backoff_seconds: f64,
    /// Multiplier applied per subsequent retry.
    pub backoff_factor: f64,
}

impl Default for RetryPolicy {
    /// Four attempts, 1 ms initial backoff, ×8 per retry (1 ms → 8 ms →
    /// 64 ms): rides out a burst of a few transients without masking a
    /// persistent failure.
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            backoff_seconds: 0.001,
            backoff_factor: 8.0,
        }
    }
}

impl RetryPolicy {
    /// No retries: every transient surfaces immediately.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            backoff_seconds: 0.0,
            backoff_factor: 1.0,
        }
    }

    /// Backoff charged before retry number `retry` (0-based).
    pub fn backoff_for(&self, retry: u32) -> f64 {
        self.backoff_seconds * self.backoff_factor.powi(retry as i32)
    }
}

/// Counters for everything the fault/recovery layer did: injections by
/// kind, retry outcomes, and the degradations callers recorded.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryCounters {
    /// Total faults injected (all kinds).
    pub faults_injected: u64,
    /// Transient `EIO` injections.
    pub transient_faults: u64,
    /// Short read/write injections.
    pub short_transfers: u64,
    /// `ENOSPC` injections.
    pub no_space_faults: u64,
    /// Latency-spike injections.
    pub latency_spikes: u64,
    /// Torn write-backs scheduled.
    pub torn_write_backs: u64,
    /// Retry attempts issued after a transient failure.
    pub retries: u64,
    /// Requests that eventually succeeded after ≥1 retry.
    pub retry_successes: u64,
    /// Requests that exhausted the retry budget.
    pub gave_up: u64,
    /// ENOSPC degradations resolved by shrinking spill units.
    pub degraded_shrinks: u64,
    /// ENOSPC degradations resolved by failing over to another device.
    pub degraded_failovers: u64,
    /// Checksum mismatches detected on page re-read.
    pub corrupt_pages_detected: u64,
}

impl RecoveryCounters {
    /// Adds `other` into `self` field-wise.
    pub fn merge(&mut self, other: &RecoveryCounters) {
        self.faults_injected += other.faults_injected;
        self.transient_faults += other.transient_faults;
        self.short_transfers += other.short_transfers;
        self.no_space_faults += other.no_space_faults;
        self.latency_spikes += other.latency_spikes;
        self.torn_write_backs += other.torn_write_backs;
        self.retries += other.retries;
        self.retry_successes += other.retry_successes;
        self.gave_up += other.gave_up;
        self.degraded_shrinks += other.degraded_shrinks;
        self.degraded_failovers += other.degraded_failovers;
        self.corrupt_pages_detected += other.corrupt_pages_detected;
    }

    /// Records one injection of `kind`.
    pub fn note_fault(&mut self, kind: FaultKind) {
        self.faults_injected += 1;
        match kind {
            FaultKind::Transient => self.transient_faults += 1,
            FaultKind::ShortRead | FaultKind::ShortWrite => self.short_transfers += 1,
            FaultKind::NoSpace => self.no_space_faults += 1,
            FaultKind::Latency(_) => self.latency_spikes += 1,
            FaultKind::TornWriteBack => self.torn_write_backs += 1,
        }
    }

    /// Records a degradation event by its stable name (`"shrink"` /
    /// `"failover"`).
    pub fn note_degradation(&mut self, what: &str) {
        if what.contains("failover") {
            self.degraded_failovers += 1;
        } else {
            self.degraded_shrinks += 1;
        }
    }

    /// Total degradations of either flavor.
    pub fn degradations(&self) -> u64 {
        self.degraded_shrinks + self.degraded_failovers
    }
}

/// The runtime state of a plan: per-device request indices plus the
/// counters. Pure and deterministic — identical request streams produce
/// identical decisions regardless of backend or wall time.
#[derive(Debug, Clone, Default)]
struct FaultState {
    plan: FaultPlan,
    requests: BTreeMap<String, u64>,
    /// Everything injected / recovered so far.
    counters: RecoveryCounters,
}

impl FaultState {
    /// State for `plan` with all request indices at zero.
    fn new(plan: FaultPlan) -> FaultState {
        FaultState {
            plan,
            requests: BTreeMap::new(),
            counters: RecoveryCounters::default(),
        }
    }

    /// Decides the fate of the next request on `device`: consumes one
    /// per-device index (so a retry is judged at the *next* index) and
    /// returns `(index, injected fault)`. Injections are counted and
    /// emitted on the `fault:<device>` obs track at clock position `at`
    /// in `domain`.
    fn on_request(
        &mut self,
        device: &str,
        op: FaultOp,
        domain: ocas_obs::Clock,
        at: f64,
    ) -> (u64, Option<FaultKind>) {
        let idx = self.requests.entry(device.to_string()).or_insert(0);
        let i = *idx;
        *idx += 1;
        let hit = self
            .plan
            .specs
            .iter()
            .find(|s| s.at == i && s.op.matches(op) && s.device == device)
            .map(|s| s.kind);
        if let Some(kind) = hit {
            self.counters.note_fault(kind);
            if ocas_obs::enabled() {
                ocas_obs::counter(domain, &format!("fault:{device}"), kind.name(), at, 1.0);
            }
        }
        (i, hit)
    }

    /// Records one retry on the `retry:<device>` obs track.
    fn note_retry(&mut self, device: &str, domain: ocas_obs::Clock, at: f64) {
        self.counters.retries += 1;
        if ocas_obs::enabled() {
            ocas_obs::counter(domain, &format!("retry:{device}"), "attempt", at, 1.0);
        }
    }
}

/// A [`StorageBackend`] wrapper that injects a [`FaultPlan`] at the trait
/// seam and recovers per [`RetryPolicy`]: the one injector, over the
/// simulator and real backends alike; see the module docs for semantics.
#[derive(Debug)]
pub struct Faulted<B: StorageBackend> {
    inner: B,
    state: FaultState,
    policy: RetryPolicy,
}

impl<B: StorageBackend> Faulted<B> {
    /// Wraps `inner`, applying `plan` under `policy`.
    pub fn new(inner: B, plan: FaultPlan, policy: RetryPolicy) -> Faulted<B> {
        Faulted {
            inner,
            state: FaultState::new(plan),
            policy,
        }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// The wrapped backend, mutably (bypasses injection — setup only).
    pub fn inner_mut(&mut self) -> &mut B {
        &mut self.inner
    }

    /// Unwraps, discarding the fault state.
    pub fn into_inner(self) -> B {
        self.inner
    }

    /// Counters accumulated so far (wrapper injections merged with any
    /// the inner backend tracked itself).
    pub fn counters(&self) -> RecoveryCounters {
        let mut c = self.state.counters;
        if let Some(inner) = self.inner.recovery_counters() {
            c.merge(&inner);
        }
        c
    }

    /// Runs one charged request of `len` bytes on `device` through the
    /// injection + retry machinery. `attempt(inner, take)` issues the
    /// real request for `take` bytes (short transfers re-issue with half
    /// the length to charge the partial work, then fail transiently).
    fn run_charged<T>(
        &mut self,
        device: &str,
        op: FaultOp,
        len: u64,
        mut attempt: impl FnMut(&mut B, u64) -> Result<T, StorageError>,
    ) -> Result<T, StorageError> {
        let domain = self.inner.obs_clock();
        let mut retried = false;
        for try_no in 0..self.policy.max_attempts {
            let (idx, fault) = self
                .state
                .on_request(device, op, domain, self.inner.clock());
            let transient = match fault {
                None => {
                    let out = attempt(&mut self.inner, len)?;
                    if retried {
                        self.state.counters.retry_successes += 1;
                    }
                    return Ok(out);
                }
                Some(FaultKind::Latency(extra)) => {
                    self.inner.charge_penalty(extra);
                    let out = attempt(&mut self.inner, len)?;
                    if retried {
                        self.state.counters.retry_successes += 1;
                    }
                    return Ok(out);
                }
                Some(FaultKind::TornWriteBack) => {
                    // Pool-level fault: schedule it (real backends), then
                    // let the request itself proceed untouched.
                    self.inner.schedule_torn_write_back(device, 0);
                    let out = attempt(&mut self.inner, len)?;
                    if retried {
                        self.state.counters.retry_successes += 1;
                    }
                    return Ok(out);
                }
                Some(FaultKind::NoSpace) => {
                    return Err(StorageError::NoSpace {
                        device: device.to_string(),
                        requested: len,
                    });
                }
                Some(FaultKind::ShortRead | FaultKind::ShortWrite)
                    if len > 1 && op != FaultOp::Alloc =>
                {
                    // Move (and charge) half the request, then fail: the
                    // retry re-issues the full idempotent request.
                    attempt(&mut self.inner, len / 2)?;
                    StorageError::Transient {
                        device: device.to_string(),
                        op: op.name(),
                        request: idx,
                    }
                }
                Some(_) => StorageError::Transient {
                    device: device.to_string(),
                    op: op.name(),
                    request: idx,
                },
            };
            if try_no + 1 >= self.policy.max_attempts {
                self.state.counters.gave_up += 1;
                return Err(transient);
            }
            self.inner.charge_penalty(self.policy.backoff_for(try_no));
            self.state.note_retry(device, domain, self.inner.clock());
            retried = true;
        }
        unreachable!("loop returns before exhausting max_attempts");
    }
}

// A run is answered request by request: every request of a run consumes a
// per-device index and passes through `run_charged` on its own, as a run of
// one, so plans fire at the same index on every backend.
impl<B: StorageBackend> StorageBackend for Faulted<B> {
    fn alloc(&mut self, device: &str, len: u64) -> Result<FileId, StorageError> {
        self.run_charged(device, FaultOp::Alloc, len, |inner, _| {
            inner.alloc(device, len)
        })
    }

    fn read(
        &mut self,
        file: FileId,
        offset: u64,
        unit: u64,
        count: u64,
        mut buf: Option<&mut [u8]>,
    ) -> Result<bool, StorageError> {
        if let Some(buf) = &buf {
            check_run_bytes(unit, count, buf.len());
        }
        if count == 0 {
            return Ok(buf.is_some());
        }
        let device = self.inner.device_of(file).to_string();
        let mut held = true;
        for j in 0..count {
            let (at, from) = (offset + j * unit, (j * unit) as usize);
            held &= self.run_charged(&device, FaultOp::Read, unit, |inner, take| {
                let part = buf
                    .as_deref_mut()
                    .map(|b| &mut b[from..from + take as usize]);
                inner.read(file, at, take, 1, part)
            })?;
        }
        Ok(held && buf.is_some())
    }

    fn write(
        &mut self,
        file: FileId,
        offset: u64,
        unit: u64,
        count: u64,
        data: Option<&[u8]>,
    ) -> Result<(), StorageError> {
        if let Some(data) = data {
            check_run_bytes(unit, count, data.len());
        }
        if count == 0 {
            return Ok(());
        }
        let device = self.inner.device_of(file).to_string();
        for j in 0..count {
            let (at, from) = (offset + j * unit, (j * unit) as usize);
            self.run_charged(&device, FaultOp::Write, unit, |inner, take| {
                let part = data.map(|d| &d[from..from + take as usize]);
                inner.write(file, at, take, 1, part)
            })?;
        }
        Ok(())
    }

    fn materialize(&mut self, file: FileId, offset: u64, data: &[u8]) -> Result<(), StorageError> {
        // Setup path: uncharged, not measured, not faulted.
        self.inner.materialize(file, offset, data)
    }

    fn charge_cpu(&mut self, seconds: f64) {
        self.inner.charge_cpu(seconds)
    }

    fn charge_penalty(&mut self, seconds: f64) {
        self.inner.charge_penalty(seconds)
    }

    fn clock(&self) -> f64 {
        self.inner.clock()
    }

    fn obs_clock(&self) -> ocas_obs::Clock {
        self.inner.obs_clock()
    }

    fn len(&self, file: FileId) -> u64 {
        self.inner.len(file)
    }

    fn device_of(&self, file: FileId) -> &str {
        self.inner.device_of(file)
    }

    fn device_stats(&self, device: &str) -> Option<DeviceStats> {
        self.inner.device_stats(device)
    }

    fn truncate_device(&mut self, device: &str, mark: u64) -> Result<(), StorageError> {
        self.inner.truncate_device(device, mark)
    }

    fn watermark(&self, device: &str) -> Option<u64> {
        self.inner.watermark(device)
    }

    fn page_bytes(&self, device: &str) -> Result<u64, StorageError> {
        self.inner.page_bytes(device)
    }

    fn recovery_counters(&self) -> Option<RecoveryCounters> {
        Some(self.counters())
    }

    /// Counts and traces the degradation here, and only here: the inner
    /// backend's counters are merged into [`Faulted::counters`], so
    /// forwarding would count (and trace) it twice.
    fn note_degradation(&mut self, device: &str, what: &'static str) {
        self.state.counters.note_degradation(what);
        if ocas_obs::enabled() {
            ocas_obs::counter(
                self.inner.obs_clock(),
                &format!("degrade:{device}"),
                what,
                self.inner.clock(),
                1.0,
            );
        }
    }

    fn schedule_torn_write_back(&mut self, device: &str, at: u64) -> bool {
        self.inner.schedule_torn_write_back(device, at)
    }

    fn spill_fallback(&self) -> Option<&str> {
        self.inner.spill_fallback()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::StorageSim;
    use ocas_hierarchy::presets;

    fn sim() -> StorageSim {
        StorageSim::from_hierarchy(&presets::hdd_ram(1 << 25))
    }

    #[test]
    fn clean_plan_is_passthrough() {
        let mut f = Faulted::new(sim(), FaultPlan::new(), RetryPolicy::default());
        let file = f.alloc("HDD", 4096).unwrap();
        f.read(file, 0, 4096, 1, None).unwrap();
        f.write(file, 0, 4096, 1, None).unwrap();
        assert_eq!(f.counters(), RecoveryCounters::default());
    }

    #[test]
    fn transient_is_retried_and_succeeds() {
        // Request indices on HDD: 0 = alloc, 1 = read (faulted), 2 = the
        // retried read.
        let plan = FaultPlan::new().with("HDD", FaultOp::Read, 1, FaultKind::Transient);
        let mut f = Faulted::new(sim(), plan, RetryPolicy::default());
        let file = f.alloc("HDD", 4096).unwrap();
        let clock0 = f.clock();
        f.read(file, 0, 4096, 1, None).unwrap();
        let c = f.counters();
        assert_eq!(c.transient_faults, 1);
        assert_eq!(c.retries, 1);
        assert_eq!(c.retry_successes, 1);
        assert_eq!(c.gave_up, 0);
        // Backoff was charged to the simulated clock.
        assert!(f.clock() - clock0 >= 0.001);
    }

    #[test]
    fn persistent_transient_gives_up_typed() {
        let plan = FaultPlan {
            specs: (0..16)
                .map(|i| FaultSpec {
                    device: "HDD".into(),
                    op: FaultOp::Read,
                    at: i,
                    kind: FaultKind::Transient,
                })
                .collect(),
        };
        let mut f = Faulted::new(sim(), plan, RetryPolicy::default());
        let file = f.alloc("HDD", 4096).unwrap();
        // alloc consumed index 0; reads churn through 1..=4 and give up.
        let err = f.read(file, 0, 4096, 1, None).unwrap_err();
        assert!(matches!(err, StorageError::Transient { ref device, op, .. }
                if device == "HDD" && op == "read"));
        assert!(err.is_transient());
        assert_eq!(f.counters().gave_up, 1);
        assert_eq!(f.counters().retries, 3);
    }

    #[test]
    fn short_read_charges_partial_then_retries() {
        let plan = FaultPlan::new().with("HDD", FaultOp::Read, 1, FaultKind::ShortRead);
        let mut f = Faulted::new(sim(), plan, RetryPolicy::default());
        let file = f.alloc("HDD", 8192).unwrap();
        f.read(file, 0, 8192, 1, None).unwrap();
        let stats = f.device_stats("HDD").unwrap();
        // Half the request moved before the failure; the full retry pays
        // only the tail the HDD read-ahead window doesn't already cover,
        // so total charged bytes equal one clean read.
        assert_eq!(stats.bytes_read, 8192);
        assert_eq!(f.counters().short_transfers, 1);
        assert_eq!(f.counters().retry_successes, 1);
    }

    #[test]
    fn no_space_surfaces_typed_capacity_intact() {
        let plan = FaultPlan::new().with("HDD", FaultOp::Alloc, 1, FaultKind::NoSpace);
        let mut f = Faulted::new(sim(), plan, RetryPolicy::default());
        let a = f.alloc("HDD", 1024).unwrap();
        let before = f.watermark("HDD").unwrap();
        let err = f.alloc("HDD", 2048).unwrap_err();
        assert!(
            matches!(err, StorageError::NoSpace { ref device, requested }
                if device == "HDD" && requested == 2048)
        );
        assert!(err.is_capacity());
        // Nothing was reserved by the failed alloc; the next one works
        // (consumes index 2) and lands at the old watermark.
        assert_eq!(f.watermark("HDD").unwrap(), before);
        let b = f.alloc("HDD", 2048).unwrap();
        assert_ne!(a, b);
        assert_eq!(f.counters().no_space_faults, 1);
    }

    #[test]
    fn latency_spike_charges_clock_and_succeeds() {
        let plan = FaultPlan::new().with("HDD", FaultOp::Write, 1, FaultKind::Latency(0.25));
        let mut f = Faulted::new(sim(), plan, RetryPolicy::default());
        let file = f.alloc("HDD", 4096).unwrap();
        let clock0 = f.clock();
        f.write(file, 0, 4096, 1, None).unwrap();
        assert!(f.clock() - clock0 >= 0.25);
        assert_eq!(f.counters().latency_spikes, 1);
        assert_eq!(f.counters().retries, 0);
    }

    #[test]
    fn randomized_plans_are_seed_deterministic() {
        let a = FaultPlan::randomized(42, &["HDD", "SSD"], 8, 100);
        let b = FaultPlan::randomized(42, &["HDD", "SSD"], 8, 100);
        let c = FaultPlan::randomized(43, &["HDD", "SSD"], 8, 100);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.specs.len(), 8);
        assert!(a.specs.iter().all(|s| s.at < 100));
    }

    #[test]
    fn degradation_notes_flow_to_counters() {
        let mut f = Faulted::new(sim(), FaultPlan::new(), RetryPolicy::default());
        f.note_degradation("HDD", "shrink");
        f.note_degradation("HDD", "failover");
        let c = f.counters();
        assert_eq!(c.degraded_shrinks, 1);
        assert_eq!(c.degraded_failovers, 1);
        assert_eq!(c.degradations(), 2);
    }
}
