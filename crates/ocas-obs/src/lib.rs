//! A zero-dependency tracing and metrics layer for the OCAS workspace.
//!
//! The repo's argument is a *cost attribution* claim — synthesized
//! programs win because seek/transfer seconds on a device hierarchy are
//! predicted and minimized — so the instrumentation has to say where
//! inside a search level or an operator pipeline the bytes and seconds
//! went, on **two clock domains at once**:
//!
//! * [`Clock::Sim`] — simulated seconds (or another deterministic axis,
//!   such as programs explored for the synthesis search). Events on this
//!   clock are bit-identical across runs and worker counts, which is what
//!   makes traces diffable and lets CI gate counter totals exactly.
//! * [`Clock::Wall`] — wall-clock seconds since [`start`], for the real
//!   I/O backend and the pipelined cost workers.
//!
//! The recorder is a **thread-local subscriber**, off by default. Every
//! public entry point starts with one thread-local boolean load, so the
//! instrumentation can be compiled in everywhere and left in hot loops:
//! a disabled probe costs a few nanoseconds (pinned by a test in
//! `ocas-bench`). There are no atomics, locks or globals — a recorder
//! belongs to the thread that [`start`]ed it, and multi-threaded layers
//! (the synthesizer's cost workers) measure locally and *record* on the owning
//! thread during their deterministic merge, which is also what keeps
//! traces independent of the worker count. A worker that runs a whole job
//! for its owner (the real run's simulator twin) records with the owner's
//! [`cap`] instead, and the owner [`absorb`]s that trace after the join,
//! folding it through the same cap as if it had recorded the calls itself.
//!
//! Recording is bounded: beyond a per-`(track, name)` cap (default
//! [`DEFAULT_EVENT_CAP`]), further occurrences fold into the last
//! retained event — durations and argument values keep summing, so
//! *attribution totals stay exact* while a 10-million-request run stays
//! a few thousand events.
//!
//! Exports: [`Trace::to_chrome_json`] (Chrome trace-event JSON — load in
//! Perfetto or `chrome://tracing`), [`Trace::metrics`] (flat counter and
//! span-seconds totals for `BENCH_results.json`), and
//! [`Trace::deterministic_view`] (the [`Clock::Sim`] event sequence,
//! used by the worker-count invariance tests).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod export;

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// Which clock domain an event's `start`/`dur` live on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Clock {
    /// Deterministic simulated seconds (or another deterministic axis).
    Sim,
    /// Wall-clock seconds since [`start`].
    Wall,
}

/// Span (an interval) or counter (a delta at an instant).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// An interval `[start, start + dur)` on its clock.
    Span,
    /// A value delta at instant `start` (`dur` is 0).
    Counter,
}

/// One recorded event. Events beyond the per-`(track, name)` cap merge
/// into the last retained event of that pair: `dur` and `args` values
/// keep accumulating and [`Event::merged`] counts the folded occurrences,
/// so totals remain exact.
#[derive(Debug, Clone)]
pub struct Event {
    /// Position in the recording sequence (equals the event's index).
    pub id: u64,
    /// Span or counter.
    pub kind: EventKind,
    /// Clock domain of `start`/`dur`.
    pub clock: Clock,
    /// Index into [`Trace::tracks`].
    pub track: u16,
    /// Event name (span name, or counter series name).
    pub name: &'static str,
    /// Start instant (seconds on `clock`).
    pub start: f64,
    /// Duration in seconds (spans) or 0 (counters).
    pub dur: f64,
    /// Numeric attributes; for counters, `[(name, delta)]`.
    pub args: Vec<(&'static str, f64)>,
    /// How many further occurrences were folded into this event.
    pub merged: u64,
}

/// A finished recording: interned track names plus the event list.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Track names, indexed by [`Event::track`].
    pub tracks: Vec<String>,
    /// Events in recording order.
    pub events: Vec<Event>,
}

/// Flat totals extracted from a [`Trace`] (the `bench_json` `obs`
/// section). Keys are `"track/name"`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    /// Counter totals (sum of deltas).
    pub counters: BTreeMap<String, f64>,
    /// Summed span seconds on the simulated clock.
    pub sim_span_seconds: BTreeMap<String, f64>,
    /// Summed span seconds on the wall clock.
    pub wall_span_seconds: BTreeMap<String, f64>,
    /// Total recorded occurrences (retained events plus merged folds).
    pub events: u64,
}

/// Default per-`(track, name)` retained-event cap.
pub const DEFAULT_EVENT_CAP: u64 = 4096;

struct Recorder {
    epoch: Instant,
    cap: u64,
    tracks: Vec<String>,
    track_ids: HashMap<String, u16>,
    events: Vec<Event>,
    /// `(track, name, is_span)` → (events recorded so far, last retained
    /// event index).
    keys: HashMap<(u16, &'static str, bool), (u64, usize)>,
}

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Installs a fresh recorder on this thread with the default event cap,
/// replacing (and discarding) any active one.
pub fn start() {
    start_with_cap(DEFAULT_EVENT_CAP);
}

/// [`start`] with an explicit per-`(track, name)` retained-event cap
/// (minimum 1).
pub fn start_with_cap(cap: u64) {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            epoch: Instant::now(),
            cap: cap.max(1),
            tracks: Vec::new(),
            track_ids: HashMap::new(),
            events: Vec::new(),
            keys: HashMap::new(),
        });
    });
    ENABLED.with(|e| e.set(true));
}

/// Stops this thread's recorder and returns its trace (`None` if no
/// recorder was active).
pub fn finish() -> Option<Trace> {
    ENABLED.with(|e| e.set(false));
    RECORDER.with(|r| r.borrow_mut().take()).map(|rec| Trace {
        tracks: rec.tracks,
        events: rec.events,
    })
}

/// True when this thread has an active recorder. This is the only cost
/// instrumented code pays when tracing is off: one thread-local load.
#[inline]
pub fn enabled() -> bool {
    ENABLED.with(|e| e.get())
}

/// Wall seconds since this thread's recorder was [`start`]ed (0.0 when
/// disabled). Pair with [`Clock::Wall`] spans.
#[inline]
pub fn wall_now() -> f64 {
    if !enabled() {
        return 0.0;
    }
    RECORDER.with(|r| {
        r.borrow()
            .as_ref()
            .map_or(0.0, |rec| rec.epoch.elapsed().as_secs_f64())
    })
}

/// Records a span of `dur` seconds starting at `start` on `clock`, on the
/// named track. No-op when disabled.
#[inline]
pub fn span(
    clock: Clock,
    track: &str,
    name: &'static str,
    start: f64,
    dur: f64,
    args: &[(&'static str, f64)],
) {
    if !enabled() {
        return;
    }
    record(EventKind::Span, clock, track, name, start, dur, args);
}

/// Records a counter delta at instant `at` on `clock`. Totals per
/// `(track, name)` are exact regardless of the event cap. No-op when
/// disabled.
#[inline]
pub fn counter(clock: Clock, track: &str, name: &'static str, at: f64, delta: f64) {
    if !enabled() {
        return;
    }
    record(
        EventKind::Counter,
        clock,
        track,
        name,
        at,
        0.0,
        &[(name, delta)],
    );
}

fn record(
    kind: EventKind,
    clock: Clock,
    track: &str,
    name: &'static str,
    start: f64,
    dur: f64,
    args: &[(&'static str, f64)],
) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.push(kind, clock, track, name, start, dur, args, 0);
        }
    });
}

/// The per-`(track, name)` retained-event cap of this thread's recorder
/// (`None` when none is active). A worker recording on this thread's
/// behalf starts its recorder with it ([`start_with_cap`]), so that
/// [`absorb`]ing the worker's trace folds exactly as recording the same
/// calls here would.
pub fn cap() -> Option<u64> {
    if !enabled() {
        return None;
    }
    RECORDER.with(|r| r.borrow().as_ref().map(|rec| rec.cap))
}

/// Appends `trace`, recorded on another thread, to this thread's recorder
/// as if its events had been recorded here, in order: tracks are matched
/// by name, ids continue this recorder's sequence, and every event counts
/// against the per-`(track, name)` cap — an event past it, with the
/// occurrences already folded into it, folds into this recorder's last
/// retained event of its pair. Counts and argument totals are those of the
/// inline recording; a folded sum is added as one term, so float totals may
/// round differently unless their terms are integers, as byte counts are.
/// [`Clock::Wall`] instants stay on the recording thread's epoch. No-op when
/// disabled.
pub fn absorb(trace: &Trace) {
    if !enabled() {
        return;
    }
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let Some(rec) = r.as_mut() else { return };
        for e in &trace.events {
            let track = trace.track(e);
            rec.push(
                e.kind, e.clock, track, e.name, e.start, e.dur, &e.args, e.merged,
            );
        }
    });
}

impl Recorder {
    /// Records one event standing for `1 + merged` occurrences: retained
    /// while its pair is within the cap, else folded into the pair's last
    /// retained event. The pair's count is of events, not occurrences: an
    /// event carries folds only once its pair has reached the cap, and
    /// past it every further event folds whatever the count.
    #[allow(clippy::too_many_arguments)]
    fn push(
        &mut self,
        kind: EventKind,
        clock: Clock,
        track: &str,
        name: &'static str,
        start: f64,
        dur: f64,
        args: &[(&'static str, f64)],
        merged: u64,
    ) {
        let track = match self.track_ids.get(track) {
            Some(&t) => t,
            None => {
                let t = u16::try_from(self.tracks.len()).unwrap_or(u16::MAX);
                self.tracks.push(track.to_string());
                self.track_ids.insert(track.to_string(), t);
                t
            }
        };
        let key = (track, name, kind == EventKind::Span);
        let entry = self.keys.entry(key).or_insert((0, usize::MAX));
        entry.0 += 1;
        if entry.0 > self.cap {
            // Fold into the last retained event of this pair: durations
            // and argument values keep summing, so totals stay exact.
            let e = &mut self.events[entry.1];
            e.dur += dur;
            e.merged += 1 + merged;
            for (k, v) in args {
                match e.args.iter_mut().find(|(n, _)| n == k) {
                    Some((_, total)) => *total += v,
                    None => e.args.push((k, *v)),
                }
            }
            return;
        }
        entry.1 = self.events.len();
        self.events.push(Event {
            id: self.events.len() as u64,
            kind,
            clock,
            track,
            name,
            start,
            dur,
            args: args.to_vec(),
            merged,
        });
    }
}

impl Trace {
    /// The track name of an event.
    pub fn track(&self, e: &Event) -> &str {
        &self.tracks[e.track as usize]
    }

    /// Flat counter and span-seconds totals.
    pub fn metrics(&self) -> Metrics {
        let mut m = Metrics::default();
        for e in &self.events {
            m.events += 1 + e.merged;
            let key = format!("{}/{}", self.track(e), e.name);
            match e.kind {
                EventKind::Counter => {
                    let total = e
                        .args
                        .iter()
                        .find(|(n, _)| *n == e.name)
                        .map_or(0.0, |(_, v)| *v);
                    *m.counters.entry(key).or_insert(0.0) += total;
                }
                EventKind::Span => {
                    let map = match e.clock {
                        Clock::Sim => &mut m.sim_span_seconds,
                        Clock::Wall => &mut m.wall_span_seconds,
                    };
                    *map.entry(key).or_insert(0.0) += e.dur;
                }
            }
        }
        m
    }

    /// The [`Clock::Sim`] event sequence as comparable strings: ids,
    /// tracks, names, timestamps, durations, args and fold counts.
    /// Identical across runs and worker counts by construction (wall
    /// events carry the nondeterminism; they are excluded, but they are
    /// recorded at deterministic sequence positions, so the retained ids
    /// here are stable too).
    pub fn deterministic_view(&self) -> Vec<String> {
        self.events
            .iter()
            .filter(|e| e.clock == Clock::Sim)
            .map(|e| {
                let args: Vec<String> = e.args.iter().map(|(k, v)| format!("{k}={v:?}")).collect();
                format!(
                    "{}|{:?}|{}|{}|{:?}|{:?}|{}|{}",
                    e.id,
                    e.kind,
                    self.track(e),
                    e.name,
                    e.start,
                    e.dur,
                    args.join(","),
                    e.merged
                )
            })
            .collect()
    }

    /// Summed span seconds per track, one clock domain only. The
    /// simulator's device + CPU tracks on [`Clock::Sim`] reconstruct its
    /// reported total seconds (the attribution property the acceptance
    /// test pins).
    pub fn span_seconds_by_track(&self, clock: Clock) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        for e in &self.events {
            if e.kind == EventKind::Span && e.clock == clock {
                *out.entry(self.track(e).to_string()).or_insert(0.0) += e.dur;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_a_no_op() {
        assert!(!enabled());
        span(Clock::Sim, "t", "s", 0.0, 1.0, &[]);
        counter(Clock::Sim, "t", "c", 0.0, 1.0);
        assert_eq!(wall_now(), 0.0);
        assert!(finish().is_none());
    }

    #[test]
    fn spans_and_counters_round_trip() {
        start();
        span(
            Clock::Sim,
            "dev:HDD",
            "read",
            0.5,
            2.0,
            &[("bytes", 4096.0)],
        );
        span(
            Clock::Sim,
            "dev:HDD",
            "read",
            2.5,
            1.0,
            &[("bytes", 1024.0)],
        );
        span(Clock::Wall, "cost-w0", "cost", 0.1, 0.2, &[]);
        counter(Clock::Sim, "pool", "hits", 1.0, 3.0);
        counter(Clock::Sim, "pool", "hits", 2.0, 2.0);
        let t = finish().unwrap();
        assert_eq!(t.events.len(), 5);
        let m = t.metrics();
        assert_eq!(m.events, 5);
        assert_eq!(m.counters["pool/hits"], 5.0);
        assert_eq!(m.sim_span_seconds["dev:HDD/read"], 3.0);
        assert_eq!(m.wall_span_seconds["cost-w0/cost"], 0.2);
        assert_eq!(t.span_seconds_by_track(Clock::Sim)["dev:HDD"], 3.0);
    }

    #[test]
    fn cap_folds_events_but_keeps_totals_exact() {
        start_with_cap(4);
        for i in 0..100 {
            span(
                Clock::Sim,
                "dev:HDD",
                "write",
                i as f64,
                1.0,
                &[("bytes", 8.0)],
            );
            counter(Clock::Sim, "pool", "misses", i as f64, 1.0);
        }
        let t = finish().unwrap();
        // 4 retained per (track, name, kind) pair.
        assert_eq!(t.events.len(), 8);
        let m = t.metrics();
        assert_eq!(m.events, 200);
        assert_eq!(m.sim_span_seconds["dev:HDD/write"], 100.0);
        assert_eq!(m.counters["pool/misses"], 100.0);
        let folded = t.events.iter().map(|e| e.merged).sum::<u64>();
        assert_eq!(folded, 192);
        let bytes: f64 = t
            .events
            .iter()
            .flat_map(|e| e.args.iter())
            .filter(|(n, _)| *n == "bytes")
            .map(|(_, v)| *v)
            .sum();
        assert_eq!(bytes, 800.0);
    }

    #[test]
    fn deterministic_view_excludes_wall_events_but_keeps_ids() {
        start();
        span(Clock::Sim, "search", "level", 0.0, 5.0, &[]);
        span(Clock::Wall, "cost-w1", "cost", 0.01, 0.02, &[]);
        span(Clock::Sim, "search", "level", 5.0, 7.0, &[("level", 1.0)]);
        let t = finish().unwrap();
        let v = t.deterministic_view();
        assert_eq!(v.len(), 2);
        assert!(v[0].starts_with("0|Span|search|level|0.0|5.0"));
        assert!(v[1].starts_with("2|Span|search|level|5.0|7.0"), "{}", v[1]);
    }

    #[test]
    fn restart_replaces_the_recorder() {
        start();
        span(Clock::Sim, "a", "x", 0.0, 1.0, &[]);
        start();
        span(Clock::Sim, "b", "y", 0.0, 1.0, &[]);
        let t = finish().unwrap();
        assert_eq!(t.tracks, vec!["b".to_string()]);
        assert_eq!(t.events.len(), 1);
    }

    /// The calls a worker makes on its owner's behalf: a pair the owner
    /// records too, pushed past the cap, and a track only the worker uses.
    fn worker_calls() {
        for i in 0..10 {
            span(
                Clock::Sim,
                "dev:HDD",
                "read",
                i as f64,
                1.0,
                &[("bytes", 8.0 * i as f64)],
            );
            counter(Clock::Sim, "pool", "misses", i as f64, 2.0);
        }
        span(Clock::Sim, "engine", "sort", 0.0, 10.0, &[("rows", 5.0)]);
    }

    fn owner_calls() {
        for i in 0..3 {
            span(Clock::Sim, "dev:HDD", "read", i as f64, 0.5, &[]);
        }
        counter(Clock::Sim, "pool", "misses", 0.0, 1.0);
    }

    #[test]
    fn absorbing_a_trace_from_another_thread_equals_recording_inline() {
        for cap in [1, 4, 64] {
            start_with_cap(cap);
            owner_calls();
            worker_calls();
            let inline = finish().unwrap();

            start_with_cap(cap);
            owner_calls();
            let owner_cap = super::cap().unwrap();
            let worker = std::thread::spawn(move || {
                assert!(!enabled());
                start_with_cap(owner_cap);
                worker_calls();
                finish().unwrap()
            });
            absorb(&worker.join().unwrap());
            let absorbed = finish().unwrap();

            assert_eq!(absorbed.tracks, inline.tracks, "cap {cap}");
            assert_eq!(
                format!("{:?}", absorbed.events),
                format!("{:?}", inline.events),
                "cap {cap}"
            );
            assert_eq!(absorbed.metrics(), inline.metrics(), "cap {cap}");
        }
        assert_eq!(cap(), None);
        absorb(&Trace::default());
        assert!(finish().is_none());
    }

    #[test]
    fn wall_now_advances() {
        start();
        let a = wall_now();
        let b = wall_now();
        assert!(b >= a && a >= 0.0);
        finish();
    }
}
