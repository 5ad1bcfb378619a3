//! # ramiel-obs
//!
//! Observability for the whole pipeline: lightweight spans and instants
//! that render as a Chrome/Perfetto trace or a plain-text report, per-channel
//! metrics for the cluster executors, and the metric registry behind every
//! Prometheus exposition. [`chrome`] is the one writer of Trace Event JSON and
//! [`Metrics`] the one writer of Prometheus text.
//!
//! Design constraints, in order:
//!
//! 1. **Near-zero cost when disabled.** An [`Obs`] handle is an
//!    `Option<Arc<..>>` plus a pid; every recording method starts with a
//!    `None` check, so the disabled path is one branch and no allocation.
//!    [`Obs::default`] is disabled — production code paths thread an `Obs`
//!    through unconditionally and pay nothing until someone turns it on.
//! 2. **One timebase.** All handles cloned from the same enabled root share
//!    one epoch `Instant`; timestamps are nanoseconds since that epoch, so
//!    compile-stage spans and executor op slices land on a common timeline.
//! 3. **Exporter-friendly.** Events carry explicit `pid`/`tid` tracks with
//!    registered names, mapping 1:1 onto the Chrome trace `process_name` /
//!    `thread_name` metadata that Perfetto uses to label lanes.
//!
//! The crate deliberately knows nothing about graphs, clusters or tensors —
//! `ramiel-runtime` and `ramiel` push their own domain records into it.

pub mod channel;
pub mod chrome;
pub mod metrics;

pub use channel::{ChannelEdgeStats, ChannelMeter};
pub use chrome::{validate_chrome_trace, TraceStats};
pub use metrics::{
    parse_prometheus, quantile_from_buckets, window_buckets, CounterHandle, GaugeHandle,
    HistHandle, Histogram, HistogramSnapshot, Metrics, ParsedSample, PeakHandle,
};

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Event phase, mirroring the Chrome trace phases this crate emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// A span with a duration (`ph: "X"`).
    Complete,
    /// A point-in-time event (`ph: "i"`).
    Instant,
}

/// One recorded event. `ts_ns`/`dur_ns` are nanoseconds since the sink's
/// epoch; `args` is free-form JSON shown by trace viewers.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    pub phase: Phase,
    pub name: String,
    pub cat: &'static str,
    pub pid: u32,
    pub tid: u32,
    pub ts_ns: u64,
    /// Only meaningful for [`Phase::Complete`].
    pub dur_ns: u64,
    /// `serde_json::Value::Null` when the event carries no arguments.
    pub args: serde_json::Value,
}

#[derive(Default)]
struct Tracks {
    processes: BTreeMap<u32, String>,
    threads: BTreeMap<(u32, u32), String>,
}

struct Inner {
    epoch: Instant,
    events: Mutex<Vec<TraceEvent>>,
    tracks: Mutex<Tracks>,
}

/// Handle to an observability sink. Cheap to clone; all clones share the
/// same event buffer and epoch. The `pid` field selects which *process
/// track* this handle records onto (see [`Obs::with_pid`]), letting one
/// sink collect a compile pipeline and several executors side by side.
#[derive(Clone, Default)]
pub struct Obs {
    inner: Option<Arc<Inner>>,
    pid: u32,
}

impl Obs {
    /// A disabled sink: every recording call is a no-op after one branch.
    pub fn disabled() -> Obs {
        Obs::default()
    }

    /// A new enabled sink recording onto process track 0.
    pub fn enabled() -> Obs {
        Obs {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                events: Mutex::new(Vec::new()),
                tracks: Mutex::new(Tracks::default()),
            })),
            pid: 0,
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// A handle onto a different process track of the same sink.
    pub fn with_pid(&self, pid: u32) -> Obs {
        Obs {
            inner: self.inner.clone(),
            pid,
        }
    }

    /// The process track this handle records onto.
    pub fn pid(&self) -> u32 {
        self.pid
    }

    /// Nanoseconds since the sink's epoch (0 when disabled).
    pub fn now_ns(&self) -> u64 {
        match &self.inner {
            Some(i) => i.epoch.elapsed().as_nanos() as u64,
            None => 0,
        }
    }

    /// Name this handle's process track (Perfetto lane group).
    pub fn name_process(&self, name: impl Into<String>) {
        if let Some(i) = &self.inner {
            i.tracks.lock().processes.insert(self.pid, name.into());
        }
    }

    /// Name a thread track within this handle's process.
    pub fn name_thread(&self, tid: u32, name: impl Into<String>) {
        if let Some(i) = &self.inner {
            i.tracks.lock().threads.insert((self.pid, tid), name.into());
        }
    }

    /// Record a complete span from explicit timestamps (both in nanoseconds
    /// since the sink's epoch).
    pub fn complete(
        &self,
        tid: u32,
        name: impl Into<String>,
        cat: &'static str,
        start_ns: u64,
        end_ns: u64,
        args: serde_json::Value,
    ) {
        if let Some(i) = &self.inner {
            i.events.lock().push(TraceEvent {
                phase: Phase::Complete,
                name: name.into(),
                cat,
                pid: self.pid,
                tid,
                ts_ns: start_ns,
                dur_ns: end_ns.saturating_sub(start_ns),
                args,
            });
        }
    }

    /// Record an instantaneous event.
    pub fn instant(
        &self,
        tid: u32,
        name: impl Into<String>,
        cat: &'static str,
        args: serde_json::Value,
    ) {
        if let Some(i) = &self.inner {
            let ts_ns = i.epoch.elapsed().as_nanos() as u64;
            i.events.lock().push(TraceEvent {
                phase: Phase::Instant,
                name: name.into(),
                cat,
                pid: self.pid,
                tid,
                ts_ns,
                dur_ns: 0,
                args,
            });
        }
    }

    /// Start a scoped span; the span records itself when dropped (or when
    /// [`Span::finish`] is called). Disabled sinks hand out inert guards.
    pub fn span(&self, tid: u32, name: impl Into<String>, cat: &'static str) -> Span {
        Span {
            obs: self.clone(),
            tid,
            name: name.into(),
            cat,
            start_ns: self.now_ns(),
            args: serde_json::Value::Null,
        }
    }

    /// Snapshot of every event recorded so far.
    pub fn events(&self) -> Vec<TraceEvent> {
        match &self.inner {
            Some(i) => i.events.lock().clone(),
            None => Vec::new(),
        }
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        match &self.inner {
            Some(i) => i.events.lock().len(),
            None => 0,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub(crate) fn tracks_snapshot(&self) -> (BTreeMap<u32, String>, BTreeMap<(u32, u32), String>) {
        match &self.inner {
            Some(i) => {
                let t = i.tracks.lock();
                (t.processes.clone(), t.threads.clone())
            }
            None => (BTreeMap::new(), BTreeMap::new()),
        }
    }

    /// Export everything as Chrome trace JSON.
    pub fn to_chrome_trace(&self) -> String {
        chrome::export(self)
    }

    /// Render a plain-text summary: per-track span counts and busy time and
    /// instants by category — the "logs" view of the same data the trace
    /// shows.
    pub fn text_report(&self) -> String {
        use std::fmt::Write as _;
        let (procs, threads) = self.tracks_snapshot();
        let events = self.events();
        // (pid, tid) → (span count, busy ns)
        let mut by_track: BTreeMap<(u32, u32), (usize, u64)> = BTreeMap::new();
        let mut instants: BTreeMap<&'static str, usize> = BTreeMap::new();
        for e in &events {
            match e.phase {
                Phase::Complete => {
                    let slot = by_track.entry((e.pid, e.tid)).or_default();
                    slot.0 += 1;
                    slot.1 += e.dur_ns;
                }
                Phase::Instant => *instants.entry(e.cat).or_default() += 1,
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "trace summary ({} events)", events.len());
        let mut last_pid = None;
        for ((pid, tid), (spans, busy)) in &by_track {
            if last_pid != Some(*pid) {
                let pname = procs.get(pid).map(String::as_str).unwrap_or("<unnamed>");
                let _ = writeln!(out, "  process {pid} \"{pname}\"");
                last_pid = Some(*pid);
            }
            let tname = threads
                .get(&(*pid, *tid))
                .map(String::as_str)
                .unwrap_or("<unnamed>");
            let _ = writeln!(
                out,
                "    thread {tid} \"{tname}\": {spans} spans, {:.3} ms busy",
                *busy as f64 / 1e6
            );
        }
        if !instants.is_empty() {
            let cats: Vec<String> = instants.iter().map(|(c, n)| format!("{c}: {n}")).collect();
            let _ = writeln!(out, "  instant events: {}", cats.join(", "));
        }
        out
    }
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("enabled", &self.is_enabled())
            .field("pid", &self.pid)
            .field("events", &self.len())
            .finish()
    }
}

/// Scoped span guard handed out by [`Obs::span`]. Records a complete event
/// over its lifetime; attach arguments with [`Span::set_args`].
pub struct Span {
    obs: Obs,
    tid: u32,
    name: String,
    cat: &'static str,
    start_ns: u64,
    args: serde_json::Value,
}

impl Span {
    /// Attach JSON arguments shown by trace viewers (graph-size deltas,
    /// cluster counts, …).
    pub fn set_args(&mut self, args: serde_json::Value) {
        self.args = args;
    }

    /// End the span now (equivalent to dropping it).
    pub fn finish(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.obs.is_enabled() {
            let end = self.obs.now_ns();
            self.obs.complete(
                self.tid,
                std::mem::take(&mut self.name),
                self.cat,
                self.start_ns,
                end,
                std::mem::take(&mut self.args),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_records_nothing() {
        let obs = Obs::disabled();
        assert!(!obs.is_enabled());
        obs.instant(0, "x", "test", serde_json::Value::Null);
        {
            let _sp = obs.span(0, "span", "test");
        }
        assert!(obs.is_empty());
        assert_eq!(obs.now_ns(), 0);
    }

    #[test]
    fn span_guard_records_complete_event() {
        let obs = Obs::enabled();
        {
            let mut sp = obs.span(3, "work", "stage");
            sp.set_args(serde_json::json!({"n": 7}));
        }
        let events = obs.events();
        assert_eq!(events.len(), 1);
        let e = &events[0];
        assert_eq!(e.phase, Phase::Complete);
        assert_eq!(e.name, "work");
        assert_eq!(e.tid, 3);
        assert_eq!(e.args["n"].as_u64(), Some(7));
    }

    #[test]
    fn with_pid_shares_the_buffer() {
        let root = Obs::enabled();
        let a = root.with_pid(1);
        let b = root.with_pid(2);
        a.instant(0, "ea", "test", serde_json::Value::Null);
        b.instant(0, "eb", "test", serde_json::Value::Null);
        let events = root.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].pid, 1);
        assert_eq!(events[1].pid, 2);
    }

    #[test]
    fn text_report_mentions_tracks() {
        let obs = Obs::enabled();
        obs.name_process("p");
        obs.name_thread(0, "t");
        {
            let _sp = obs.span(0, "s", "stage");
        }
        let report = obs.text_report();
        assert!(report.contains("process 0 \"p\""));
        assert!(report.contains("thread 0 \"t\": 1 spans"));
    }
}
