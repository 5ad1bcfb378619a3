//! Lock-free metrics: log-bucketed histograms, counters, gauges, and a
//! registry that renders Prometheus text exposition.
//!
//! Same cost discipline as [`crate::Obs`]: every handle is an
//! `Option<Arc<..>>`, so the disabled path is one branch and no allocation,
//! and the enabled hot path is a handful of relaxed atomic ops — no locks,
//! no heap traffic. The registry's mutex is touched only at *registration*
//! (once per series, at startup) and at *render* and [`Metrics::read`]
//! time, never while recording.
//!
//! ## Bucket scheme
//!
//! Histograms use log-linear bucketing with [`SUB_BITS`] = 3, i.e. eight
//! sub-buckets per power of two:
//!
//! - values `0..16` land in exact singleton buckets (`index == value`);
//! - a value `v >= 16` with highest set bit `h` lands in
//!   `((h - 3) << 3) + ((v >> (h - 3)) & 7) + 8`.
//!
//! Every `u64` maps into one of [`NUM_BUCKETS`] = 496 fixed buckets, bucket
//! width is at most `lower / 8`, so any quantile read from a snapshot is
//! within 12.5% relative error of the exact sorted-sample quantile (and
//! exact below 16 — batch sizes, queue depths). Buckets are plain
//! `AtomicU64`s: snapshots are cheap copies and two snapshots from sharded
//! histograms [`HistogramSnapshot::merge`] into exactly what one histogram
//! recording the union would hold.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Duration;

/// log2 of the number of sub-buckets per octave.
pub const SUB_BITS: u32 = 3;
const SUB: usize = 1 << SUB_BITS;
/// Values below this are their own singleton bucket.
const LINEAR_MAX: u64 = 1 << (SUB_BITS + 1);
/// Total fixed bucket count; covers all of `u64`.
pub const NUM_BUCKETS: usize = 496;

/// Bucket index for a recorded value. Monotone in `v`; exact for
/// `v < 16`, at most 12.5% wide above.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < LINEAR_MAX {
        v as usize
    } else {
        let h = 63 - v.leading_zeros();
        let sub = ((v >> (h - SUB_BITS)) & (SUB as u64 - 1)) as usize;
        (((h - SUB_BITS) as usize) << SUB_BITS) + sub + SUB
    }
}

/// Inclusive `(lower, upper)` value range of a bucket. The upper bound is
/// what exposition reports as the Prometheus `le` edge (cumulative counts
/// through bucket `i` are exactly "samples `<= upper(i)`").
#[inline]
pub fn bucket_bounds(index: usize) -> (u64, u64) {
    assert!(index < NUM_BUCKETS, "bucket index out of range");
    if (index as u64) < LINEAR_MAX {
        return (index as u64, index as u64);
    }
    let h = SUB_BITS + ((index - SUB) >> SUB_BITS) as u32;
    let sub = ((index - SUB) & (SUB - 1)) as u64;
    let lower = (SUB as u64 + sub) << (h - SUB_BITS);
    let width = 1u64 << (h - SUB_BITS);
    (lower, lower + (width - 1))
}

/// Fixed-size, allocation-free-on-record histogram. ~4 KiB of atomics;
/// share it behind an `Arc` (or a [`HistHandle`]) and record from any
/// thread.
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; NUM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Record one observation: four relaxed atomic RMWs, no branches
    /// beyond the bucket-index computation, no allocation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Relaxed);
        self.count.fetch_add(1, Relaxed);
        self.sum.fetch_add(v, Relaxed);
        self.max.fetch_max(v, Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Relaxed)
    }

    /// Point-in-time copy. Concurrent recording keeps running; the copy is
    /// not atomic across buckets but each bucket is individually exact.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.load(Relaxed),
            sum: self.sum.load(Relaxed),
            max: self.max.load(Relaxed),
            buckets: self.buckets.iter().map(|b| b.load(Relaxed)).collect(),
        }
    }
}

/// Owned copy of a histogram's state: mergeable, queryable for quantiles.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    pub max: u64,
    buckets: Vec<u64>,
}

impl Default for HistogramSnapshot {
    fn default() -> HistogramSnapshot {
        HistogramSnapshot {
            count: 0,
            sum: 0,
            max: 0,
            buckets: vec![0; NUM_BUCKETS],
        }
    }
}

impl HistogramSnapshot {
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Count recorded into one bucket.
    pub fn bucket(&self, index: usize) -> u64 {
        self.buckets[index]
    }

    /// `(bucket index, count)` for every non-empty bucket, ascending.
    pub fn nonzero(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
    }

    /// The `q`-quantile (`0.0 ..= 1.0`). Returns the upper bound of the
    /// bucket holding the rank-`ceil(q * count)` sample, clamped to the
    /// observed max — so the result lands in the same bucket as the exact
    /// sorted-sample quantile and `percentile(1.0) == max`.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return bucket_bounds(i).1.min(self.max);
            }
        }
        self.max
    }

    /// Bucket-wise accumulate: after merging shard snapshots, the result
    /// equals the snapshot of one histogram that recorded the union.
    /// `sum` wraps on overflow, exactly like the recording path's atomic
    /// `fetch_add`.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count = self.count.wrapping_add(other.count);
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
        for (dst, src) in self.buckets.iter_mut().zip(&other.buckets) {
            *dst += src;
        }
    }
}

/// Windowed high-water mark: `observe` raises both the current window's
/// peak and the lifetime peak; taking the window resets only the former.
#[derive(Default)]
pub struct PeakGauge {
    window: AtomicU64,
    lifetime: AtomicU64,
}

impl PeakGauge {
    #[inline]
    pub fn observe(&self, v: u64) {
        self.window.fetch_max(v, Relaxed);
        self.lifetime.fetch_max(v, Relaxed);
    }

    pub fn window(&self) -> u64 {
        self.window.load(Relaxed)
    }

    pub fn lifetime(&self) -> u64 {
        self.lifetime.load(Relaxed)
    }

    /// Read the current window's peak and start a fresh window.
    pub fn take_window(&self) -> u64 {
        self.window.swap(0, Relaxed)
    }
}

/// Handle to a registered histogram. Disabled (default) handles cost one
/// branch per record.
#[derive(Clone, Default)]
pub struct HistHandle(Option<Arc<Histogram>>);

impl HistHandle {
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    #[inline]
    pub fn record(&self, v: u64) {
        if let Some(h) = &self.0 {
            h.record(v);
        }
    }

    #[inline]
    pub fn record_duration(&self, d: Duration) {
        if let Some(h) = &self.0 {
            h.record(d.as_nanos().min(u64::MAX as u128) as u64);
        }
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        match &self.0 {
            Some(h) => h.snapshot(),
            None => HistogramSnapshot::default(),
        }
    }
}

/// Handle to a registered monotone counter.
#[derive(Clone, Default)]
pub struct CounterHandle(Option<Arc<AtomicU64>>);

impl CounterHandle {
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.fetch_add(n, Relaxed);
        }
    }

    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Relaxed))
    }
}

/// Handle to a registered last-write-wins gauge.
#[derive(Clone, Default)]
pub struct GaugeHandle(Option<Arc<AtomicU64>>);

impl GaugeHandle {
    #[inline]
    pub fn set(&self, v: u64) {
        if let Some(g) = &self.0 {
            g.store(v, Relaxed);
        }
    }

    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |g| g.load(Relaxed))
    }
}

/// Handle to a registered per-window peak gauge.
#[derive(Clone, Default)]
pub struct PeakHandle(Option<Arc<PeakGauge>>);

impl PeakHandle {
    #[inline]
    pub fn observe(&self, v: u64) {
        if let Some(p) = &self.0 {
            p.observe(v);
        }
    }

    pub fn window(&self) -> u64 {
        self.0.as_ref().map_or(0, |p| p.window())
    }

    pub fn lifetime(&self) -> u64 {
        self.0.as_ref().map_or(0, |p| p.lifetime())
    }

    pub fn take_window(&self) -> u64 {
        self.0.as_ref().map_or(0, |p| p.take_window())
    }
}

enum SeriesKind {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Peak(Arc<PeakGauge>),
    Histogram(Arc<Histogram>),
}

impl SeriesKind {
    fn type_name(&self) -> &'static str {
        match self {
            SeriesKind::Counter(_) => "counter",
            // Peaks expose their per-window value as a gauge sample.
            SeriesKind::Gauge(_) | SeriesKind::Peak(_) => "gauge",
            SeriesKind::Histogram(_) => "histogram",
        }
    }
}

struct Series {
    name: String,
    help: String,
    labels: Vec<(String, String)>,
    kind: SeriesKind,
}

/// What [`Metrics::read`] folds the matching series into: counters and
/// gauges summed, peak gauges maxed, histograms merged. A field no matching
/// series feeds stays zero.
#[derive(Debug, Clone, Default)]
pub struct Reading {
    pub sum: u64,
    pub window_peak: u64,
    pub lifetime_peak: u64,
    pub histogram: HistogramSnapshot,
}

#[derive(Default)]
struct RegistryInner {
    series: Mutex<Vec<Series>>,
}

/// Metric registry. Cheap to clone; all clones share the series table.
/// A disabled registry hands out disabled handles, so instrumented code
/// pays one branch per record and nothing else.
#[derive(Clone, Default)]
pub struct Metrics {
    inner: Option<Arc<RegistryInner>>,
}

impl Metrics {
    pub fn disabled() -> Metrics {
        Metrics::default()
    }

    pub fn enabled() -> Metrics {
        Metrics {
            inner: Some(Arc::new(RegistryInner::default())),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn register<T>(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        get: impl Fn(&SeriesKind) -> Option<T>,
        make: impl FnOnce() -> (SeriesKind, T),
    ) -> Option<T> {
        let inner = self.inner.as_ref()?;
        let mut series = inner.series.lock();
        if let Some(s) = series.iter().find(|s| {
            s.name == name
                && s.labels.len() == labels.len()
                && s.labels
                    .iter()
                    .zip(labels)
                    .all(|(have, want)| have.0 == want.0 && have.1 == want.1)
        }) {
            return match get(&s.kind) {
                Some(t) => Some(t),
                None => {
                    eprintln!(
                        "warning[metrics]: series {name} re-registered as a different kind; \
                         handing out a detached {}",
                        s.kind.type_name()
                    );
                    None
                }
            };
        }
        let (kind, handle) = make();
        series.push(Series {
            name: name.to_string(),
            help: help.to_string(),
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            kind,
        });
        Some(handle)
    }

    /// Register (or look up) a counter series.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> CounterHandle {
        CounterHandle(self.register(
            name,
            help,
            labels,
            |k| match k {
                SeriesKind::Counter(c) => Some(c.clone()),
                _ => None,
            },
            || {
                let c = Arc::new(AtomicU64::new(0));
                (SeriesKind::Counter(c.clone()), c)
            },
        ))
    }

    /// Register (or look up) a gauge series.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> GaugeHandle {
        GaugeHandle(self.register(
            name,
            help,
            labels,
            |k| match k {
                SeriesKind::Gauge(g) => Some(g.clone()),
                _ => None,
            },
            || {
                let g = Arc::new(AtomicU64::new(0));
                (SeriesKind::Gauge(g.clone()), g)
            },
        ))
    }

    /// Register (or look up) a per-window peak gauge series.
    pub fn peak_gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> PeakHandle {
        PeakHandle(self.register(
            name,
            help,
            labels,
            |k| match k {
                SeriesKind::Peak(p) => Some(p.clone()),
                _ => None,
            },
            || {
                let p = Arc::new(PeakGauge::default());
                (SeriesKind::Peak(p.clone()), p)
            },
        ))
    }

    /// Register (or look up) a histogram series.
    pub fn histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> HistHandle {
        HistHandle(self.register(
            name,
            help,
            labels,
            |k| match k {
                SeriesKind::Histogram(h) => Some(h.clone()),
                _ => None,
            },
            || {
                let h = Arc::new(Histogram::new());
                (SeriesKind::Histogram(h.clone()), h)
            },
        ))
    }

    /// Every series named `name` whose labels include each of `with`,
    /// folded into one [`Reading`]. Resets no window.
    pub fn read(&self, name: &str, with: &[(&str, &str)]) -> Reading {
        let mut r = Reading::default();
        let Some(inner) = &self.inner else {
            return r;
        };
        for s in inner.series.lock().iter().filter(|s| {
            s.name == name
                && with
                    .iter()
                    .all(|&(k, v)| s.labels.iter().any(|l| l.0 == k && l.1 == v))
        }) {
            match &s.kind {
                SeriesKind::Counter(c) | SeriesKind::Gauge(c) => r.sum += c.load(Relaxed),
                SeriesKind::Peak(p) => {
                    r.window_peak = r.window_peak.max(p.window());
                    r.lifetime_peak = r.lifetime_peak.max(p.lifetime());
                }
                SeriesKind::Histogram(h) => r.histogram.merge(&h.snapshot()),
            }
        }
        r
    }

    /// Render every registered series as Prometheus text exposition.
    /// `reset_windows` additionally starts a fresh window on every peak
    /// gauge (interval-delta semantics for scrapes).
    pub fn render_prometheus(&self, reset_windows: bool) -> String {
        let mut out = String::new();
        let Some(inner) = &self.inner else {
            return out;
        };
        let series = inner.series.lock();
        let mut seen: Vec<&str> = Vec::new();
        for s in series.iter() {
            if !seen.contains(&s.name.as_str()) {
                seen.push(&s.name);
                out.push_str(&format!("# HELP {} {}\n", s.name, s.help));
                out.push_str(&format!("# TYPE {} {}\n", s.name, s.kind.type_name()));
                // Group all samples of one name under its TYPE header.
                for s2 in series.iter().filter(|s2| s2.name == s.name) {
                    render_series(&mut out, s2, reset_windows);
                }
            }
        }
        out
    }
}

fn fmt_labels(out: &mut String, labels: &[(String, String)], extra: Option<(&str, &str)>) {
    if labels.is_empty() && extra.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (k, v) in labels
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .chain(extra)
    {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(k);
        out.push_str("=\"");
        for c in v.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    out.push('}');
}

fn render_series(out: &mut String, s: &Series, reset_windows: bool) {
    match &s.kind {
        SeriesKind::Counter(c) => {
            out.push_str(&s.name);
            fmt_labels(out, &s.labels, None);
            out.push_str(&format!(" {}\n", c.load(Relaxed)));
        }
        SeriesKind::Gauge(g) => {
            out.push_str(&s.name);
            fmt_labels(out, &s.labels, None);
            out.push_str(&format!(" {}\n", g.load(Relaxed)));
        }
        SeriesKind::Peak(p) => {
            let v = if reset_windows {
                p.take_window()
            } else {
                p.window()
            };
            out.push_str(&s.name);
            fmt_labels(out, &s.labels, None);
            out.push_str(&format!(" {v}\n"));
        }
        SeriesKind::Histogram(h) => {
            render_histogram_samples(out, &s.name, &s.labels, &h.snapshot());
        }
    }
}

fn render_histogram_samples(
    out: &mut String,
    name: &str,
    labels: &[(String, String)],
    snap: &HistogramSnapshot,
) {
    let mut cum = 0u64;
    for (i, c) in snap.nonzero() {
        cum += c;
        out.push_str(name);
        out.push_str("_bucket");
        let le = bucket_bounds(i).1.to_string();
        fmt_labels(out, labels, Some(("le", &le)));
        out.push_str(&format!(" {cum}\n"));
    }
    out.push_str(name);
    out.push_str("_bucket");
    fmt_labels(out, labels, Some(("le", "+Inf")));
    out.push_str(&format!(" {}\n", snap.count));
    out.push_str(name);
    out.push_str("_sum");
    fmt_labels(out, labels, None);
    out.push_str(&format!(" {}\n", snap.sum));
    out.push_str(name);
    out.push_str("_count");
    fmt_labels(out, labels, None);
    out.push_str(&format!(" {}\n", snap.count));
}

/// One sample line parsed back out of Prometheus text exposition.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedSample {
    pub name: String,
    pub labels: Vec<(String, String)>,
    pub value: f64,
}

impl ParsedSample {
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Minimal Prometheus text-format parser, enough to round-trip what
/// [`Metrics::render_prometheus`] emits (used by `ramiel top` and tests).
/// Malformed lines are skipped.
pub fn parse_prometheus(text: &str) -> Vec<ParsedSample> {
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name_part, value_part) = if let Some(close) = line.find('}') {
            (&line[..close + 1], line[close + 1..].trim())
        } else {
            match line.split_once(' ') {
                Some((n, v)) => (n, v.trim()),
                None => continue,
            }
        };
        // Rust's f64 grammar accepts "+Inf"/"inf" directly.
        let Ok(value) = value_part.parse::<f64>() else {
            continue;
        };
        let (name, labels) = match name_part.split_once('{') {
            None => (name_part.to_string(), Vec::new()),
            Some((name, rest)) => {
                let rest = rest.trim_end_matches('}');
                let mut labels = Vec::new();
                let mut chars = rest.chars().peekable();
                'pairs: while chars.peek().is_some() {
                    let mut key = String::new();
                    for c in chars.by_ref() {
                        if c == '=' {
                            break;
                        }
                        key.push(c);
                    }
                    if chars.next() != Some('"') {
                        break 'pairs;
                    }
                    let mut val = String::new();
                    loop {
                        match chars.next() {
                            Some('\\') => match chars.next() {
                                Some('n') => val.push('\n'),
                                Some(c) => val.push(c),
                                None => break 'pairs,
                            },
                            Some('"') => break,
                            Some(c) => val.push(c),
                            None => break 'pairs,
                        }
                    }
                    labels.push((key, val));
                    if chars.peek() == Some(&',') {
                        chars.next();
                    }
                }
                (name.to_string(), labels)
            }
        };
        out.push(ParsedSample {
            name,
            labels,
            value,
        });
    }
    out
}

/// Quantile from parsed `_bucket` samples: `(le, cumulative count)` pairs,
/// sorted ascending by `le` (include the `+Inf` bucket). Mirrors
/// [`HistogramSnapshot::percentile`] on the consumer side of the wire.
pub fn quantile_from_buckets(buckets: &[(f64, f64)], q: f64) -> f64 {
    let total = buckets.last().map_or(0.0, |&(_, c)| c);
    if total <= 0.0 {
        return 0.0;
    }
    let rank = (q * total).ceil().clamp(1.0, total);
    for &(le, cum) in buckets {
        if cum >= rank {
            return le;
        }
    }
    buckets.last().map_or(0.0, |&(le, _)| le)
}

/// Windowed cumulative-bucket differencing for `ramiel top`: subtract a
/// previous frame's `(le, cumulative)` buckets from the current frame's.
///
/// Hardened against two live-scrape hazards:
///
/// * **`le` drift** — buckets are matched by `le` *value*, never by
///   position, so a frame that gained or lost a bucket line (schema
///   change, truncated scrape) can't pair unrelated buckets.
/// * **counter reset** — if the server restarts between the two
///   scrapes, the current cumulative counts are *smaller* than the
///   previous frame's and naive differencing goes negative (and, downstream,
///   a quantile walk over garbage). A backwards total means the previous
///   frame predates the reset and describes nothing that happened in this
///   window, so the lifetime (current) buckets are the only coherent
///   answer. Per-bucket wobble from a reset racing mid-scrape is clamped
///   to zero and repaired to a monotone cumulative sequence.
///
/// Both inputs must be sorted ascending by `le` (as `ramiel top` builds
/// them); the output is sorted, saturated at zero, and monotone — safe to
/// hand straight to [`quantile_from_buckets`].
pub fn window_buckets(cur: &[(f64, f64)], prev: &[(f64, f64)]) -> Vec<(f64, f64)> {
    let cur_total = cur.last().map_or(0.0, |&(_, c)| c);
    let prev_total = prev.last().map_or(0.0, |&(_, c)| c);
    if cur_total < prev_total {
        return cur.to_vec();
    }
    let mut out = Vec::with_capacity(cur.len());
    let mut pi = 0usize;
    let mut floor = 0.0f64;
    for &(le, c) in cur {
        while pi < prev.len() && prev[pi].0 < le {
            pi += 1;
        }
        let p = if pi < prev.len() && prev[pi].0 == le {
            prev[pi].1
        } else {
            0.0
        };
        let d = (c - p).max(0.0).max(floor);
        floor = d;
        out.push((le, d));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_exact_below_16() {
        for v in 0..16u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_bounds(v as usize), (v, v));
        }
    }

    #[test]
    fn bucket_index_monotone_and_bounded() {
        let probes: Vec<u64> = (0..200)
            .map(|i| 1u64 << (i % 64))
            .chain((0..1000).map(|i| i * 7919))
            .chain([u64::MAX, u64::MAX - 1, 1 << 63])
            .collect();
        for &v in &probes {
            let i = bucket_index(v);
            assert!(i < NUM_BUCKETS, "v={v} i={i}");
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= v && v <= hi, "v={v} not in [{lo},{hi}]");
        }
        for i in 1..NUM_BUCKETS {
            assert!(bucket_bounds(i - 1).1 < bucket_bounds(i).0);
        }
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
    }

    /// Normal windowed differencing: le-aligned deltas of two coherent
    /// frames recover exactly the counts recorded inside the window.
    #[test]
    fn window_buckets_differences_coherent_frames() {
        let prev = vec![(1.0, 3.0), (10.0, 5.0), (f64::INFINITY, 5.0)];
        let cur = vec![(1.0, 4.0), (10.0, 9.0), (f64::INFINITY, 10.0)];
        let w = window_buckets(&cur, &prev);
        assert_eq!(w, vec![(1.0, 1.0), (10.0, 4.0), (f64::INFINITY, 5.0)]);
        // downstream quantile sees only the window: 5 samples, p50 ≤ 10
        assert_eq!(quantile_from_buckets(&w, 0.5), 10.0);
    }

    /// Regression: a `stats` reset between two `top` frames makes every
    /// cumulative bucket go *backwards*; naive positional differencing
    /// produced negative deltas (clamped into a garbage distribution).
    /// A backwards total must fall back to the lifetime buckets.
    #[test]
    fn window_buckets_survives_interleaved_reset() {
        let prev = vec![(1.0, 100.0), (10.0, 400.0), (f64::INFINITY, 500.0)];
        // after the reset only 7 fresh samples exist
        let cur = vec![(1.0, 2.0), (10.0, 6.0), (f64::INFINITY, 7.0)];
        let w = window_buckets(&cur, &prev);
        assert_eq!(w, cur, "reset must fall back to lifetime buckets");
        assert!(quantile_from_buckets(&w, 0.99).is_finite() || w.last().unwrap().0.is_infinite());

        // reset racing *mid-scrape*: some buckets already re-accumulated
        // past the previous frame, others not — deltas stay ≥ 0 and the
        // cumulative sequence stays monotone.
        let torn = vec![(1.0, 90.0), (10.0, 410.0), (f64::INFINITY, 510.0)];
        let w = window_buckets(&torn, &prev);
        assert!(w.iter().all(|&(_, c)| c >= 0.0));
        for pair in w.windows(2) {
            assert!(
                pair[0].1 <= pair[1].1,
                "cumulative counts must be monotone: {w:?}"
            );
        }
    }

    /// Buckets are matched by `le` value: a frame that lost a bucket line
    /// must not pair unrelated buckets positionally.
    #[test]
    fn window_buckets_aligns_by_le_not_position() {
        let prev = vec![(1.0, 3.0), (10.0, 5.0), (f64::INFINITY, 5.0)];
        // current frame lost the le=1 line (truncated scrape)
        let cur = vec![(10.0, 8.0), (f64::INFINITY, 9.0)];
        let w = window_buckets(&cur, &prev);
        assert_eq!(w, vec![(10.0, 3.0), (f64::INFINITY, 4.0)]);
    }

    /// Regression: `mean()` on an empty snapshot used to be 0/0 = NaN,
    /// which poisoned every downstream aggregate it was merged into. Empty
    /// must answer 0 for mean, every percentile, and max.
    #[test]
    fn empty_histogram_reports_zeros_not_nan() {
        let h = Histogram::new();
        let s = h.snapshot();
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
        assert!(!s.mean().is_nan());
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(s.percentile(q), 0);
        }
        assert_eq!(s.max, 0);

        // merging an empty snapshot is a no-op on the target's stats
        let mut m = s.clone();
        m.merge(&HistogramSnapshot::default());
        assert_eq!(m.mean(), 0.0);
        assert_eq!(m.count, 0);
    }

    /// A single sample pins every statistic: mean == p50 == p99 == max ==
    /// the recorded value (up to the bucket's upper bound, capped by max).
    #[test]
    fn single_sample_pins_all_statistics() {
        for v in [0u64, 1, 15, 16, 1000, u64::MAX] {
            let h = Histogram::new();
            h.record(v);
            let s = h.snapshot();
            assert_eq!(s.count, 1);
            assert_eq!(s.mean(), v as f64, "mean of one sample is the sample");
            for q in [0.01, 0.5, 0.99, 1.0] {
                assert_eq!(s.percentile(q), v.min(s.max), "p{q} of one sample");
            }
            assert_eq!(s.max, v);
        }
    }

    #[test]
    fn percentile_and_max() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.max, 100);
        assert_eq!(s.percentile(1.0), 100);
        let p50 = s.percentile(0.5);
        // Exact p50 is 50; bucket [48,53] ⊇ 50, upper ≤ 53.
        assert!((48..=53).contains(&p50), "p50={p50}");
    }

    #[test]
    fn merge_equals_union() {
        let a = Histogram::new();
        let b = Histogram::new();
        let u = Histogram::new();
        for i in 0..500u64 {
            let v = i * i % 7001;
            if i % 2 == 0 { &a } else { &b }.record(v);
            u.record(v);
        }
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        let us = u.snapshot();
        assert_eq!(m.count, us.count);
        assert_eq!(m.sum, us.sum);
        assert_eq!(m.max, us.max);
        assert_eq!(m.buckets, us.buckets);
    }

    #[test]
    fn registry_render_and_parse_round_trip() {
        let m = Metrics::enabled();
        let c = m.counter("ramiel_test_total", "test counter", &[("model", "sq")]);
        c.add(7);
        let g = m.gauge("ramiel_test_depth", "test gauge", &[]);
        g.set(3);
        let p = m.peak_gauge("ramiel_test_peak", "test peak", &[]);
        p.observe(9);
        let h = m.histogram("ramiel_test_ns", "test hist", &[("model", "sq")]);
        h.record(5);
        h.record(500);
        let text = m.render_prometheus(false);
        assert!(text.contains("# TYPE ramiel_test_ns histogram"));
        let samples = parse_prometheus(&text);
        let find = |n: &str| samples.iter().find(|s| s.name == n).unwrap();
        assert_eq!(find("ramiel_test_total").value, 7.0);
        assert_eq!(find("ramiel_test_total").label("model"), Some("sq"));
        assert_eq!(find("ramiel_test_depth").value, 3.0);
        assert_eq!(find("ramiel_test_peak").value, 9.0);
        assert_eq!(find("ramiel_test_ns_count").value, 2.0);
        let inf = samples
            .iter()
            .find(|s| s.name == "ramiel_test_ns_bucket" && s.label("le") == Some("+Inf"))
            .unwrap();
        assert_eq!(inf.value, 2.0);
    }

    #[test]
    fn peak_window_resets_lifetime_persists() {
        let m = Metrics::enabled();
        let p = m.peak_gauge("ramiel_test_win", "w", &[]);
        p.observe(42);
        let text = m.render_prometheus(true);
        assert!(text.contains("ramiel_test_win 42"));
        assert_eq!(p.window(), 0, "render with reset starts a fresh window");
        assert_eq!(p.lifetime(), 42);
        p.observe(5);
        assert_eq!(p.window(), 5);
    }

    #[test]
    fn read_folds_matching_series_and_leaves_windows_running() {
        let m = Metrics::enabled();
        let labels = |model, o| [("model", model), ("outcome", o)];
        m.counter("req_total", "r", &labels("a", "ok")).add(3);
        m.counter("req_total", "r", &labels("b", "ok")).add(4);
        m.counter("req_total", "r", &labels("b", "err")).add(9);
        for (model, v) in [("a", 7), ("b", 2)] {
            m.peak_gauge("peak", "p", &[("model", model)]).observe(v);
            m.histogram("lat_ns", "l", &[("model", model)]).record(v);
        }
        assert_eq!(m.read("req_total", &[("outcome", "ok")]).sum, 7);
        assert_eq!(m.read("req_total", &[]).sum, 16);
        assert_eq!(m.read("req_total", &[("outcome", "none")]).sum, 0);
        let lat = m.read("lat_ns", &[]).histogram;
        assert_eq!((lat.count, lat.sum, lat.max), (2, 9, 7));
        let peak = m.read("peak", &[]);
        assert_eq!((peak.window_peak, peak.lifetime_peak), (7, 7));
        assert_eq!(m.read("peak", &[]).window_peak, 7, "a read resets nothing");
        m.render_prometheus(true);
        let peak = m.read("peak", &[]);
        assert_eq!((peak.window_peak, peak.lifetime_peak), (0, 7));
        assert_eq!(Metrics::disabled().read("req_total", &[]).sum, 0);
    }

    #[test]
    fn disabled_handles_are_inert() {
        let m = Metrics::disabled();
        let h = m.histogram("x", "x", &[]);
        h.record(5);
        assert!(!h.is_enabled());
        assert!(h.snapshot().is_empty());
        assert_eq!(m.render_prometheus(true), "");
    }

    #[test]
    fn same_series_shares_storage_kind_mismatch_detaches() {
        let m = Metrics::enabled();
        let c1 = m.counter("dup_total", "d", &[("a", "1")]);
        let c2 = m.counter("dup_total", "d", &[("a", "1")]);
        c1.inc();
        c2.inc();
        assert_eq!(c1.get(), 2);
        let g = m.gauge("dup_total", "d", &[("a", "1")]);
        g.set(9);
        assert_eq!(g.get(), 0, "kind-mismatched handle is detached");
    }
}
