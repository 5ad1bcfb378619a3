//! The server's own account of a phase, read from outside through the
//! `metrics` (Prometheus text) and `stats` verbs. Everything is a delta
//! between a scrape before the phase and one after it.

use crate::layers::{histogram_bucket_of, parse_metrics};
use crate::server::Conn;
use std::collections::BTreeMap;

/// Per-bucket (not cumulative) counts keyed by the bucket's upper bound.
pub type Hist = BTreeMap<u64, f64>;

#[derive(Default, Clone)]
pub struct Scrape {
    /// `ramiel_request_phase_ns` by phase (`queue`, `batch`, `execute`,
    /// `respond`), summed over the workload's lanes.
    pub phases: BTreeMap<String, Hist>,
    /// `ramiel_request_latency_ns`: enqueue to response, server side.
    pub latency: Hist,
    /// `ramiel_batch_size` sum and count: requests batched, batches run.
    pub batched_requests: f64,
    pub batches: f64,
    pub shed: f64,
    pub retries: f64,
    pub fallbacks: f64,
    /// Names of the plans the server holds.
    pub models: Vec<String>,
    /// How long the `metrics` round trip took, milliseconds.
    pub metrics_scrape_ms: f64,
}

/// Series render cumulative counts over their non-empty buckets only, so
/// each series is first turned back into per-bucket counts; only those add
/// up across series and subtract across scrapes.
fn add_series(into: &mut Hist, cumulative: &mut Vec<(u64, f64)>) {
    cumulative.sort_by_key(|&(le, _)| le);
    let mut below = 0.0;
    for &(le, cum) in cumulative.iter() {
        *into.entry(le).or_default() += cum - below;
        below = cum;
    }
    cumulative.clear();
}

pub fn scrape(conn: &mut Conn, lanes: &[String]) -> Result<Scrape, String> {
    let mut out = Scrape::default();
    let (metrics, took) = conn.call("metrics")?;
    out.metrics_scrape_ms = took.as_secs_f64() * 1e3;
    let text = metrics
        .get("metrics")
        .and_then(|v| v.as_str())
        .ok_or_else(|| "`metrics` reply has no text".to_string())?;

    // Bucket lines of one series are consecutive; a change of series key
    // closes the previous one.
    let mut open: Option<(String, Vec<(u64, f64)>)> = None;
    let close = |out: &mut Scrape, open: &mut Option<(String, Vec<(u64, f64)>)>| {
        if let Some((key, mut cumulative)) = open.take() {
            let hist = match key.split_once('|') {
                Some(("phase", rest)) => {
                    let phase = rest.split('|').next().unwrap_or("").to_string();
                    out.phases.entry(phase).or_default()
                }
                _ => &mut out.latency,
            };
            add_series(hist, &mut cumulative);
        }
    };
    for s in parse_metrics(text) {
        if !s
            .label("model")
            .is_some_and(|m| lanes.iter().any(|l| l == m))
        {
            continue;
        }
        let key = match s.name.as_str() {
            "ramiel_request_phase_ns_bucket" => {
                format!(
                    "phase|{}|{}",
                    s.label("phase").unwrap_or(""),
                    s.label("model").unwrap_or("")
                )
            }
            "ramiel_request_latency_ns_bucket" => {
                format!("latency|{}", s.label("model").unwrap_or(""))
            }
            "ramiel_batch_size_sum" => {
                out.batched_requests += s.value;
                continue;
            }
            "ramiel_batch_size_count" => {
                out.batches += s.value;
                continue;
            }
            _ => continue,
        };
        if open.as_ref().is_some_and(|(k, _)| *k != key) {
            close(&mut out, &mut open);
        }
        let le = match s.label("le") {
            Some("+Inf") | None => continue,
            Some(le) => le
                .parse::<u64>()
                .map_err(|e| format!("bucket bound `{le}`: {e}"))?,
        };
        open.get_or_insert_with(|| (key, Vec::new()))
            .1
            .push((le, s.value));
    }
    close(&mut out, &mut open);

    let (stats, _) = conn.call("stats")?;
    let counter = |name: &str| {
        stats
            .get("stats")
            .and_then(|s| s.get(name))
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0)
    };
    out.shed = counter("shed_queue_full") + counter("shed_deadline");
    out.retries = counter("retries");
    out.fallbacks = counter("fallbacks");
    out.models = stats
        .get("models")
        .and_then(|m| m.as_array())
        .map(|a| {
            a.iter()
                .filter_map(|v| v.as_str().map(str::to_string))
                .collect()
        })
        .unwrap_or_default();
    Ok(out)
}

fn sub(after: &Hist, before: &Hist) -> Hist {
    after
        .iter()
        .map(|(&le, &n)| (le, (n - before.get(&le).copied().unwrap_or(0.0)).max(0.0)))
        .filter(|&(_, n)| n > 0.0)
        .collect()
}

impl Scrape {
    /// What happened between `before` and `self`.
    pub fn since(&self, before: &Scrape) -> Scrape {
        Scrape {
            phases: self
                .phases
                .iter()
                .map(|(p, h)| {
                    (
                        p.clone(),
                        sub(h, before.phases.get(p).unwrap_or(&Hist::new())),
                    )
                })
                .collect(),
            latency: sub(&self.latency, &before.latency),
            batched_requests: self.batched_requests - before.batched_requests,
            batches: self.batches - before.batches,
            shed: self.shed - before.shed,
            retries: self.retries - before.retries,
            fallbacks: self.fallbacks - before.fallbacks,
            models: self.models.clone(),
            metrics_scrape_ms: self.metrics_scrape_ms,
        }
    }

    pub fn phase_ms(&self, phase: &str, q: f64) -> f64 {
        self.phases.get(phase).map_or(0.0, |h| quantile_ms(h, q))
    }
}

/// Quantile of a nanosecond histogram in milliseconds, interpolated inside
/// the bucket that holds the rank. 0 when the histogram is empty.
pub fn quantile_ms(h: &Hist, q: f64) -> f64 {
    let total: f64 = h.values().sum();
    if total <= 0.0 {
        return 0.0;
    }
    let rank = (q * total).clamp(0.0, total);
    let mut below = 0.0;
    for (&le, &n) in h {
        if below + n >= rank {
            let (lo, hi) = histogram_bucket_of(le);
            let inside = ((rank - below) / n).clamp(0.0, 1.0);
            return (lo as f64 + inside * (hi - lo) as f64) / 1e6;
        }
        below += n;
    }
    *h.keys()
        .next_back()
        .expect("total > 0 means a bucket exists") as f64
        / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_with_different_buckets_add_up() {
        let mut h = Hist::new();
        add_series(&mut h, &mut vec![(10, 2.0), (20, 5.0)]);
        add_series(&mut h, &mut vec![(20, 1.0), (30, 4.0)]);
        assert_eq!(h, Hist::from([(10, 2.0), (20, 4.0), (30, 3.0)]));
        let later = Hist::from([(10, 2.0), (20, 6.0), (30, 3.0), (40, 1.0)]);
        assert_eq!(sub(&later, &h), Hist::from([(20, 2.0), (40, 1.0)]));
    }
}
