//! `ramiel top`: poll a running server's `metrics` verb and render a live
//! per-model table (rps, windowed p50/p99, mean batch, queue depth,
//! shed/s) plus lifetime lane totals. Flags: `--port N` (default 7878),
//! `--interval-ms N` (default 1000, at least 50) and `--frames N` (stop
//! after N scrapes; 0, the default, runs until the server goes away).

use crate::request::Conn;
use std::collections::BTreeMap;

args!(Args "top";
    port: u16 = 7878, "--port";
    interval_ms: u64 = 1000, "--interval-ms";
    frames: usize = 0, "--frames";
);

/// Per-model aggregates extracted from one Prometheus scrape.
#[derive(Default, Clone)]
struct TopRow {
    completed: f64,
    shed: f64,
    batches: f64,
    batched: f64,
    depth: f64,
    peak: f64,
    /// `(le, cumulative count)` latency buckets, ns.
    latency: Vec<(f64, f64)>,
}

/// One scrape's rows by model, plus lifetime lane totals over all models:
/// pool builds and their summed duration (ns).
fn parse_frame(text: &str) -> (BTreeMap<String, TopRow>, [f64; 2]) {
    let samples = ramiel::obs::parse_prometheus(text);
    let mut rows: BTreeMap<String, TopRow> = BTreeMap::new();
    let mut lanes = [0.0f64; 2];
    for s in &samples {
        if let Some(model) = s.label("model") {
            let row = rows.entry(model.to_string()).or_default();
            match s.name.as_str() {
                "ramiel_lane_build_ns_count" => lanes[0] += s.value,
                "ramiel_lane_build_ns_sum" => lanes[1] += s.value,
                "ramiel_requests_total" => match s.label("outcome") {
                    Some("completed") => row.completed += s.value,
                    Some(o) if o.starts_with("shed") => row.shed += s.value,
                    _ => {}
                },
                "ramiel_batch_size_count" => row.batches += s.value,
                "ramiel_batch_size_sum" => row.batched += s.value,
                "ramiel_queue_depth" => row.depth = s.value,
                "ramiel_queue_peak_depth" => row.peak = row.peak.max(s.value),
                "ramiel_request_latency_ns_bucket" => {
                    if let Some(le) = s.label("le").and_then(|l| l.parse::<f64>().ok()) {
                        row.latency.push((le, s.value));
                    }
                }
                _ => {}
            }
        }
    }
    for row in rows.values_mut() {
        row.latency.sort_by(|a, b| a.0.total_cmp(&b.0));
    }
    (rows, lanes)
}

pub fn main(flags: &[String]) -> Result<(), String> {
    let a = Args::parse(flags)?;
    let interval = std::time::Duration::from_millis(a.interval_ms.max(50));
    let mut prev: Option<BTreeMap<String, TopRow>> = None;
    for frame in 1.. {
        // A fresh connection per frame: a server restarted between frames
        // is scraped again.
        let (_, resp) = Conn::open(a.port)?.call("{\"id\":0,\"op\":\"metrics\"}")?;
        let text = resp
            .get("metrics")
            .and_then(|m| m.as_str())
            .ok_or("metrics response has no `metrics` field")?;
        let (rows, lanes) = parse_frame(text);
        let dt = interval.as_secs_f64();

        // Live terminal mode clears between frames; single-frame mode
        // (CI, scripts) just prints the table once.
        if a.frames != 1 {
            print!("\x1b[2J\x1b[H");
        }
        println!(
            "ramiel top — 127.0.0.1:{}  (frame {frame}, every {dt:.1}s)",
            a.port
        );
        println!(
            "{:<14} {:>8} {:>9} {:>9} {:>10} {:>7} {:>7} {:>7}",
            "MODEL", "RPS", "P50(ms)", "P99(ms)", "MEANBATCH", "DEPTH", "PEAK", "SHED/S"
        );
        for (model, row) in &rows {
            let prev_row = prev.as_ref().and_then(|r| r.get(model));
            let rate = |cur: f64, prior: f64| ((cur - prior) / dt).max(0.0);
            let (rps, sheds) = match prev_row {
                Some(p) => (rate(row.completed, p.completed), rate(row.shed, p.shed)),
                None => (0.0, 0.0),
            };
            // Windowed percentiles: le-aligned saturating differencing
            // against the previous frame (robust to a server restarted
            // between frames); first frame falls back to lifetime buckets.
            let window: Vec<(f64, f64)> = match prev_row {
                Some(p) => ramiel::obs::window_buckets(&row.latency, &p.latency),
                _ => row.latency.clone(),
            };
            let p50 = ramiel::obs::quantile_from_buckets(&window, 0.5) / 1e6;
            let p99 = ramiel::obs::quantile_from_buckets(&window, 0.99) / 1e6;
            let mean_batch = row.batched / row.batches.max(1.0);
            println!(
                "{:<14} {:>8.1} {:>9.2} {:>9.2} {:>10.2} {:>7.0} {:>7.0} {:>7.1}",
                model, rps, p50, p99, mean_batch, row.depth, row.peak, sheds
            );
        }
        let [builds, build_ns] = lanes;
        println!(
            "lanes: {builds:.0} pool builds (mean {:.2} ms)",
            build_ns / builds.max(1.0) / 1e6
        );

        prev = Some(rows);
        if frame == a.frames {
            break;
        }
        std::thread::sleep(interval);
    }
    Ok(())
}
