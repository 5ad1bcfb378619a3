//! Chrome/Perfetto trace export and validation.
//!
//! The export speaks the Trace Event Format's JSON-object flavour:
//! `{"traceEvents": [...]}` with `ph: "X"` complete spans, `ph: "i"`
//! instants, and `ph: "M"` `process_name` / `thread_name` metadata so
//! Perfetto labels every lane. Timestamps and durations are microseconds
//! (floating point, so nanosecond precision survives). This module is the
//! only writer of the format: the profiler's executor tracks and serve's
//! per-request ring both replay into an [`Obs`] and export through it.
//!
//! [`validate_chrome_trace`] is the inverse gate: CI runs the profiler and
//! feeds its output back through the validator, failing on unparseable
//! JSON, unknown phases, spans on unnamed tracks, or overlapping
//! (non-nested) spans on one thread track.

use crate::{Obs, Phase};
use serde_json::{json, Value};

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// The trace JSON for everything recorded in `obs`: process and thread
/// metadata first, then every event in recording order. A disabled sink
/// builds `{"traceEvents": []}`.
pub fn export_value(obs: &Obs) -> Value {
    let mut events: Vec<Value> = Vec::new();
    let (procs, threads) = obs.tracks_snapshot();
    for (pid, name) in &procs {
        events.push(obj(vec![
            ("ph", json!("M")),
            ("name", json!("process_name")),
            ("pid", json!(*pid)),
            ("tid", json!(0u32)),
            ("args", json!({ "name": name.as_str() })),
        ]));
    }
    for ((pid, tid), name) in &threads {
        events.push(obj(vec![
            ("ph", json!("M")),
            ("name", json!("thread_name")),
            ("pid", json!(*pid)),
            ("tid", json!(*tid)),
            ("args", json!({ "name": name.as_str() })),
        ]));
    }
    for e in obs.events() {
        let mut entries: Vec<(&str, Value)> = vec![
            ("name", json!(e.name.as_str())),
            ("cat", json!(e.cat)),
            ("pid", json!(e.pid)),
            ("tid", json!(e.tid)),
            ("ts", json!(e.ts_ns as f64 / 1e3)),
        ];
        match e.phase {
            Phase::Complete => {
                entries.push(("ph", json!("X")));
                entries.push(("dur", json!(e.dur_ns as f64 / 1e3)));
            }
            Phase::Instant => {
                entries.push(("ph", json!("i")));
                entries.push(("s", json!("t")));
            }
        }
        if !e.args.is_null() {
            entries.push(("args", e.args));
        }
        events.push(obj(entries));
    }
    obj(vec![("traceEvents", Value::Array(events))])
}

/// [`export_value`] as pretty-printed JSON text.
pub fn export(obs: &Obs) -> String {
    serde_json::to_string_pretty(&export_value(obs)).expect("trace serialization cannot fail")
}

/// Summary returned by a successful [`validate_chrome_trace`] pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceStats {
    pub total_events: usize,
    pub complete_spans: usize,
    pub instants: usize,
    pub counters: usize,
    pub metadata: usize,
    pub named_processes: usize,
    pub named_threads: usize,
}

/// Two spans on one thread track must either nest or be disjoint; µs
/// rounding can make exactly-adjacent spans appear to overlap by a
/// sub-nanosecond sliver, so comparisons get this epsilon (in µs).
const NEST_EPS_US: f64 = 0.002;

fn get_u32(ev: &Value, key: &str) -> Result<u32, String> {
    ev.get(key)
        .and_then(Value::as_u64)
        .and_then(|v| u32::try_from(v).ok())
        .ok_or_else(|| format!("event missing numeric `{key}`: {ev}"))
}

fn get_f64(ev: &Value, key: &str) -> Result<f64, String> {
    ev.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("event missing numeric `{key}`: {ev}"))
}

/// Validate `trace` as Chrome trace JSON produced by this crate.
///
/// Checks: parseable JSON with a `traceEvents` array; every event has a
/// known phase, a name, and pid/tid; every `X`/`i`/`C` event's pid is named
/// by `process_name` metadata; spans on a single (pid, tid) track are
/// well-nested (no partial overlap). Returns summary stats on success, a
/// description of the first problem on failure.
pub fn validate_chrome_trace(trace: &str) -> Result<TraceStats, String> {
    let root: Value =
        serde_json::from_str(trace).map_err(|e| format!("trace is not valid JSON: {e}"))?;
    let events = root
        .get("traceEvents")
        .and_then(Value::as_array)
        .ok_or_else(|| "trace has no `traceEvents` array".to_string())?;

    let mut stats = TraceStats {
        total_events: events.len(),
        ..TraceStats::default()
    };
    let mut named_pids: Vec<u32> = Vec::new();
    let mut named_tids: Vec<(u32, u32)> = Vec::new();
    // (pid, tid) → [(start_us, end_us)]
    let mut spans: std::collections::BTreeMap<(u32, u32), Vec<(f64, f64)>> = Default::default();

    for ev in events {
        if ev.as_object().is_none() {
            return Err(format!("non-object trace event: {ev}"));
        }
        let ph = ev
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event missing `ph`: {ev}"))?;
        let name = ev
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event missing `name`: {ev}"))?;
        let pid = get_u32(ev, "pid")?;
        let tid = get_u32(ev, "tid")?;
        match ph {
            "M" => {
                stats.metadata += 1;
                match name {
                    "process_name" => {
                        stats.named_processes += 1;
                        named_pids.push(pid);
                    }
                    "thread_name" => {
                        stats.named_threads += 1;
                        named_tids.push((pid, tid));
                    }
                    other => return Err(format!("unknown metadata event `{other}`")),
                }
                if ev
                    .get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Value::as_str)
                    .is_none()
                {
                    return Err(format!("metadata event without args.name: {ev}"));
                }
            }
            "X" => {
                stats.complete_spans += 1;
                let ts = get_f64(ev, "ts")?;
                let dur = get_f64(ev, "dur")?;
                if dur < 0.0 {
                    return Err(format!("span `{name}` has negative duration {dur}"));
                }
                spans.entry((pid, tid)).or_default().push((ts, ts + dur));
            }
            "i" => {
                stats.instants += 1;
                get_f64(ev, "ts")?;
            }
            "C" => {
                stats.counters += 1;
                get_f64(ev, "ts")?;
                if ev.get("args").and_then(Value::as_object).is_none() {
                    return Err(format!("counter `{name}` has no args object"));
                }
            }
            other => return Err(format!("unknown event phase `{other}`")),
        }
    }

    // Every track that carries spans must belong to a named process.
    for (pid, tid) in spans.keys() {
        if !named_pids.contains(pid) {
            return Err(format!(
                "spans on pid {pid} tid {tid} but no process_name metadata for pid {pid}"
            ));
        }
    }
    // And every named thread must reference a named process.
    for (pid, tid) in &named_tids {
        if !named_pids.contains(pid) {
            return Err(format!(
                "thread_name for pid {pid} tid {tid} references unnamed process"
            ));
        }
    }

    // Well-nesting per track: sort by (start asc, end desc) and walk a stack.
    for ((pid, tid), mut track) in spans {
        track.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .unwrap()
                .then(b.1.partial_cmp(&a.1).unwrap())
        });
        let mut stack: Vec<(f64, f64)> = Vec::new();
        for (start, end) in track {
            while let Some(&(_, top_end)) = stack.last() {
                if start >= top_end - NEST_EPS_US {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(&(_, top_end)) = stack.last() {
                if end > top_end + NEST_EPS_US {
                    return Err(format!(
                        "spans on pid {pid} tid {tid} overlap without nesting: \
                         [{start:.3}, {end:.3}] vs enclosing end {top_end:.3} (µs)"
                    ));
                }
            }
            stack.push((start, end));
        }
    }

    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn export_roundtrips_through_validator() {
        let obs = Obs::enabled();
        obs.name_process("pipeline");
        obs.name_thread(0, "main");
        {
            let _outer = obs.span(0, "outer", "stage");
            let _inner = obs.span(0, "inner", "stage");
        }
        obs.instant(0, "note", "event", serde_json::Value::Null);
        let trace = obs.to_chrome_trace();
        let stats = validate_chrome_trace(&trace).expect("valid trace");
        assert_eq!(stats.complete_spans, 2);
        assert_eq!(stats.instants, 1);
        assert_eq!(stats.named_processes, 1);
        assert_eq!(stats.named_threads, 1);
    }

    #[test]
    fn validator_rejects_garbage_and_bad_shapes() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{}").is_err());
        // span on a pid without process_name metadata
        let orphan = r#"{"traceEvents":[
            {"ph":"X","name":"s","cat":"c","pid":9,"tid":0,"ts":0.0,"dur":1.0}
        ]}"#;
        let err = validate_chrome_trace(orphan).unwrap_err();
        assert!(err.contains("no process_name"), "{err}");
        // partially overlapping spans on one track
        let overlap = r#"{"traceEvents":[
            {"ph":"M","name":"process_name","pid":1,"tid":0,"args":{"name":"p"}},
            {"ph":"X","name":"a","cat":"c","pid":1,"tid":0,"ts":0.0,"dur":10.0},
            {"ph":"X","name":"b","cat":"c","pid":1,"tid":0,"ts":5.0,"dur":10.0}
        ]}"#;
        let err = validate_chrome_trace(overlap).unwrap_err();
        assert!(err.contains("overlap"), "{err}");
    }

    #[test]
    fn adjacent_spans_within_epsilon_are_fine() {
        let trace = r#"{"traceEvents":[
            {"ph":"M","name":"process_name","pid":1,"tid":0,"args":{"name":"p"}},
            {"ph":"X","name":"a","cat":"c","pid":1,"tid":0,"ts":0.0,"dur":5.0},
            {"ph":"X","name":"b","cat":"c","pid":1,"tid":0,"ts":4.999,"dur":5.0}
        ]}"#;
        validate_chrome_trace(trace).expect("epsilon-adjacent spans accepted");
    }

    /// Nothing in the workspace writes counters, but traces from other
    /// producers carry them; the validator still counts and checks them.
    #[test]
    fn validator_counts_counter_events() {
        let trace = r#"{"traceEvents":[
            {"ph":"M","name":"process_name","pid":1,"tid":0,"args":{"name":"p"}},
            {"ph":"C","name":"queue","pid":1,"tid":0,"ts":1.0,"args":{"depth":3}},
            {"ph":"C","name":"queue","pid":1,"tid":0,"ts":2.0,"args":{"depth":1}}
        ]}"#;
        let stats = validate_chrome_trace(trace).expect("counters are valid events");
        assert_eq!(stats.counters, 2);
        assert_eq!(stats.total_events, 3);
        let argless = r#"{"traceEvents":[
            {"ph":"C","name":"queue","pid":1,"tid":0,"ts":1.0}
        ]}"#;
        let err = validate_chrome_trace(argless).unwrap_err();
        assert!(err.contains("no args object"), "{err}");
    }
}
