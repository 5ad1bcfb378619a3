//! Per-request trace ring: a bounded in-memory buffer of completed
//! request timelines, dumpable as a Chrome/Perfetto trace via the TCP
//! `trace` verb.
//!
//! Each admitted request gets a [`RequestTrace`] when it is answered:
//! its request id plus the four phase boundaries (enqueue → pop →
//! execute → respond) as nanosecond offsets from the server's epoch. The
//! ring keeps the most recent `capacity` entries — old traffic falls off
//! the back, so memory stays bounded no matter how long the server runs.
//!
//! The Chrome export puts every request on its own thread track (tid =
//! request id) inside one "requests" process track, with four adjacent
//! `X` spans per request. The output passes
//! [`ramiel_obs::validate_chrome_trace`], which the CLI `trace` op checks
//! client-side.

use parking_lot::Mutex;
use serde_json::json;
use std::collections::VecDeque;

/// Completed-request timeline. All timestamps are nanoseconds since the
/// server's epoch; phases are adjacent (`enqueued <= popped <= exec_start
/// <= exec_end <= responded`).
#[derive(Debug, Clone)]
pub struct RequestTrace {
    /// The request id minted at admission.
    pub id: u64,
    pub model: String,
    /// Live size of the batch this request executed in (0 if it never
    /// reached execution).
    pub batch: usize,
    /// `completed`, `failed`, `shed_deadline`, ...
    pub outcome: &'static str,
    pub enqueued_ns: u64,
    pub popped_ns: u64,
    pub exec_start_ns: u64,
    pub exec_end_ns: u64,
    pub responded_ns: u64,
}

/// Bounded ring of recent [`RequestTrace`]s. One short mutexed push per
/// answered request — the per-phase recording itself is lock-free (the
/// metric registry's histograms); only the trace dump takes this lock for
/// longer.
pub struct TraceRing {
    capacity: usize,
    entries: Mutex<VecDeque<RequestTrace>>,
}

impl TraceRing {
    pub fn new(capacity: usize) -> TraceRing {
        TraceRing {
            capacity: capacity.max(1),
            entries: Mutex::new(VecDeque::new()),
        }
    }

    pub fn push(&self, t: RequestTrace) {
        let mut e = self.entries.lock();
        if e.len() >= self.capacity {
            e.pop_front();
        }
        e.push_back(t);
    }

    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.lock().is_empty()
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn snapshot(&self) -> Vec<RequestTrace> {
        self.entries.lock().iter().cloned().collect()
    }

    /// Chrome trace JSON (`{"traceEvents": [...]}`): one process track,
    /// one thread track per request, four `X` spans per request. Passes
    /// [`ramiel_obs::validate_chrome_trace`].
    pub fn to_chrome_trace(&self) -> serde_json::Value {
        let entries = self.snapshot();
        let mut events = Vec::with_capacity(entries.len() * 4 + 2);
        if !entries.is_empty() {
            events.push(json!({
                "ph": "M", "name": "process_name", "pid": 0, "tid": 0,
                "args": { "name": "ramiel-serve requests" }
            }));
        }
        let us = |ns: u64| ns as f64 / 1_000.0;
        for t in &entries {
            let tid = t.id as u32;
            events.push(json!({
                "ph": "M", "name": "thread_name", "pid": 0, "tid": tid,
                "args": { "name": format!("req {} ({})", t.id, t.model) }
            }));
            let spans = [
                ("queue", t.enqueued_ns, t.popped_ns),
                ("batch", t.popped_ns, t.exec_start_ns),
                ("execute", t.exec_start_ns, t.exec_end_ns),
                ("respond", t.exec_end_ns, t.responded_ns),
            ];
            for (name, start, end) in spans {
                events.push(json!({
                    "ph": "X", "name": name, "cat": "request",
                    "pid": 0, "tid": tid,
                    "ts": us(start), "dur": us(end.saturating_sub(start)),
                    "args": {
                        "id": t.id, "model": t.model,
                        "batch": t.batch, "outcome": t.outcome,
                    }
                }));
            }
        }
        json!({ "traceEvents": events })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(id: u64, base: u64) -> RequestTrace {
        RequestTrace {
            id,
            model: "m".into(),
            batch: 2,
            outcome: "completed",
            enqueued_ns: base,
            popped_ns: base + 1_000,
            exec_start_ns: base + 2_000,
            exec_end_ns: base + 10_000,
            responded_ns: base + 11_000,
        }
    }

    #[test]
    fn ring_is_bounded_and_keeps_newest() {
        let ring = TraceRing::new(3);
        for i in 0..10 {
            ring.push(entry(i, i * 100_000));
        }
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(snap.iter().map(|t| t.id).collect::<Vec<_>>(), vec![7, 8, 9]);
    }

    #[test]
    fn chrome_export_validates() {
        let ring = TraceRing::new(16);
        for i in 0..5 {
            ring.push(entry(i, i * 1_000_000));
        }
        let trace = ring.to_chrome_trace().to_string();
        let stats = ramiel_obs::validate_chrome_trace(&trace).expect("valid trace");
        assert_eq!(stats.complete_spans, 5 * 4);
    }

    #[test]
    fn empty_ring_exports_empty_valid_trace() {
        let ring = TraceRing::new(4);
        let trace = ring.to_chrome_trace().to_string();
        ramiel_obs::validate_chrome_trace(&trace).expect("empty trace is valid");
    }
}
