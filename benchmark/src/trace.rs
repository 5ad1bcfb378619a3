//! In-memory spans for the traced run, written out as one Chrome trace per
//! workload when the run ends. Spans are recorded from the benchmark's own
//! files, around the calls into each layer; spans inside the program are a
//! later change.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// 0 = no parent.
    pub parent: u64,
    pub name: String,
    pub cat: &'static str,
    /// Chrome track: 0 is the main thread, `1 + n` connection `n`.
    pub tid: u32,
    pub start: Instant,
    pub end: Instant,
    /// Spans of one request share this.
    pub request: Option<u64>,
}

pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Connection threads collect locally and hand their spans over once.
    pub fn extend(&self, spans: Vec<Span>) {
        self.spans
            .lock()
            .expect("no thread panics while holding the span list")
            .extend(spans);
    }

    /// Run `f` inside a main-thread span and return its result with the
    /// span's duration; `f` receives the span's id so it can parent further
    /// spans.
    pub fn scope<T>(
        &self,
        name: &str,
        cat: &'static str,
        parent: u64,
        f: impl FnOnce(u64) -> T,
    ) -> (T, Duration) {
        let id = self.next_id();
        let start = Instant::now();
        let out = f(id);
        let end = Instant::now();
        self.extend(vec![Span {
            id,
            parent,
            name: name.to_string(),
            cat,
            tid: 0,
            start,
            end,
            request: None,
        }]);
        (out, end - start)
    }

    /// Chrome trace JSON (`ph: "X"` complete events, µs timestamps). Each
    /// span carries `self_us`: its duration minus its children's.
    pub fn to_chrome(&self, process: &str) -> String {
        let spans = self
            .spans
            .lock()
            .expect("no thread panics while holding the span list");
        let us = |a: Instant, b: Instant| b.saturating_duration_since(a).as_nanos() as f64 / 1e3;
        let mut child_us: HashMap<u64, f64> = HashMap::new();
        for s in spans.iter().filter(|s| s.parent != 0) {
            *child_us.entry(s.parent).or_default() += us(s.start, s.end);
        }
        let mut tids: Vec<u32> = spans.iter().map(|s| s.tid).collect();
        tids.sort_unstable();
        tids.dedup();

        let mut events = vec![serde_json::json!({
            "ph": "M", "name": "process_name", "pid": 1, "tid": 0,
            "args": { "name": process },
        })];
        for tid in tids {
            let name = if tid == 0 {
                "main".to_string()
            } else {
                format!("connection {}", tid - 1)
            };
            events.push(serde_json::json!({
                "ph": "M", "name": "thread_name", "pid": 1, "tid": tid,
                "args": { "name": name },
            }));
        }
        for s in spans.iter() {
            let dur = us(s.start, s.end);
            let self_us = (dur - child_us.get(&s.id).copied().unwrap_or(0.0)).max(0.0);
            events.push(serde_json::json!({
                "ph": "X", "name": s.name, "cat": s.cat, "pid": 1, "tid": s.tid,
                "ts": us(self.epoch, s.start), "dur": dur,
                "args": {
                    "id": s.id, "parent": s.parent, "request": s.request, "self_us": self_us,
                },
            }));
        }
        serde_json::to_string(&serde_json::json!({ "traceEvents": events }))
            .expect("a tree of plain JSON values serializes")
    }
}
