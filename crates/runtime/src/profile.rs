//! The profiling database (Fig. 10's "Profile DB").
//!
//! Records per-op execution windows and the *slack* each worker spends
//! blocked on `recv` after an op — the imbalance signal the paper uses to
//! motivate hyperclustering and to hand-tune switched hyperclusters.

use ramiel_obs::ChannelEdgeStats;

/// One executed operation.
#[derive(Debug, Clone)]
pub struct OpRecord {
    pub worker: usize,
    pub batch: usize,
    pub node: usize,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Time spent blocked waiting for messages immediately after this op.
    pub slack_after_ns: u64,
}

/// One worker's wall-clock window: from entering its loop to finishing its
/// last op. Busy + recorded slack is bounded by this window (the remainder
/// is scheduling overhead and waits not attributable to a finished op).
#[derive(Debug, Clone)]
pub struct WorkerSpan {
    pub worker: usize,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Collected trace of a parallel run.
#[derive(Debug, Clone)]
pub struct ProfileDb {
    workers: usize,
    batch: usize,
    records: Vec<OpRecord>,
    worker_spans: Vec<WorkerSpan>,
    channels: Vec<ChannelEdgeStats>,
    /// Offset of this run's epoch on the exporting [`ramiel_obs::Obs`]
    /// timeline (0 when no enabled sink was attached to the run).
    epoch_offset_ns: u64,
}

/// Per-worker slack aggregation.
#[derive(Debug, Clone)]
pub struct SlackReport {
    pub worker: usize,
    pub busy_ns: u64,
    pub slack_ns: u64,
    /// slack / (busy + slack)
    pub slack_fraction: f64,
}

impl ProfileDb {
    pub fn new(workers: usize, batch: usize) -> Self {
        ProfileDb {
            workers,
            batch,
            records: Vec::new(),
            worker_spans: Vec::new(),
            channels: Vec::new(),
            epoch_offset_ns: 0,
        }
    }

    pub fn extend(&mut self, records: Vec<OpRecord>) {
        self.records.extend(records);
    }

    pub fn push_worker_span(&mut self, span: WorkerSpan) {
        self.worker_spans.push(span);
    }

    pub fn set_channels(&mut self, channels: Vec<ChannelEdgeStats>) {
        self.channels = channels;
    }

    pub fn set_epoch_offset_ns(&mut self, offset: u64) {
        self.epoch_offset_ns = offset;
    }

    pub fn records(&self) -> &[OpRecord] {
        &self.records
    }

    pub fn worker_spans(&self) -> &[WorkerSpan] {
        &self.worker_spans
    }

    pub fn channels(&self) -> &[ChannelEdgeStats] {
        &self.channels
    }

    pub fn workers(&self) -> usize {
        self.workers
    }

    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Aggregate busy/slack time per worker.
    pub fn slack_report(&self) -> Vec<SlackReport> {
        let mut busy = vec![0u64; self.workers];
        let mut slack = vec![0u64; self.workers];
        for r in &self.records {
            busy[r.worker] += r.end_ns - r.start_ns;
            slack[r.worker] += r.slack_after_ns;
        }
        (0..self.workers)
            .map(|w| SlackReport {
                worker: w,
                busy_ns: busy[w],
                slack_ns: slack[w],
                slack_fraction: slack[w] as f64 / (busy[w] + slack[w]).max(1) as f64,
            })
            .collect()
    }

    /// Replay this profile into an obs sink: one thread track per worker
    /// (named), one span per op, explicit slack slices, and per-edge channel
    /// statistics as instant events. Timestamps are shifted by the epoch
    /// offset recorded at run start so executor slices line up with compile
    /// spans captured on the same sink.
    pub fn export_to_obs(&self, obs: &ramiel_obs::Obs, graph: &ramiel_ir::Graph) {
        if !obs.is_enabled() {
            return;
        }
        let off = self.epoch_offset_ns;
        for w in 0..self.workers {
            obs.name_thread(w as u32, format!("worker {w}"));
        }
        for r in &self.records {
            let name = graph
                .nodes
                .get(r.node)
                .map(|n| format!("{} ({})", n.name, n.op.name()))
                .unwrap_or_else(|| format!("node {}", r.node));
            obs.complete(
                r.worker as u32,
                name,
                "op",
                off + r.start_ns,
                off + r.end_ns,
                serde_json::json!({ "node": r.node, "batch": r.batch }),
            );
            if r.slack_after_ns > 0 {
                obs.complete(
                    r.worker as u32,
                    "slack (blocked on recv)",
                    "slack",
                    off + r.end_ns,
                    off + r.end_ns + r.slack_after_ns,
                    serde_json::Value::Null,
                );
            }
        }
        for c in &self.channels {
            obs.instant(
                c.to as u32,
                format!("channel {} -> {}", c.from, c.to),
                "channel",
                serde_json::json!({
                    "sends": c.sends,
                    "recvs": c.recvs,
                    "bytes": c.bytes,
                    "copied_bytes": c.copied_bytes,
                    "blocked_ms": c.blocked_ns as f64 / 1e6,
                    "max_in_flight": c.max_in_flight,
                }),
            );
        }
    }

    /// Distil measured per-node busy times into a
    /// [`ramiel_cluster::MeasuredCost`] model for profile-guided
    /// reclustering: mean busy ns per node, backed by per-op-kind means for
    /// nodes this profile never saw.
    pub fn measured_cost(&self, graph: &ramiel_ir::Graph) -> ramiel_cluster::MeasuredCost {
        let mut sum = vec![0u64; graph.num_nodes()];
        let mut cnt = vec![0u64; graph.num_nodes()];
        for r in &self.records {
            if r.node < sum.len() {
                sum[r.node] += r.end_ns.saturating_sub(r.start_ns);
                cnt[r.node] += 1;
            }
        }
        let samples: Vec<(usize, u64)> = (0..graph.num_nodes())
            .filter(|&n| cnt[n] > 0)
            .map(|n| (n, sum[n] / cnt[n]))
            .collect();
        ramiel_cluster::MeasuredCost::from_node_ns(graph, &samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slack_report_aggregates_per_worker() {
        let mut db = ProfileDb::new(2, 1);
        db.extend(vec![
            OpRecord {
                worker: 0,
                batch: 0,
                node: 0,
                start_ns: 0,
                end_ns: 100,
                slack_after_ns: 50,
            },
            OpRecord {
                worker: 0,
                batch: 0,
                node: 1,
                start_ns: 150,
                end_ns: 200,
                slack_after_ns: 0,
            },
            OpRecord {
                worker: 1,
                batch: 0,
                node: 2,
                start_ns: 0,
                end_ns: 300,
                slack_after_ns: 0,
            },
        ]);
        let rep = db.slack_report();
        assert_eq!(rep[0].busy_ns, 150);
        assert_eq!(rep[0].slack_ns, 50);
        assert!((rep[0].slack_fraction - 0.25).abs() < 1e-9);
        assert_eq!(rep[1].slack_ns, 0);
    }

    #[test]
    fn chrome_trace_has_op_and_slack_slices() {
        let mut g = ramiel_ir::Graph::new("t");
        g.push_node(
            "relu0",
            ramiel_ir::OpKind::Relu,
            vec!["x".into()],
            vec!["y".into()],
        );
        let mut db = ProfileDb::new(1, 1);
        db.extend(vec![OpRecord {
            worker: 0,
            batch: 0,
            node: 0,
            start_ns: 1000,
            end_ns: 3000,
            slack_after_ns: 500,
        }]);
        db.set_epoch_offset_ns(10_000);
        let obs = ramiel_obs::Obs::enabled();
        obs.name_process("executor");
        db.export_to_obs(&obs, &g);
        let spans: Vec<_> = obs.events();
        let found: Vec<_> = spans
            .iter()
            .map(|e| (e.name.as_str(), e.cat, e.tid, e.ts_ns, e.dur_ns))
            .collect();
        assert_eq!(
            found,
            [
                ("relu0 (Relu)", "op", 0, 11_000, 2000),
                ("slack (blocked on recv)", "slack", 0, 13_000, 500),
            ]
        );
        let stats = ramiel_obs::validate_chrome_trace(&obs.to_chrome_trace()).unwrap();
        assert_eq!(stats.complete_spans, 2);
        assert_eq!(stats.named_threads, 1);
    }

    #[test]
    fn empty_db_is_sane() {
        let db = ProfileDb::new(1, 1);
        assert_eq!(db.slack_report()[0].busy_ns, 0);
        assert_eq!(db.slack_report()[0].slack_fraction, 0.0);
        let obs = ramiel_obs::Obs::enabled();
        db.export_to_obs(&obs, &ramiel_ir::Graph::new("t"));
        assert!(obs.is_empty(), "an empty profile replays no events");
    }
}
