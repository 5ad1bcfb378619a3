//! Per-edge channel metrics for the cluster executors.
//!
//! A [`ChannelMeter`] is a k×k matrix of atomic cells, one per directed
//! cluster pair. Senders bump `sends`/`bytes` and the in-flight depth on
//! their way into the channel; receivers decrement the depth and attribute
//! blocked time to the edge the message finally arrived on. Everything is
//! lock-free so metering never perturbs the schedule it measures.

use std::sync::atomic::{AtomicU64, Ordering};

#[derive(Default)]
struct Cell {
    sends: AtomicU64,
    recvs: AtomicU64,
    bytes: AtomicU64,
    copied_bytes: AtomicU64,
    blocked_ns: AtomicU64,
    in_flight: AtomicU64,
    max_in_flight: AtomicU64,
}

/// Aggregated statistics for one directed cluster edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelEdgeStats {
    pub from: usize,
    pub to: usize,
    pub sends: u64,
    pub recvs: u64,
    /// Logical payload bytes carried by the edge (what a process-based
    /// transport would have to serialize).
    pub bytes: u64,
    /// Bytes the sender actually deep-copied to build the messages. With
    /// shared-buffer tensor values a send is a refcount bump plus a small
    /// header, so `copied_bytes` ≪ `bytes`; the gap is the zero-copy win.
    pub copied_bytes: u64,
    /// Total time receivers spent blocked waiting for a message that
    /// arrived on this edge, in nanoseconds.
    pub blocked_ns: u64,
    /// High-water mark of messages sent-but-not-yet-received on this edge.
    pub max_in_flight: u64,
}

/// Lock-free per-edge channel metering over `k` clusters/workers.
pub struct ChannelMeter {
    k: usize,
    cells: Vec<Cell>,
}

impl ChannelMeter {
    pub fn new(k: usize) -> ChannelMeter {
        ChannelMeter {
            k,
            cells: (0..k * k).map(|_| Cell::default()).collect(),
        }
    }

    pub fn workers(&self) -> usize {
        self.k
    }

    fn cell(&self, from: usize, to: usize) -> &Cell {
        &self.cells[from * self.k + to]
    }

    /// Record a send of `bytes` logical payload bytes from `from` to `to`,
    /// of which `copied` bytes were actually deep-copied by the sender
    /// (shallow value headers for Arc-shared tensors).
    pub fn on_send(&self, from: usize, to: usize, bytes: u64, copied: u64) {
        let c = self.cell(from, to);
        c.sends.fetch_add(1, Ordering::Relaxed);
        c.bytes.fetch_add(bytes, Ordering::Relaxed);
        c.copied_bytes.fetch_add(copied, Ordering::Relaxed);
        let depth = c.in_flight.fetch_add(1, Ordering::Relaxed) + 1;
        c.max_in_flight.fetch_max(depth, Ordering::Relaxed);
    }

    /// Record a receive on edge `from → to`, attributing `blocked_ns` of
    /// receiver wait time to that edge.
    pub fn on_recv(&self, from: usize, to: usize, blocked_ns: u64) {
        let c = self.cell(from, to);
        c.recvs.fetch_add(1, Ordering::Relaxed);
        c.blocked_ns.fetch_add(blocked_ns, Ordering::Relaxed);
        // Saturate rather than wrap if a recv races ahead of its send count.
        let _ = c
            .in_flight
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(1))
            });
    }

    /// Snapshot of every edge that saw traffic, ordered by (from, to).
    pub fn stats(&self) -> Vec<ChannelEdgeStats> {
        let mut out = Vec::new();
        for from in 0..self.k {
            for to in 0..self.k {
                let c = self.cell(from, to);
                let sends = c.sends.load(Ordering::Relaxed);
                let recvs = c.recvs.load(Ordering::Relaxed);
                if sends == 0 && recvs == 0 {
                    continue;
                }
                out.push(ChannelEdgeStats {
                    from,
                    to,
                    sends,
                    recvs,
                    bytes: c.bytes.load(Ordering::Relaxed),
                    copied_bytes: c.copied_bytes.load(Ordering::Relaxed),
                    blocked_ns: c.blocked_ns.load(Ordering::Relaxed),
                    max_in_flight: c.max_in_flight.load(Ordering::Relaxed),
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meters_edges_independently() {
        let m = ChannelMeter::new(3);
        m.on_send(0, 1, 100, 32);
        m.on_send(0, 1, 50, 32);
        m.on_recv(0, 1, 7);
        m.on_send(2, 0, 8, 8);
        let stats = m.stats();
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].from, 0);
        assert_eq!(stats[0].to, 1);
        assert_eq!(stats[0].sends, 2);
        assert_eq!(stats[0].recvs, 1);
        assert_eq!(stats[0].bytes, 150);
        assert_eq!(stats[0].copied_bytes, 64);
        assert_eq!(stats[0].blocked_ns, 7);
        assert_eq!(stats[0].max_in_flight, 2);
        assert_eq!(stats[1].from, 2);
        assert_eq!(stats[1].to, 0);
    }

    #[test]
    fn recv_without_send_saturates() {
        let m = ChannelMeter::new(2);
        m.on_recv(0, 1, 1);
        m.on_recv(0, 1, 1);
        let stats = m.stats();
        assert_eq!(stats[0].recvs, 2);
        assert_eq!(stats[0].max_in_flight, 0);
    }
}
