//! Wall-clock progress heartbeat for long solves (`parvc solve
//! --progress[=secs]`): best-so-far bound, tree nodes, and nodes/sec
//! on stderr, on a fixed cadence.
//!
//! Like the deadline machinery, the hot loop must not read the clock
//! per node: [`Heartbeat::tick`] is one relaxed `fetch_add`, and only
//! every 256th node checks elapsed time (the same stride
//! `Deadline::expired` uses for its sticky-flag checks). The heartbeat
//! observes the search — it never changes what the solver does, so it
//! rides the same non-interference contract as the telemetry sinks.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::bound::SearchBound;
use crate::shared::BoundSrc;

/// How many ticks between clock reads: a power of two so the gate is
/// one mask of the shared node counter.
const CLOCK_STRIDE: u64 = 256;

/// A shared progress reporter, ticked once per tree node by every
/// block. Thread-safe and lock-free; emission is claimed by a single
/// compare-exchange so concurrent blocks never double-print a beat.
#[derive(Debug)]
pub struct Heartbeat {
    start: Instant,
    interval_us: u64,
    next_due_us: AtomicU64,
    nodes: AtomicU64,
    last_nodes: AtomicU64,
    last_us: AtomicU64,
}

impl Heartbeat {
    /// A heartbeat printing every `interval` (sub-millisecond cadences
    /// are clamped to 1 ms so a misparse can't spam stderr).
    pub fn new(interval: Duration) -> Self {
        let interval_us = (interval.as_micros() as u64).max(1_000);
        Heartbeat {
            start: Instant::now(),
            interval_us,
            next_due_us: AtomicU64::new(interval_us),
            nodes: AtomicU64::new(0),
            last_nodes: AtomicU64::new(0),
            last_us: AtomicU64::new(0),
        }
    }

    /// Tree nodes ticked so far.
    pub fn nodes(&self) -> u64 {
        self.nodes.load(Ordering::Relaxed)
    }

    /// Counts one tree node; every 256th tick checks the clock and, if
    /// a beat is due, prints it with the best-so-far from `bound`.
    pub fn tick(&self, bound: &BoundSrc<'_>) {
        let n = self.nodes.fetch_add(1, Ordering::Relaxed) + 1;
        if !n.is_multiple_of(CLOCK_STRIDE) {
            return;
        }
        let now_us = self.start.elapsed().as_micros() as u64;
        let due = self.next_due_us.load(Ordering::Relaxed);
        if now_us < due {
            return;
        }
        // One winner per beat: losers return without printing.
        let next = now_us + self.interval_us;
        if self
            .next_due_us
            .compare_exchange(due, next, Ordering::Relaxed, Ordering::Relaxed)
            .is_err()
        {
            return;
        }
        let prev_n = self.last_nodes.swap(n, Ordering::Relaxed);
        let prev_us = self.last_us.swap(now_us, Ordering::Relaxed);
        let dn = n.saturating_sub(prev_n);
        let dus = now_us.saturating_sub(prev_us).max(1);
        let rate = dn.saturating_mul(1_000_000) / dus;
        eprintln!(
            "[parvc {:>8.1}s] best={} nodes={} ({} nodes/s)",
            now_us as f64 / 1e6,
            best_label(bound.bound()),
            n,
            rate
        );
    }
}

/// Human label for the current incumbent: `-` until a first solution
/// exists (the atomic starts at the `u64::MAX` sentinel).
fn best_label(bound: SearchBound) -> String {
    match bound {
        SearchBound::WeightedMvc { best: u64::MAX } => "-".to_string(),
        SearchBound::WeightedMvc { best } => best.to_string(),
        SearchBound::Pvc { k } => format!("k={k}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shared::{BoundKind, WeightedBest};

    #[test]
    fn ticks_count_and_interval_gates_printing() {
        let best = WeightedBest::new(u64::MAX, Vec::new());
        let deadline = crate::shared::Deadline::new(None);
        let src = BoundSrc {
            kind: BoundKind::WeightedMvc(&best),
            deadline: &deadline,
        };
        // A one-hour interval: nothing should print, but every tick
        // must still be counted.
        let hb = Heartbeat::new(Duration::from_secs(3600));
        for _ in 0..1000 {
            hb.tick(&src);
        }
        assert_eq!(hb.nodes(), 1000);
    }

    #[test]
    fn best_labels() {
        assert_eq!(best_label(SearchBound::WeightedMvc { best: u64::MAX }), "-");
        assert_eq!(best_label(SearchBound::WeightedMvc { best: 7 }), "7");
        assert_eq!(best_label(SearchBound::Pvc { k: 3 }), "k=3");
    }
}
