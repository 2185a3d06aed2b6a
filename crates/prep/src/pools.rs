//! Degree pools: the candidate sets of the low-degree rules, fed by
//! degree decrements instead of degree-array rescans.
//!
//! The §IV-D conflict semantics give every rule round a *snapshot*:
//! the vertices at the rule's exact degree, applied in ascending id.
//! Rescanning the degree array for each snapshot costs `O(|V|)` even
//! when the round finds one vertex. A pool instead holds a superset of
//! the vertices at its degree:
//!
//! * it is seeded once from a full pass over the degree array;
//! * afterwards every removal reports each neighbor whose degree it
//!   lowered, and [`DegreePools::note`] pools that neighbor at its new
//!   degree.
//!
//! Degrees only fall, so a vertex can reach a pooled degree only
//! through such a decrement (or already sit there at seeding): the
//! pool never misses a vertex. Entries whose degree has moved on are
//! stale and dropped when a round takes its snapshot
//! ([`DegreePools::take_snapshot`] filters to the exact degree, sorts
//! and deduplicates), which leaves exactly the ascending-id set a full
//! scan would have gathered.
//!
//! One type serves both layers: the search engine's per-node reduce
//! fixpoint (`parvc_core::reduce`, degrees 1 and 2) and prep's
//! [`LowDegreeRule`](crate::LowDegreeRule) (degrees 0 to 2).

use parvc_graph::VertexId;
use parvc_simgpu::exec::{gather_in_range, ChunkSlots, ParallelExecutor};

/// The highest pooled degree.
const MAX_POOLED_DEGREE: i32 = 2;

/// Candidate vertices per low degree (`floor..=2`), each a superset of
/// the live vertices at that degree. See the module docs.
#[derive(Debug, Default, Clone)]
pub struct DegreePools {
    /// `by_degree[d]`: vertices noted at degree `d`, unordered, with
    /// stale entries and duplicates allowed.
    by_degree: [Vec<VertexId>; MAX_POOLED_DEGREE as usize + 1],
    /// The lowest pooled degree; lower degrees are ignored by
    /// [`note`](Self::note).
    floor: i32,
}

impl DegreePools {
    /// Empty pools over degrees `0..=2`.
    pub fn new() -> Self {
        DegreePools::default()
    }

    /// Empties every pool and pools degrees `floor..=2` from now on.
    /// Keeps the allocations.
    fn reset(&mut self, floor: i32) {
        debug_assert!((0..=MAX_POOLED_DEGREE).contains(&floor));
        self.floor = floor;
        for pool in &mut self.by_degree {
            pool.clear();
        }
    }

    /// Re-seeds the pools from a full degree array (removed vertices
    /// hold a negative sentinel) in one flat pass through `exec`, and
    /// returns the maximum entry of `degrees` (`i32::MIN` when empty) —
    /// an upper bound on every live degree until the next seeding,
    /// since degrees only fall.
    ///
    /// `slots` and `gathered` are caller-owned scratch; `gathered` is
    /// left holding the seeded ids.
    pub fn seed(
        &mut self,
        exec: &dyn ParallelExecutor,
        degrees: &[i32],
        floor: i32,
        slots: &mut ChunkSlots,
        gathered: &mut Vec<VertexId>,
    ) -> i32 {
        self.reset(floor);
        let mut max = gather_in_range(exec, degrees, floor, MAX_POOLED_DEGREE, slots, gathered);
        for &v in gathered.iter() {
            let d = degrees[v as usize];
            max = max.max(d);
            self.by_degree[d as usize].push(v);
        }
        max
    }

    /// Records that `v` now has degree `degree`; a no-op outside the
    /// pooled range.
    #[inline]
    pub fn note(&mut self, v: VertexId, degree: i32) {
        if degree >= self.floor && degree <= MAX_POOLED_DEGREE {
            self.by_degree[degree as usize].push(v);
        }
    }

    /// Moves pool `degree` into `out` as a round snapshot: the entries
    /// for which `at_degree` holds, ascending, without duplicates. The
    /// pool is left empty, so vertices noted while the round applies
    /// feed the next snapshot; a caller whose candidates may stay
    /// eligible notes them again after the round.
    pub fn take_snapshot(
        &mut self,
        degree: i32,
        out: &mut Vec<VertexId>,
        at_degree: impl Fn(VertexId) -> bool,
    ) {
        debug_assert!((self.floor..=MAX_POOLED_DEGREE).contains(&degree));
        out.clear();
        std::mem::swap(out, &mut self.by_degree[degree as usize]);
        out.retain(|&v| at_degree(v));
        out.sort_unstable();
        out.dedup();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parvc_simgpu::exec::SERIAL;

    #[test]
    fn seed_pools_by_degree_and_bounds_the_max() {
        let degrees = [2, -1, 1, 0, 5, 2, 1, 3];
        let mut pools = DegreePools::new();
        let mut slots = ChunkSlots::new();
        let mut gathered = Vec::new();
        let max = pools.seed(&SERIAL, &degrees, 1, &mut slots, &mut gathered);
        assert_eq!(max, 5);
        assert_eq!(gathered, vec![0, 2, 5, 6]);
        let mut out = Vec::new();
        pools.take_snapshot(1, &mut out, |v| degrees[v as usize] == 1);
        assert_eq!(out, vec![2, 6]);
        pools.take_snapshot(2, &mut out, |v| degrees[v as usize] == 2);
        assert_eq!(out, vec![0, 5]);
        // Drained: a second snapshot is empty.
        pools.take_snapshot(2, &mut out, |_| true);
        assert!(out.is_empty());
    }

    #[test]
    fn snapshot_filters_stale_entries_sorts_and_dedups() {
        let mut pools = DegreePools::new();
        pools.reset(0);
        for v in [9, 4, 7, 4, 1, 9] {
            pools.note(v, 1);
        }
        pools.note(3, 0);
        pools.note(8, 3); // above the pooled range: ignored
        let mut out = Vec::new();
        pools.take_snapshot(1, &mut out, |v| v != 7);
        assert_eq!(out, vec![1, 4, 9]);
        pools.take_snapshot(0, &mut out, |_| true);
        assert_eq!(out, vec![3]);
    }

    #[test]
    fn floor_ignores_lower_degrees() {
        let mut pools = DegreePools::new();
        pools.reset(1);
        pools.note(5, 0);
        pools.note(6, 2);
        let mut out = Vec::new();
        pools.take_snapshot(2, &mut out, |_| true);
        assert_eq!(out, vec![6]);
        assert!(pools.by_degree[0].is_empty());
    }
}
