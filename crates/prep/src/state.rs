//! The mutable working instance the preprocessing rules operate on.
//!
//! Unlike the engine's `TreeNode` (which only distinguishes *live* from
//! *removed into the cover*), kernelization needs a third disposition:
//! a vertex can be proven **avoidable** — some optimal cover skips it —
//! and dropped from the instance without ever entering the cover. The
//! state therefore tracks `Live | InCover | Excluded` per vertex plus
//! the same live-degree array the §IV-B representation uses, so the
//! degree rules read exactly like their in-loop counterparts in
//! `parvc_core::reduce`.

use parvc_graph::{CsrGraph, VertexId};

/// Disposition of a vertex during preprocessing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VertexState {
    /// Still part of the shrinking instance.
    Live,
    /// Forced into the cover: provably in *some* optimal cover.
    InCover,
    /// Proven avoidable: *some* optimal cover skips it, and all of its
    /// remaining neighbors are already covered.
    Excluded,
}

/// The shrinking instance: the immutable original graph plus a
/// per-vertex disposition and live-degree array.
pub struct PrepState<'g> {
    graph: &'g CsrGraph,
    state: Vec<VertexState>,
    degree: Vec<i32>,
    live_vertices: u32,
    live_edges: u64,
    forced: Vec<VertexId>,
    excluded: Vec<VertexId>,
}

impl<'g> PrepState<'g> {
    /// A fresh state: every vertex live, degrees as in `g`.
    pub fn new(graph: &'g CsrGraph) -> Self {
        PrepState {
            graph,
            state: vec![VertexState::Live; graph.num_vertices() as usize],
            degree: graph.vertices().map(|v| graph.degree(v) as i32).collect(),
            live_vertices: graph.num_vertices(),
            live_edges: graph.num_edges(),
            forced: Vec::new(),
            excluded: Vec::new(),
        }
    }

    /// The original graph this state shrinks.
    pub fn graph(&self) -> &'g CsrGraph {
        self.graph
    }

    /// Whether `v` is still part of the instance.
    #[inline]
    pub fn is_live(&self, v: VertexId) -> bool {
        self.state[v as usize] == VertexState::Live
    }

    /// Live degree of `v` (meaningful only while `v` is live).
    #[inline]
    pub fn degree(&self, v: VertexId) -> i32 {
        self.degree[v as usize]
    }

    /// Number of live vertices remaining.
    pub fn live_vertices(&self) -> u32 {
        self.live_vertices
    }

    /// Number of live edges remaining.
    pub fn live_edges(&self) -> u64 {
        self.live_edges
    }

    /// The live vertices, ascending.
    pub fn live_ids(&self) -> Vec<VertexId> {
        (0..self.graph.num_vertices())
            .filter(|&v| self.is_live(v))
            .collect()
    }

    /// The live neighbors of `v`.
    pub fn live_neighbors<'a>(&'a self, v: VertexId) -> impl Iterator<Item = VertexId> + 'a {
        self.graph
            .neighbors(v)
            .iter()
            .copied()
            .filter(move |&u| self.is_live(u))
    }

    /// Vertices forced into the cover so far (application order).
    pub fn forced(&self) -> &[VertexId] {
        &self.forced
    }

    /// Vertices proven avoidable so far (application order).
    pub fn excluded(&self) -> &[VertexId] {
        &self.excluded
    }

    /// Forces live vertex `v` into the cover, deleting its edges.
    pub fn take_into_cover(&mut self, v: VertexId) {
        self.take_into_cover_with(v, |_, _| {});
    }

    /// [`take_into_cover`](Self::take_into_cover), reporting each live
    /// neighbor with its lowered degree to `on_decrement` — the feed of
    /// the [`DegreePools`](crate::DegreePools).
    pub(crate) fn take_into_cover_with(
        &mut self,
        v: VertexId,
        mut on_decrement: impl FnMut(VertexId, i32),
    ) {
        assert!(self.is_live(v), "covering non-live vertex {v}");
        let d = self.degree[v as usize];
        self.state[v as usize] = VertexState::InCover;
        self.live_vertices -= 1;
        self.live_edges -= d as u64;
        self.forced.push(v);
        if d > 0 {
            for &u in self.graph.neighbors(v) {
                if self.is_live(u) {
                    self.degree[u as usize] -= 1;
                    on_decrement(u, self.degree[u as usize]);
                }
            }
        }
    }

    /// Drops live vertex `v` from the instance without covering it.
    /// Only legal once `v` is isolated (every remaining neighbor is
    /// already in the cover), which is when exclusion is trivially
    /// optimum-preserving.
    pub fn exclude_isolated(&mut self, v: VertexId) {
        assert!(self.is_live(v), "excluding non-live vertex {v}");
        assert_eq!(self.degree[v as usize], 0, "excluding non-isolated {v}");
        self.state[v as usize] = VertexState::Excluded;
        self.live_vertices -= 1;
        self.excluded.push(v);
    }

    /// Consumes the state into `(forced, excluded)` lists.
    pub fn into_decisions(self) -> (Vec<VertexId>, Vec<VertexId>) {
        (self.forced, self.excluded)
    }

    /// Recomputes degrees and counters from scratch and compares —
    /// test/debug oracle, `O(|V| + |E|)`.
    pub fn check_consistency(&self) -> Result<(), String> {
        let mut edges = 0u64;
        let mut live = 0u32;
        for v in self.graph.vertices() {
            if !self.is_live(v) {
                continue;
            }
            live += 1;
            let d = self.live_neighbors(v).count() as i32;
            if d != self.degree(v) {
                return Err(format!(
                    "vertex {v}: stored degree {} but {d} live neighbors",
                    self.degree(v)
                ));
            }
            edges += d as u64;
        }
        if live != self.live_vertices {
            return Err(format!(
                "live_vertices {} but recount {live}",
                self.live_vertices
            ));
        }
        if edges / 2 != self.live_edges {
            return Err(format!(
                "live_edges {} but recount {}",
                self.live_edges,
                edges / 2
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parvc_graph::gen;

    #[test]
    fn cover_and_exclude_update_counters() {
        let g = gen::star(5); // hub 0, leaves 1..4
        let mut st = PrepState::new(&g);
        assert_eq!(st.live_edges(), 4);
        st.take_into_cover(0);
        assert_eq!(st.live_edges(), 0);
        assert_eq!(st.live_vertices(), 4);
        for v in 1..5 {
            assert_eq!(st.degree(v), 0);
            st.exclude_isolated(v);
        }
        assert_eq!(st.live_vertices(), 0);
        assert_eq!(st.forced(), &[0]);
        assert_eq!(st.excluded(), &[1, 2, 3, 4]);
        st.check_consistency().unwrap();
    }

    #[test]
    #[should_panic(expected = "excluding non-isolated")]
    fn exclude_requires_isolation() {
        let g = gen::path(3);
        let mut st = PrepState::new(&g);
        st.exclude_isolated(1);
    }

    #[test]
    fn consistency_oracle_detects_drift() {
        let g = gen::cycle(6);
        let mut st = PrepState::new(&g);
        st.take_into_cover(0);
        st.check_consistency().unwrap();
        st.live_edges += 3;
        assert!(st.check_consistency().is_err());
    }
}
