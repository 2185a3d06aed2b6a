//! Optional solver extensions beyond the paper's three rules.
//!
//! The paper's related work (Akiba & Iwata \[38\], the PACE solvers \[37\])
//! builds on richer reduction/pruning portfolios; two of the classic
//! ones are compatible with the degree-array representation (they only
//! ever *remove* vertices, never merge them, unlike e.g. degree-two
//! folding) and are implemented here behind [`Extensions`] flags:
//!
//! * **Domination rule** — if a live vertex `u` has a live neighbor `v`
//!   with `N[v] ⊆ N[u]` (closed neighborhoods in the intermediate
//!   graph), some minimum cover contains `u`: any cover avoiding `u`
//!   must contain all of `N(u) ∋ v`, and swapping `v` for `u` keeps it
//!   a cover. The degree-one and degree-two-triangle rules are special
//!   cases. Off by default (it is `O(Σ min(d(u), d(v)))` per round).
//! * **Matching lower bound** — a maximal matching of the intermediate
//!   graph needs one cover vertex per edge, each costing at least its
//!   edge's cheaper endpoint, so `w(S) + Σ_M min(w(u), w(v)) ≤` any
//!   completion (`|S| + |M|` on a graph without weights); prune when
//!   that already meets the bound. Strictly stronger than the paper's
//!   edge-count test on sparse residuals.
//!
//! Accounting: the domination rule's scans and neighborhood marks are
//! not charged, but each vertex it covers is removed through
//! [`Kernel::remove_vertex`] and charged to
//! [`Activity::HighDegreeRule`](parvc_simgpu::counters::Activity::HighDegreeRule),
//! the nearest of the paper's reduction activities. The matching lower
//! bound charges nothing. Both extensions are off in the paper-faithful
//! configuration, so the reproduced Figure 6 breakdown is unaffected
//! unless they are switched on.

use parvc_simgpu::counters::BlockCounters;

use crate::bound::SearchBound;
use crate::ops::Kernel;
use crate::scratch::BlockScratch;
use crate::split::SplitParams;
use crate::TreeNode;

/// Optional pruning/reduction extensions (all off by default — the
/// paper-faithful configuration).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Extensions {
    /// Apply the domination rule in every `reduce` fixpoint.
    pub domination_rule: bool,
    /// Prune with a greedy maximal-matching lower bound.
    pub matching_lower_bound: bool,
    /// Re-split the search at tree nodes whose residual graph has
    /// disconnected (see [`crate::split`]). `None` = off.
    ///
    /// Not part of [`Extensions::ALL`]: the reduction extensions
    /// strengthen every node the same way, while component branching
    /// changes the search-tree *shape* and is toggled separately (via
    /// [`SolverBuilder::component_branching`](crate::SolverBuilder::component_branching)
    /// or the `ComponentSteal` policy).
    pub component_branching: Option<SplitParams>,
    /// Which algorithm produces the initial upper bounds — the solve
    /// launch seed and `split`'s per-component sub-instance budgets
    /// (see [`crate::approx`]). Not part of [`Extensions::ALL`]:
    /// seeding changes where the search *starts*, not how nodes are
    /// strengthened.
    pub seed_strategy: crate::approx::SeedStrategy,
}

impl Extensions {
    /// The paper-faithful configuration (no extensions).
    pub const NONE: Extensions = Extensions {
        domination_rule: false,
        matching_lower_bound: false,
        component_branching: None,
        seed_strategy: crate::approx::SeedStrategy::Greedy,
    };

    /// Both reduction/pruning extensions on (component branching stays
    /// a separate toggle — see
    /// [`Extensions::component_branching`]).
    pub const ALL: Extensions = Extensions {
        domination_rule: true,
        matching_lower_bound: true,
        component_branching: None,
        seed_strategy: crate::approx::SeedStrategy::Greedy,
    };
}

impl<'a> Kernel<'a> {
    /// The stopping condition, strengthened by the matching lower bound
    /// when enabled. Replaces bare `bound.prune(node)` in the traversal
    /// loops.
    /// `scratch` provides the bound phase's endpoint flags (reused
    /// across nodes — no allocation on the hot path).
    pub fn prune(&self, node: &TreeNode, bound: SearchBound, scratch: &mut BlockScratch) -> bool {
        if bound.prune(node) {
            return true;
        }
        if self.ext.matching_lower_bound && !node.is_edgeless() {
            // Every completion costs at least this much: prune when no
            // budget is left for it.
            let least = node
                .cover_weight()
                .saturating_add(self.residual_weighted_matching_bound(node, scratch));
            return bound.budget(least).is_none();
        }
        false
    }

    /// The least weight every completion of `S` still pays: the
    /// cheaper endpoint of each greedily matched residual edge (matched
    /// edges are disjoint, so the minima sum — see
    /// [`parvc_graph::matching::min_weight_matching_bound`]). On a
    /// graph without weights this is the matching's size.
    pub fn residual_weighted_matching_bound(
        &self,
        node: &TreeNode,
        scratch: &mut BlockScratch,
    ) -> u64 {
        let matched = scratch.matched_for(node.len() as usize);
        let mut weight = 0u64;
        for u in 0..node.len() {
            if matched[u as usize] || node.degree(u) <= 0 {
                continue;
            }
            for &v in self.graph.neighbors(u) {
                if v > u && !matched[v as usize] && !node.is_removed(v) {
                    matched[u as usize] = true;
                    matched[v as usize] = true;
                    weight += self.graph.weight(u).min(self.graph.weight(v));
                    break;
                }
            }
        }
        weight
    }

    /// One round of the domination rule: scan live vertices in id order
    /// and cover every `u` that dominates one of its neighbors.
    /// Returns whether anything changed.
    ///
    /// An application additionally requires `w(u) ≤ w(v)` for the
    /// dominated neighbor `v` — the swap that justifies the rule must
    /// not increase the cover weight (always true without weights).
    pub fn domination_round(
        &self,
        node: &mut TreeNode,
        scratch: &mut BlockScratch,
        counters: &mut BlockCounters,
    ) -> bool {
        let mut changed = false;
        let mark = scratch.mark_for(node.len() as usize);
        for u in 0..node.len() {
            // Re-check liveness: earlier removals this round may have
            // touched u. Degree-0/1 vertices are handled by the cheaper
            // base rules.
            if node.degree(u) < 2 {
                continue;
            }
            // Mark N[u].
            mark[u as usize] = true;
            for v in node.live_neighbors(self.graph, u) {
                mark[v as usize] = true;
            }
            // Does u dominate any live neighbor v (N[v] ⊆ N[u])?
            let dominates = node
                .live_neighbors(self.graph, u)
                .filter(|&v| node.degree(v) <= node.degree(u))
                .filter(|&v| self.graph.weight(u) <= self.graph.weight(v))
                .any(|v| node.live_neighbors(self.graph, v).all(|w| mark[w as usize]));
            // Unmark before mutating.
            mark[u as usize] = false;
            for v in node.live_neighbors(self.graph, u) {
                mark[v as usize] = false;
            }
            if dominates {
                self.remove_vertex(
                    node,
                    u,
                    parvc_simgpu::counters::Activity::HighDegreeRule,
                    counters,
                );
                changed = true;
            }
        }
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::brute_force_mvc;
    use parvc_graph::{gen, CsrGraph};
    use parvc_simgpu::CostModel;

    fn kernel<'a>(g: &'a CsrGraph, cost: &'a CostModel, ext: Extensions) -> Kernel<'a> {
        Kernel {
            block_size: 32,
            ext,
            ..Kernel::sequential(g, cost)
        }
    }

    #[test]
    fn matching_bound_on_known_graphs() {
        let cost = CostModel::default();
        // A perfect matching on C6 has 3 edges → bound 3 (= MVC).
        let c6 = gen::cycle(6);
        let mut scratch = BlockScratch::new();
        let k = kernel(&c6, &cost, Extensions::NONE);
        assert_eq!(
            k.residual_weighted_matching_bound(&TreeNode::root(&c6), &mut scratch),
            3
        );
        // Star: one matched edge regardless of leaves.
        let star = gen::star(9);
        let k = kernel(&star, &cost, Extensions::NONE);
        assert_eq!(
            k.residual_weighted_matching_bound(&TreeNode::root(&star), &mut scratch),
            1
        );
    }

    #[test]
    fn matching_bound_respects_removals() {
        let g = gen::path(5); // 0-1-2-3-4
        let cost = CostModel::default();
        let k = kernel(&g, &cost, Extensions::NONE);
        let mut node = TreeNode::root(&g);
        node.remove_into_cover(&g, 2); // splits into two disjoint edges
        assert_eq!(
            k.residual_weighted_matching_bound(&node, &mut BlockScratch::new()),
            2
        );
    }

    #[test]
    fn matching_prune_is_stronger_than_edge_count() {
        // A perfect matching on 12 vertices: 6 edges. The paper's edge
        // test with best=4 allows (4-0-1)²=9 ≥ 6 edges → no prune; the
        // matching bound sees 6 ≥ 4 → prune.
        let edges: Vec<(u32, u32)> = (0..6).map(|i| (2 * i, 2 * i + 1)).collect();
        let g = CsrGraph::from_edges(12, &edges).unwrap();
        let cost = CostModel::default();
        let node = TreeNode::root(&g);
        let bound = SearchBound::WeightedMvc { best: 4 };
        assert!(!bound.prune(&node), "edge-count test must not fire");
        let k = kernel(
            &g,
            &cost,
            Extensions {
                matching_lower_bound: true,
                ..Extensions::NONE
            },
        );
        assert!(
            k.prune(&node, bound, &mut BlockScratch::new()),
            "matching bound must fire"
        );
    }

    #[test]
    fn domination_covers_the_dominator() {
        // K4 minus an edge: 0-1, 0-2, 0-3, 1-2, 1-3 (no 2-3 edge).
        // N[2] = {0,1,2} ⊆ N[0] = {0,1,2,3}: 0 dominates 2 → 0 covered.
        let g = CsrGraph::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]).unwrap();
        let cost = CostModel::default();
        let k = kernel(&g, &cost, Extensions::ALL);
        let mut node = TreeNode::root(&g);
        let mut c = BlockCounters::new(0);
        assert!(k.domination_round(&mut node, &mut BlockScratch::new(), &mut c));
        assert!(node.is_removed(0));
        node.check_consistency(&g).unwrap();
    }

    #[test]
    fn extensions_preserve_optimum() {
        let cost = CostModel::default();
        for seed in 0..10 {
            let g = gen::gnp(12, 0.35, seed + 900);
            let (opt, _) = brute_force_mvc(&g);
            let k = kernel(&g, &cost, Extensions::ALL);
            let mut node = TreeNode::root(&g);
            let mut c = BlockCounters::new(0);
            // Domination applied to a fixpoint must keep the optimum:
            // opt = |S| + opt(residual).
            let mut scratch = BlockScratch::new();
            while k.domination_round(&mut node, &mut scratch, &mut c) {}
            node.check_consistency(&g).unwrap();
            let residual: Vec<(u32, u32)> = g
                .edges()
                .filter(|&(u, v)| !node.is_removed(u) && !node.is_removed(v))
                .collect();
            let rg = CsrGraph::from_edges(12, &residual).unwrap();
            assert_eq!(
                node.cover_size() + brute_force_mvc(&rg).0,
                opt,
                "seed {seed}: domination changed the optimum"
            );
        }
    }
}
