//! The reduction rules (§II-B) with the paper's parallel-round conflict
//! resolution (§IV-D).
//!
//! On the GPU all threads of a block scan the degree array
//! simultaneously; the races the paper enumerates — two adjacent
//! degree-one vertices, two degree-two vertices in the same triangle, a
//! neighbor shared by several rule applications — are resolved by
//! "smaller vertex id wins / remove only once". We reproduce those exact
//! semantics deterministically: each *round* snapshots the eligible
//! vertices, then applies them in ascending id with a liveness/degree
//! recheck. A vertex invalidated by an earlier (smaller-id) application
//! is skipped, which is precisely the paper's tie-break.
//!
//! The snapshots are delta-driven. Each `reduce` call seeds degree-1
//! and degree-2 pools ([`parvc_prep::DegreePools`]) and an upper bound
//! on the live degrees in one flat pass; from then on every removal a
//! rule makes pools each neighbor whose degree fell to 1 or 2. A round
//! snapshot is its pool filtered to the exact degree, sorted and
//! deduplicated: the same ascending-id set a full degree-array scan
//! gathers, at the cost of the vertices that changed. Model-cycle
//! charges stay the paper's: every round pays the full-array
//! `parallel_op(|V|)` scan whether or not it rescans.

use parvc_prep::DegreePools;
use parvc_simgpu::counters::{Activity, BlockCounters};
use parvc_simgpu::exec::gather_in_range;

use crate::bound::SearchBound;
use crate::ops::Kernel;
use crate::scratch::BlockScratch;
use crate::TreeNode;

/// Statistics from one `reduce` fixpoint (how much each rule fired).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReduceStats {
    /// Vertices covered by the degree-one rule.
    pub degree_one: u64,
    /// Vertices covered by the degree-two-triangle rule.
    pub degree_two_triangle: u64,
    /// Vertices covered by the high-degree rule.
    pub high_degree: u64,
    /// Fixpoint iterations of the outer loop.
    pub rounds: u32,
}

impl<'a> Kernel<'a> {
    /// Applies all three rules until the graph stops changing
    /// (Figure 1's `reduce`, lines 14–30). Mutates `node` in place.
    ///
    /// Phase-split: one flat **classify** pass over the degree array
    /// seeds the degree pools in `scratch.pools` and bounds the largest
    /// live degree (executed through the kernel's
    /// [`ParallelExecutor`](parvc_simgpu::exec::ParallelExecutor));
    /// each round then takes its snapshot from its pool, and a serial
    /// **apply** pass walks it in ascending id with the liveness
    /// recheck, pooling every neighbor a removal brings down to degree
    /// 1 or 2. The high-degree round scans the degree array only while
    /// the degree bound exceeds its threshold. `scratch` holds the
    /// per-block buffers, reused across rounds and tree nodes.
    pub fn reduce(
        &self,
        node: &mut TreeNode,
        bound: SearchBound,
        scratch: &mut BlockScratch,
        counters: &mut BlockCounters,
    ) -> ReduceStats {
        let mut stats = ReduceStats::default();
        let mut max_degree = self.seed_pools(node, scratch);
        loop {
            stats.rounds += 1;
            let mut changed = false;
            // Figure 1 applies each rule to ITS OWN fixpoint before the
            // next (the inner `while ∃v` loops), then repeats all three
            // while anything changed.
            while self.degree_one_round(node, scratch, counters, &mut stats) {
                changed = true;
            }
            while self.degree_two_triangle_round(node, scratch, counters, &mut stats) {
                changed = true;
            }
            while self.high_degree_round(
                node,
                bound,
                &mut max_degree,
                scratch,
                counters,
                &mut stats,
            ) {
                changed = true;
            }
            if self.ext.domination_rule {
                let mut dominated = false;
                while self.domination_round(node, scratch, counters) {
                    dominated = true;
                }
                // Domination removes vertices without feeding the
                // pools: start them over from the degree array.
                if dominated {
                    changed = true;
                    max_degree = self.seed_pools(node, scratch);
                }
            }
            if !changed {
                return stats;
            }
        }
    }

    /// The classify pass: seeds `scratch.pools` with every vertex of
    /// degree 1 or 2 and returns the largest live degree, which bounds
    /// every degree until the next seeding (degrees only fall).
    fn seed_pools(&self, node: &TreeNode, scratch: &mut BlockScratch) -> i32 {
        scratch.pools.seed(
            self.exec,
            node.degrees(),
            1,
            &mut scratch.slots,
            &mut scratch.candidates,
        )
    }

    /// One parallel round of the degree-one rule: for a degree-one
    /// vertex `v` with neighbor `u`, taking `u` is never worse than
    /// taking `v`. Returns whether anything changed.
    ///
    /// **Weight gate**: the swap argument (`u` covers a superset of
    /// `v`'s edges) only bounds the cover weight when `w(u) ≤ w(v)`;
    /// applications that fail that test are skipped — the leaf may
    /// genuinely be the cheaper endpoint (a weight-1 leaf on a
    /// weight-100 hub belongs in the optimum). On a graph without
    /// weights the gate never fires.
    fn degree_one_round(
        &self,
        node: &mut TreeNode,
        scratch: &mut BlockScratch,
        counters: &mut BlockCounters,
        stats: &mut ReduceStats,
    ) -> bool {
        // Classify: the paper's threads scan the whole degree array
        // for d(v) == 1 (one wave); the pool holds the same set.
        counters.charge(
            Activity::DegreeOneRule,
            self.cost
                .parallel_op(node.len() as u64, self.block_size, self.variant),
        );
        let BlockScratch {
            candidates, pools, ..
        } = scratch;
        pools.take_snapshot(1, candidates, |v| node.degree(v) == 1);
        let mut changed = false;
        // Apply: ascending id with recheck (the §IV-D tie-break).
        for &v in candidates.iter() {
            // Recheck: an earlier (smaller-id) application may have
            // removed v's neighbor or v itself — the §IV-D tie-break.
            if node.degree(v) != 1 {
                continue;
            }
            let u = node
                .live_neighbor(self.graph, v)
                .expect("degree-one vertex has a live neighbor");
            if self.graph.weight(u) > self.graph.weight(v) {
                // Stays a candidate (re-pooled below).
                continue;
            }
            self.remove_vertex_with(node, u, Activity::DegreeOneRule, counters, |w, d| {
                pools.note(w, d)
            });
            stats.degree_one += 1;
            changed = true;
        }
        repool_survivors(node, 1, candidates, pools);
        changed
    }

    /// One parallel round of the degree-two-triangle rule: if
    /// `N(v) = {u, w}` and `uw ∈ E`, two of the triangle's vertices must
    /// be covered and `{u, w}` is never worse. Returns whether anything
    /// changed.
    ///
    /// **Weight gate**: swapping `v` out for whichever of `{u, w}` a
    /// cover is missing only bounds the weight when both partners cost
    /// at most `w(v)`; the rest are skipped (never on a graph without
    /// weights).
    fn degree_two_triangle_round(
        &self,
        node: &mut TreeNode,
        scratch: &mut BlockScratch,
        counters: &mut BlockCounters,
        stats: &mut ReduceStats,
    ) -> bool {
        counters.charge(
            Activity::DegreeTwoTriangleRule,
            self.cost
                .parallel_op(node.len() as u64, self.block_size, self.variant),
        );
        let BlockScratch {
            candidates, pools, ..
        } = scratch;
        pools.take_snapshot(2, candidates, |v| node.degree(v) == 2);
        let mut changed = false;
        for &v in candidates.iter() {
            if node.degree(v) != 2 {
                continue;
            }
            let mut live = node.live_neighbors(self.graph, v);
            let u = live
                .next()
                .expect("degree-two vertex has two live neighbors");
            let w = live
                .next()
                .expect("degree-two vertex has two live neighbors");
            drop(live);
            // Adjacency test against the ORIGINAL graph: u and w are
            // both live, so the edge survives iff it existed originally.
            counters.charge(
                Activity::DegreeTwoTriangleRule,
                self.cost.parallel_op(1, self.block_size, self.variant),
            );
            if self.graph.weight(u).max(self.graph.weight(w)) > self.graph.weight(v) {
                continue;
            }
            if self.graph.has_edge(u, w) {
                let mut note = |x, d| pools.note(x, d);
                self.remove_vertex_with(
                    node,
                    u,
                    Activity::DegreeTwoTriangleRule,
                    counters,
                    &mut note,
                );
                self.remove_vertex_with(
                    node,
                    w,
                    Activity::DegreeTwoTriangleRule,
                    counters,
                    &mut note,
                );
                stats.degree_two_triangle += 2;
                changed = true;
            }
        }
        // Non-triangle and gated vertices stay candidates: the next
        // round's snapshot (and its per-candidate charge) includes them.
        repool_survivors(node, 2, candidates, pools);
        changed
    }

    /// One parallel round of the high-degree rule: a live vertex whose
    /// degree exceeds the remaining cover budget can never be covered
    /// "from the other side" within the bound, so it joins the cover.
    /// Returns whether anything changed. The budget is in weight units,
    /// which only strengthens the argument: `d` forced neighbors cost
    /// at least `d` weight (each weight ≥ 1).
    ///
    /// When the budget is already negative the rule is skipped — the
    /// stopping condition prunes such nodes right after `reduce`
    /// (Figure 1 line 5), and a negative threshold would degenerate the
    /// rule into "remove everything".
    ///
    /// `max_degree` bounds every live degree: while it is at most the
    /// threshold the round finds nothing and skips the scan. A scan
    /// also returns the largest degree it did not gather, so after it
    /// the bound drops to the largest degree left.
    fn high_degree_round(
        &self,
        node: &mut TreeNode,
        bound: SearchBound,
        max_degree: &mut i32,
        scratch: &mut BlockScratch,
        counters: &mut BlockCounters,
        stats: &mut ReduceStats,
    ) -> bool {
        counters.charge(
            Activity::HighDegreeRule,
            self.cost
                .parallel_op(node.len() as u64, self.block_size, self.variant),
        );
        let Some(threshold) = bound.budget(node.cover_weight()) else {
            return false;
        };
        if *max_degree as i64 <= threshold {
            return false;
        }
        let BlockScratch {
            candidates,
            slots,
            pools,
            ..
        } = scratch;
        // 0 ≤ threshold < max_degree ≤ i32::MAX, so the bound fits.
        let rest_max = gather_in_range(
            self.exec,
            node.degrees(),
            threshold as i32 + 1,
            i32::MAX,
            slots,
            candidates,
        );
        let mut changed = false;
        for &v in candidates.iter() {
            // The budget shrinks as the rule fires; recompute like the
            // serial `while ∃v s.t. d(v) > best − |S| − 1` does.
            let Some(threshold) = bound.budget(node.cover_weight()) else {
                break;
            };
            if node.degree(v) < 0 || (node.degree(v) as i64) <= threshold {
                continue;
            }
            self.remove_vertex_with(node, v, Activity::HighDegreeRule, counters, |w, d| {
                pools.note(w, d)
            });
            stats.high_degree += 1;
            changed = true;
        }
        // The vertices outside the snapshot topped out at `rest_max`
        // when scanned; the entries now hold their current degrees.
        *max_degree = candidates
            .iter()
            .fold(rest_max, |max, &v| max.max(node.degree(v)));
        changed
    }
}

/// Notes the round's candidates still at `degree` back into its pool:
/// they were eligible this round and stay eligible for the next.
fn repool_survivors(node: &TreeNode, degree: i32, candidates: &[u32], pools: &mut DegreePools) {
    for &v in candidates {
        if node.degree(v) == degree {
            pools.note(v, degree);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parvc_graph::{gen, CsrGraph};
    use parvc_simgpu::CostModel;

    fn run_reduce(g: &CsrGraph, bound: SearchBound) -> (TreeNode, ReduceStats) {
        let cost = CostModel::default();
        let k = Kernel {
            block_size: 32,
            ..Kernel::sequential(g, &cost)
        };
        let mut node = TreeNode::root(g);
        let mut c = BlockCounters::new(0);
        let stats = k.reduce(&mut node, bound, &mut BlockScratch::new(), &mut c);
        node.check_consistency(g).unwrap();
        (node, stats)
    }

    #[test]
    fn degree_one_solves_paths_completely() {
        // A path reduces to nothing by repeated degree-one application.
        let g = gen::path(10);
        let (node, stats) = run_reduce(&g, SearchBound::WeightedMvc { best: u64::MAX });
        assert!(node.is_edgeless());
        assert_eq!(node.cover_size(), 5); // optimal for P10
        assert!(stats.degree_one >= 1);
    }

    #[test]
    fn degree_one_takes_the_neighbor_not_the_leaf() {
        let g = gen::star(6);
        let (node, _) = run_reduce(&g, SearchBound::WeightedMvc { best: u64::MAX });
        assert!(node.is_removed(0), "the hub must join the cover");
        assert_eq!(node.cover_size(), 1);
        assert!(node.is_edgeless());
    }

    #[test]
    fn isolated_edge_covers_exactly_one_endpoint() {
        // Both endpoints are degree-one; §IV-D: only one application
        // fires (smaller id acts, removing its neighbor).
        let g = CsrGraph::from_edges(2, &[(0, 1)]).unwrap();
        let (node, stats) = run_reduce(&g, SearchBound::WeightedMvc { best: u64::MAX });
        assert_eq!(node.cover_size(), 1);
        assert!(
            node.is_removed(1),
            "vertex 0 acts first, covering its neighbor 1"
        );
        assert!(!node.is_removed(0));
        assert_eq!(stats.degree_one, 1);
    }

    #[test]
    fn shared_neighbor_removed_once() {
        // Two leaves hanging off the same hub: one removal suffices.
        let g = CsrGraph::from_edges(3, &[(0, 2), (1, 2)]).unwrap();
        let (node, stats) = run_reduce(&g, SearchBound::WeightedMvc { best: u64::MAX });
        assert_eq!(node.cover_size(), 1);
        assert!(node.is_removed(2));
        assert_eq!(stats.degree_one, 1);
    }

    #[test]
    fn triangle_rule_takes_the_two_outer_vertices() {
        // Triangle {0,1,2} where 0 has degree 2: rule covers {1, 2}.
        // Extra pendant edges off 1 and 2 keep their degrees at 3 so the
        // degree-one rule (on 3 and 4) fires first in a different shape;
        // build it so only the triangle rule applies initially.
        let g = CsrGraph::from_edges(5, &[(0, 1), (0, 2), (1, 2), (1, 3), (2, 4), (3, 4)]).unwrap();
        // Degrees: 0:2, 1:3, 2:3, 3:2, 4:2 — no degree-one vertices.
        let (node, stats) = run_reduce(&g, SearchBound::WeightedMvc { best: u64::MAX });
        assert!(node.is_edgeless());
        assert!(stats.degree_two_triangle >= 2);
        assert!(
            node.is_removed(1) && node.is_removed(2),
            "triangle partners of 0 join"
        );
    }

    #[test]
    fn two_triangle_vertices_conflict_resolved_by_id() {
        // K3: every vertex has degree 2 and all are in one triangle.
        // Only the smallest id (0) applies; its neighbors {1,2} join.
        let g = gen::complete(3);
        let (node, stats) = run_reduce(&g, SearchBound::WeightedMvc { best: u64::MAX });
        assert_eq!(node.cover_size(), 2);
        assert!(node.is_removed(1) && node.is_removed(2));
        assert!(!node.is_removed(0));
        assert_eq!(stats.degree_two_triangle, 2);
    }

    #[test]
    fn high_degree_rule_fires_against_tight_bound() {
        // Star K_{1,5} with best = 3: hub degree 5 > 3-0-1 = 2 → hub
        // joins the cover immediately; graph becomes edgeless.
        let g = gen::star(6);
        let (node, stats) = run_reduce(&g, SearchBound::WeightedMvc { best: 3 });
        assert!(node.is_removed(0));
        assert!(node.is_edgeless());
        // The degree-one rule may get there first (it also targets the
        // hub); accept either attribution but require the hub covered.
        assert!(stats.high_degree + stats.degree_one >= 1);
    }

    #[test]
    fn high_degree_skipped_when_budget_negative() {
        let g = gen::complete(4);
        let cost = CostModel::default();
        let k = Kernel {
            block_size: 32,
            ..Kernel::sequential(&g, &cost)
        };
        let mut node = TreeNode::root(&g);
        // Burn the budget: cover 2 vertices with best = 1.
        node.remove_into_cover(&g, 0);
        node.remove_into_cover(&g, 1);
        let mut c = BlockCounters::new(0);
        let before = node.cover_size();
        k.reduce(
            &mut node,
            SearchBound::WeightedMvc { best: 1 },
            &mut BlockScratch::new(),
            &mut c,
        );
        // Remaining K2 on {2,3} triggers degree-one, but high-degree
        // must not mass-remove with a negative threshold.
        assert!(node.cover_size() <= before + 1);
    }

    #[test]
    fn reduction_preserves_optimal_cover_size() {
        // Safety of the rules: opt(G) = |S_reduce| + opt(G_reduced).
        // Verified by brute force on random graphs.
        for seed in 0..10 {
            let g = gen::gnp(12, 0.3, seed);
            let opt = crate::brute::brute_force_mvc(&g).0;
            let (node, _) = run_reduce(&g, SearchBound::WeightedMvc { best: u64::MAX });
            let residual = residual_graph(&g, &node);
            let opt_rest = crate::brute::brute_force_mvc(&residual).0;
            assert_eq!(
                node.cover_size() + opt_rest,
                opt,
                "seed {seed}: reduction changed the optimum"
            );
        }
    }

    /// The intermediate graph as a standalone CSR (for oracle checks).
    fn residual_graph(g: &CsrGraph, node: &TreeNode) -> CsrGraph {
        let edges: Vec<(u32, u32)> = g
            .edges()
            .filter(|&(u, v)| !node.is_removed(u) && !node.is_removed(v))
            .collect();
        CsrGraph::from_edges(g.num_vertices(), &edges).unwrap()
    }

    #[test]
    fn pvc_bound_threshold_used() {
        // PVC k: threshold is k - |S| (one more than MVC's best-|S|-1).
        // Star hub degree 5: with k = 5 the threshold is 5 → no fire;
        // with k = 4 threshold 4 → fires.
        let g = gen::star(7); // hub degree 6
        let (node_k6, _) = run_reduce(&g, SearchBound::Pvc { k: 6 });
        assert!(node_k6.is_edgeless());
        let (node_k4, stats_k4) = run_reduce(&g, SearchBound::Pvc { k: 4 });
        assert!(node_k4.is_removed(0));
        assert!(stats_k4.high_degree + stats_k4.degree_one >= 1);
    }
}
