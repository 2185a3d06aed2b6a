//! Search bounds: the MVC/PVC stopping conditions and the high-degree
//! rule threshold (§II-B).

use crate::node::TreeNode;

/// The bound driving pruning and the high-degree rule. MVC and PVC
/// differ only here (§II-B): MVC prunes against the best cover found
/// so far, PVC against the fixed parameter `k`.
///
/// Both run in the units of the searched graph's weight channel: the
/// cost of a node is `w(S)` ([`TreeNode::cover_weight`]), which is
/// `|S|` on a graph without weights (every weight is 1). Because every
/// weight is ≥ 1, a budget of `t` still admits at most `t` more
/// vertices, keeping the `t²` edge test and degree-threshold arguments
/// sound. Cardinality solves simply search a graph without weights
/// ([`Solver`](crate::Solver) drops the channel on entry).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchBound {
    /// Minimum (weight) vertex cover: beat `best` (a snapshot of the
    /// global atomic best at node-visit time, exactly like a kernel
    /// reading it from global memory).
    WeightedMvc {
        /// Cost of the best cover known when the node was visited.
        best: u64,
    },
    /// Parameterized vertex cover: find any cover of cost ≤ `k`.
    Pvc {
        /// The parameter `k`.
        k: u32,
    },
}

impl SearchBound {
    /// The remaining cover budget of a node whose cover costs `spent`:
    /// how much more cost a solution through it may still add (MVC
    /// must *beat* `best`, PVC must stay ≤ `k`). `None` when the budget
    /// is already spent (the node will be pruned by
    /// [`prune`](Self::prune)).
    ///
    /// This is also the high-degree rule threshold: a live vertex with
    /// degree strictly greater than the budget must join the cover —
    /// excluding it forces its `d` live neighbors in, costing ≥ `d`
    /// (each weight is ≥ 1). Applying the rule with a negative
    /// threshold would meaninglessly consume the whole graph, hence
    /// `None`.
    pub fn budget(&self, spent: u64) -> Option<i64> {
        let t: i128 = match *self {
            SearchBound::WeightedMvc { best } => best as i128 - spent as i128 - 1,
            SearchBound::Pvc { k } => k as i128 - spent as i128,
        };
        // Degrees never exceed |V| < 2^32, and `CsrGraph::with_weights`
        // caps the total weight at i64::MAX, so real costs always fit;
        // the clamp only tames the inert `u64::MAX` seed bound.
        (t >= 0).then_some(t.min(i64::MAX as i128) as i64)
    }

    /// The stopping condition (Figure 1 line 5 / Figure 4 line 12): no
    /// better/feasible solution can exist at this node or below.
    ///
    /// Sub-condition 1: the cover budget is spent. Sub-condition 2: the
    /// high-degree rule capped every live degree at the budget `t`,
    /// and a budget of `t` admits at most `t` more vertices (each
    /// weighing ≥ 1), so at most `t²` edges can still be covered —
    /// more live edges than that is hopeless.
    pub fn prune(&self, node: &TreeNode) -> bool {
        match self.budget(node.cover_weight()) {
            None => true,
            Some(t) => node.num_edges() > (t as u64).saturating_mul(t as u64),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parvc_graph::gen;

    fn node_with(g: &parvc_graph::CsrGraph, removed: &[u32]) -> TreeNode {
        let mut n = TreeNode::root(g);
        for &v in removed {
            n.remove_into_cover(g, v);
        }
        n
    }

    #[test]
    fn mvc_prunes_when_budget_spent() {
        let g = gen::complete(5);
        let n = node_with(&g, &[0, 1]); // |S| = 2
        assert!(SearchBound::WeightedMvc { best: 2 }.prune(&n));
        assert!(SearchBound::WeightedMvc { best: 1 }.prune(&n));
        assert!(!SearchBound::WeightedMvc { best: 5 }.prune(&n));
    }

    #[test]
    fn mvc_edge_test() {
        // K5 minus nothing: 10 edges. With best = 4 and |S| = 0 the edge
        // budget is (4-0-1)² = 9 < 10 → prune even though |S| < best.
        let g = gen::complete(5);
        let n = TreeNode::root(&g);
        assert!(SearchBound::WeightedMvc { best: 4 }.prune(&n));
        assert!(!SearchBound::WeightedMvc { best: 5 }.prune(&n));
    }

    #[test]
    fn pvc_allows_exactly_k() {
        let g = gen::complete(4);
        let n = node_with(&g, &[0, 1, 2]); // edgeless, |S| = 3
        assert!(
            !SearchBound::Pvc { k: 3 }.prune(&n),
            "|S| == k with no edges is a solution"
        );
        assert!(SearchBound::Pvc { k: 2 }.prune(&n));
    }

    #[test]
    fn pvc_edge_test_uses_k_budget() {
        let g = gen::complete(5); // 10 edges
        let n = TreeNode::root(&g);
        assert!(SearchBound::Pvc { k: 3 }.prune(&n)); // 3² = 9 < 10
        assert!(!SearchBound::Pvc { k: 4 }.prune(&n)); // 4² = 16 ≥ 10
    }

    #[test]
    fn budgets() {
        assert_eq!(SearchBound::WeightedMvc { best: 10 }.budget(3), Some(6));
        assert_eq!(SearchBound::Pvc { k: 10 }.budget(3), Some(7));
        assert_eq!(SearchBound::WeightedMvc { best: 3 }.budget(3), None);
        assert_eq!(SearchBound::WeightedMvc { best: 4 }.budget(3), Some(0));
        assert_eq!(SearchBound::Pvc { k: 2 }.budget(5), None);
        assert_eq!(SearchBound::Pvc { k: 4 }.budget(4), Some(0));
        // The inert greedy-phase bound must not overflow.
        assert_eq!(
            SearchBound::WeightedMvc { best: u64::MAX }.budget(0),
            Some(i64::MAX)
        );
    }

    #[test]
    fn prune_runs_in_weight_units() {
        let g = gen::complete(5).with_weights(vec![4, 4, 4, 4, 4]).unwrap();
        let n = node_with(&g, &[0]); // w(S) = 4, 6 edges remain
        assert!(SearchBound::WeightedMvc { best: 4 }.prune(&n));
        // Budget 20-4-1 = 15 ≥ #edges-admitting 6 → no prune.
        assert!(!SearchBound::WeightedMvc { best: 20 }.prune(&n));
        // Edge test: budget (8-4-1)=3 → 9 ≥ 6 edges → no prune; budget
        // (7-4-1)=2 → 4 < 6 → prune on edges alone.
        assert!(!SearchBound::WeightedMvc { best: 8 }.prune(&n));
        assert!(SearchBound::WeightedMvc { best: 7 }.prune(&n));
        assert!(
            !SearchBound::WeightedMvc { best: u64::MAX }.prune(&n),
            "the inert bound must not overflow the edge test"
        );
        // PVC's k is in the same units: w(S) = 4 already exceeds k = 3.
        assert!(SearchBound::Pvc { k: 3 }.prune(&n));
        assert!(!SearchBound::Pvc { k: 7 }.prune(&n));
    }
}
