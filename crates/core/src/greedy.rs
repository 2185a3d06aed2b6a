//! The greedy MVC approximation (§II-B).
//!
//! Runs on the CPU before every kernel launch, serving two roles:
//! it initializes the global `best` (Figure 1 line 1), and its size
//! bounds the search depth, sizing the pre-allocated per-block stacks
//! (§IV-E) — no branch ever covers more vertices than `best`.

use parvc_graph::{CsrGraph, VertexId};
use parvc_simgpu::counters::{Activity, BlockCounters};
use parvc_simgpu::CostModel;

use crate::bound::SearchBound;
use crate::ops::Kernel;
use crate::scratch::BlockScratch;
use crate::TreeNode;

/// Greedy approximate minimum (weight) vertex cover: apply the
/// weight-gated reduction rules, then repeatedly remove the live
/// vertex with the best degree-per-weight ratio until edgeless.
/// Returns the cover weight and the cover itself — the seed for
/// [`SearchMode::WeightedMvc`](crate::engine::SearchMode).
///
/// On a graph without weights every ratio is the degree, so this is
/// the paper's greedy: reduce, remove the max-degree vertex (smallest
/// id on ties), repeat — and the returned weight is the cover size.
pub fn greedy_weighted_mvc(g: &CsrGraph) -> (u64, Vec<VertexId>) {
    let deadline = crate::shared::Deadline::new(None);
    greedy_weighted_mvc_bounded(g, &deadline)
}

/// [`greedy_weighted_mvc`] under a wall-clock budget. The greedy loop
/// is `O(best · |V|)`, which on `Scale::Massive` instances can exceed
/// the whole solve budget before the engine even launches; when
/// `deadline` expires mid-loop the residual graph is finished in
/// linear time with the endpoints of a maximal matching
/// (`finish_with_matching`) — a valid cover whose residual part stays
/// within 2× of the residual optimum (in cardinality) — and the solve
/// reports `timed_out` through the deadline's sticky flag.
pub fn greedy_weighted_mvc_bounded(
    g: &CsrGraph,
    deadline: &crate::shared::Deadline,
) -> (u64, Vec<VertexId>) {
    let cost = CostModel::default();
    let kernel = Kernel::sequential(g, &cost);
    let mut counters = BlockCounters::new(u32::MAX);
    let mut scratch = BlockScratch::new();
    let mut node = TreeNode::root(g);
    // No `best` exists yet, so the high-degree rule is inert (`u64::MAX`
    // budget); the degree-one and degree-two-triangle rules do fire,
    // under their weight gates.
    let bound = SearchBound::WeightedMvc { best: u64::MAX };
    loop {
        if deadline.expired() {
            finish_with_matching(g, &mut node);
            break;
        }
        kernel.reduce(&mut node, bound, &mut scratch, &mut counters);
        if node.is_edgeless() {
            break;
        }
        // Pick the live vertex maximizing d(v)/w(v) — covers the most
        // edges per weight unit (ties: smaller id, like the unweighted
        // max-degree pick). Cross-multiplied in u128 so huge weights
        // cannot overflow.
        let pick = (0..node.len())
            .filter(|&v| node.degree(v) > 0)
            .max_by(|&a, &b| {
                let ra = node.degree(a) as u128 * g.weight(b) as u128;
                let rb = node.degree(b) as u128 * g.weight(a) as u128;
                ra.cmp(&rb).then(b.cmp(&a))
            })
            .expect("non-edgeless graph has a live vertex");
        kernel.remove_vertex(&mut node, pick, Activity::RemoveMaxVertex, &mut counters);
    }
    (node.cover_weight(), node.cover_vertices())
}

/// Deadline-expiry fallback: cover the residual graph with the
/// endpoints of a greedy maximal matching of its live edges,
/// `O(|V| + |E|)`. Every live edge has a matched endpoint afterwards
/// (maximality), so the node ends edgeless and the cover verifies; the
/// residual part is at most 2× the residual optimum — the old fallback
/// ("take every positive-degree vertex") had no bound at all.
fn finish_with_matching(g: &CsrGraph, node: &mut TreeNode) {
    for u in g.vertices() {
        if node.degree(u) <= 0 {
            continue;
        }
        let Some(v) = node.live_neighbor(g, u) else {
            continue;
        };
        node.remove_into_cover(g, u);
        node.remove_into_cover(g, v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::brute_force_mvc;
    use crate::verify::is_vertex_cover;
    use parvc_graph::gen;

    #[test]
    fn greedy_returns_a_valid_cover() {
        for seed in 0..8 {
            let g = gen::gnp(40, 0.15, seed);
            let (size, cover) = greedy_weighted_mvc(&g);
            assert_eq!(size as usize, cover.len());
            assert!(
                is_vertex_cover(&g, &cover),
                "seed {seed} produced a non-cover"
            );
        }
    }

    #[test]
    fn greedy_is_at_least_optimal() {
        for seed in 0..8 {
            let g = gen::gnp(12, 0.3, seed);
            let (greedy, _) = greedy_weighted_mvc(&g);
            let (opt, _) = brute_force_mvc(&g);
            assert!(
                greedy >= u64::from(opt),
                "seed {seed}: greedy {greedy} below optimum {opt}"
            );
        }
    }

    #[test]
    fn greedy_exact_on_easy_shapes() {
        // Reductions alone solve paths, stars, and trees optimally.
        assert_eq!(greedy_weighted_mvc(&gen::path(9)).0, 4);
        assert_eq!(greedy_weighted_mvc(&gen::star(10)).0, 1);
        assert_eq!(greedy_weighted_mvc(&gen::paper_example()).0, 3);
    }

    #[test]
    fn greedy_on_clique() {
        // K_n: every step removes one vertex; cover of n-1 is optimal.
        assert_eq!(greedy_weighted_mvc(&gen::complete(7)).0, 6);
    }

    #[test]
    fn greedy_on_edgeless_is_empty() {
        let g = parvc_graph::CsrGraph::from_edges(6, &[]).unwrap();
        assert_eq!(greedy_weighted_mvc(&g), (0, vec![]));
    }

    #[test]
    fn weighted_greedy_returns_valid_covers_above_the_optimum() {
        for seed in 0..6 {
            let g = gen::with_uniform_weights(gen::gnp(12, 0.3, seed), 10, seed);
            let (weight, cover) = greedy_weighted_mvc(&g);
            assert_eq!(weight, g.cover_weight(&cover));
            assert!(is_vertex_cover(&g, &cover), "seed {seed}");
            let (opt, _) = crate::brute::weighted_brute_force(&g);
            assert!(weight >= opt, "seed {seed}: greedy {weight} below {opt}");
        }
    }

    #[test]
    fn weighted_greedy_avoids_the_expensive_hub() {
        // Star with a costly hub: without weights the greedy takes the
        // hub; with them it must prefer the leaves (weight 5 < 100).
        let g = gen::star(6).with_weights(vec![100, 1, 1, 1, 1, 1]).unwrap();
        let (weight, cover) = greedy_weighted_mvc(&g);
        assert!(is_vertex_cover(&g, &cover));
        assert_eq!(weight, 5, "five weight-1 leaves beat the hub");
        assert_eq!(
            greedy_weighted_mvc(&g.without_weights()),
            (1, vec![0]),
            "the cardinality greedy still takes the hub"
        );
    }

    #[test]
    fn unit_weights_match_a_graph_without_weights() {
        for seed in 0..6 {
            let g = gen::gnp(20, 0.2, seed + 60);
            let plain = greedy_weighted_mvc(&g);
            let unit = g.clone().with_weights(vec![1; 20]).unwrap();
            assert_eq!(
                greedy_weighted_mvc(&unit),
                plain,
                "seed {seed}: unit weights must not change the pick"
            );
        }
    }

    #[test]
    fn expired_deadline_yields_matching_endpoints_not_everything() {
        use std::time::Duration;
        // A pre-expired deadline: the old fallback swept all six star
        // vertices into the cover; the matching fallback takes the two
        // endpoints of the single matched edge.
        let g = gen::star(6);
        let deadline = crate::shared::Deadline::new(Some(Duration::ZERO));
        let (size, cover) = greedy_weighted_mvc_bounded(&g, &deadline);
        assert!(deadline.was_hit());
        assert!(is_vertex_cover(&g, &cover), "timed-out seed must verify");
        assert_eq!(size, 2, "one matched edge, two endpoints");

        let w = gen::star(6).with_weights(vec![100, 1, 1, 1, 1, 1]).unwrap();
        let deadline = crate::shared::Deadline::new(Some(Duration::ZERO));
        let (weight, cover) = greedy_weighted_mvc_bounded(&w, &deadline);
        assert!(is_vertex_cover(&w, &cover), "timed-out seed must verify");
        assert_eq!(weight, 101, "hub + one leaf, not all 105");
    }

    #[test]
    fn expired_deadline_stays_within_twice_the_optimum() {
        use std::time::Duration;
        for seed in 0..6 {
            let g = gen::gnp(14, 0.3, seed + 70);
            let deadline = crate::shared::Deadline::new(Some(Duration::ZERO));
            let (size, cover) = greedy_weighted_mvc_bounded(&g, &deadline);
            assert!(is_vertex_cover(&g, &cover), "seed {seed}");
            let (opt, _) = brute_force_mvc(&g);
            assert!(
                size <= 2 * u64::from(opt),
                "seed {seed}: {size} > 2 x {opt}"
            );
        }
    }
}
