//! Safety of the reduction rules and integrity of the degree-array
//! representation under arbitrary operation sequences.

use parvc::core::bound::SearchBound;
use parvc::core::brute::brute_force_mvc;
use parvc::core::ops::Kernel;
use parvc::core::{BlockScratch, TreeNode};
use parvc::graph::CsrGraph;
use parvc::simgpu::counters::BlockCounters;
use parvc::simgpu::{CostModel, KernelVariant};
use proptest::prelude::*;

fn arb_graph(max_n: u32) -> impl Strategy<Value = CsrGraph> {
    (3u32..=max_n).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 0..50).prop_map(move |pairs| {
            let edges: Vec<(u32, u32)> = pairs.into_iter().filter(|(u, v)| u != v).collect();
            CsrGraph::from_edges(n, &edges).expect("filtered edges are valid")
        })
    })
}

fn residual(g: &CsrGraph, node: &TreeNode) -> CsrGraph {
    let edges: Vec<(u32, u32)> = g
        .edges()
        .filter(|&(u, v)| !node.is_removed(u) && !node.is_removed(v))
        .collect();
    CsrGraph::from_edges(g.num_vertices(), &edges).expect("subset of valid edges")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The fundamental safety property: reductions never change the
    /// optimum — opt(G) = |S_reduced| + opt(G_residual).
    #[test]
    fn reduce_preserves_optimum(g in arb_graph(13)) {
        let cost = CostModel::default();
        let kernel = Kernel { block_size: 32, variant: KernelVariant::SharedMem, ..Kernel::sequential(&g, &cost) };
        let mut node = TreeNode::root(&g);
        let mut counters = BlockCounters::new(0);
        kernel.reduce(&mut node, SearchBound::WeightedMvc { best: u64::MAX }, &mut BlockScratch::new(), &mut counters);
        node.check_consistency(&g).expect("degree array corrupted");

        let (opt, _) = brute_force_mvc(&g);
        let (opt_rest, _) = brute_force_mvc(&residual(&g, &node));
        prop_assert_eq!(node.cover_size() + opt_rest, opt);
    }

    /// After a full reduce with an inert bound, no degree-one vertex
    /// and no degree-two triangle may remain (fixpoint is real).
    #[test]
    fn reduce_reaches_a_fixpoint(g in arb_graph(16)) {
        let cost = CostModel::default();
        let kernel = Kernel { block_size: 32, variant: KernelVariant::SharedMem, ..Kernel::sequential(&g, &cost) };
        let mut node = TreeNode::root(&g);
        let mut counters = BlockCounters::new(0);
        kernel.reduce(&mut node, SearchBound::WeightedMvc { best: u64::MAX }, &mut BlockScratch::new(), &mut counters);

        for v in g.vertices() {
            prop_assert_ne!(node.degree(v), 1, "degree-one vertex {} survived", v);
            if node.degree(v) == 2 {
                let nbrs: Vec<u32> = node.live_neighbors(&g, v).collect();
                prop_assert!(
                    !g.has_edge(nbrs[0], nbrs[1]),
                    "triangle at degree-two vertex {} survived",
                    v
                );
            }
        }
    }

    /// Degree-array integrity under random removal sequences: counters
    /// and degrees stay consistent with a recomputation from CSR.
    #[test]
    fn degree_array_integrity(g in arb_graph(16), picks in proptest::collection::vec(0u32..16, 1..10)) {
        let mut node = TreeNode::root(&g);
        for p in picks {
            let v = p % g.num_vertices();
            if !node.is_removed(v) {
                node.remove_into_cover(&g, v);
            }
            node.check_consistency(&g).expect("corrupted after removal");
        }
        // Cover size equals sentinel count; edges only ever shrink.
        prop_assert_eq!(node.cover_vertices().len() as u32, node.cover_size());
        prop_assert!(node.num_edges() <= g.num_edges());
    }

    /// The PVC bound can only prune MORE than an equally-tight MVC
    /// bound (k vs best = k+1 are equivalent budgets).
    #[test]
    fn pvc_and_mvc_budget_equivalence(g in arb_graph(12), k in 0u32..6) {
        let node = TreeNode::root(&g);
        let pvc = SearchBound::Pvc { k };
        let mvc = SearchBound::WeightedMvc { best: u64::from(k) + 1 };
        prop_assert_eq!(pvc.prune(&node), mvc.prune(&node));
    }

    /// Greedy upper-bounds the optimum and returns a genuine cover.
    #[test]
    fn greedy_bounds_hold(g in arb_graph(13)) {
        let (size, cover) = parvc::core::greedy::greedy_weighted_mvc(&g);
        let (opt, _) = brute_force_mvc(&g);
        prop_assert!(size >= u64::from(opt));
        prop_assert!(parvc::core::is_vertex_cover(&g, &cover));
        prop_assert_eq!(size as usize, cover.len());
    }
}

/// Regression: the high-degree rule must respect a budget that shrinks
/// *during* the round (recompute-per-removal semantics).
#[test]
fn high_degree_budget_shrinks_during_round() {
    // Star-of-stars: center 0 with hubs 1..=3, each hub with 4 leaves.
    let mut edges = vec![(0u32, 1u32), (0, 2), (0, 3)];
    let mut next = 4;
    for hub in 1..=3 {
        for _ in 0..4 {
            edges.push((hub, next));
            next += 1;
        }
    }
    let g = CsrGraph::from_edges(next, &edges).unwrap();
    let cost = CostModel::default();
    let kernel = Kernel {
        block_size: 32,
        variant: KernelVariant::SharedMem,
        ..Kernel::sequential(&g, &cost)
    };
    let mut node = TreeNode::root(&g);
    let mut counters = BlockCounters::new(0);
    kernel.reduce(
        &mut node,
        SearchBound::WeightedMvc { best: 4 },
        &mut BlockScratch::new(),
        &mut counters,
    );
    node.check_consistency(&g).unwrap();
    // The optimum is {1,2,3} (size 3): every hub covered; reductions
    // with best=4 may solve it outright or leave a kernel — but they
    // must never overshoot the budget by mass-removal.
    assert!(
        node.cover_size() <= 4,
        "reduction overshot the cover budget"
    );
}

#[test]
fn reduce_on_disconnected_components_is_independent() {
    // Two disjoint paths: reductions must solve both independently.
    let g = CsrGraph::from_edges(8, &[(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)]).unwrap();
    let cost = CostModel::default();
    let kernel = Kernel {
        block_size: 32,
        variant: KernelVariant::SharedMem,
        ..Kernel::sequential(&g, &cost)
    };
    let mut node = TreeNode::root(&g);
    let mut counters = BlockCounters::new(0);
    kernel.reduce(
        &mut node,
        SearchBound::WeightedMvc { best: u64::MAX },
        &mut BlockScratch::new(),
        &mut counters,
    );
    assert!(node.is_edgeless());
    assert_eq!(node.cover_size(), 4); // P4 needs 2 each
}
