//! The delta-driven reduce fixpoint against the full-rescan reference.
//!
//! `Kernel::reduce` takes each §IV-D round snapshot from degree pools
//! fed by removals, and skips the high-degree scan while its degree
//! bound is at most the threshold. The reference below is the
//! classic formulation: every round gathers its snapshot with a flat
//! scan of the whole degree array. Both must leave the same node,
//! report the same `ReduceStats`, and charge the same `BlockCounters`,
//! down to the model-trace span sequence, under every executor —
//! across unweighted and weighted graphs, MVC and PVC bounds
//! (including exhausted budgets), the extensions, and scratch reused
//! across the tree nodes of a descent.

use parvc::core::bound::SearchBound;
use parvc::core::extensions::Extensions;
use parvc::core::ops::Kernel;
use parvc::core::reduce::ReduceStats;
use parvc::core::{BlockScratch, TreeNode};
use parvc::graph::{gen, CsrGraph};
use parvc::simgpu::counters::{Activity, BlockCounters};
use parvc::simgpu::exec::{gather_indices, ParallelExecutor, PooledExec, SERIAL};
use parvc::simgpu::{CostModel, KernelVariant};
use proptest::prelude::*;

/// The full-rescan reduce: one flat degree-array scan per round.
fn reference_reduce(
    k: &Kernel<'_>,
    node: &mut TreeNode,
    bound: SearchBound,
    scratch: &mut BlockScratch,
    counters: &mut BlockCounters,
) -> ReduceStats {
    let mut stats = ReduceStats::default();
    loop {
        stats.rounds += 1;
        let mut changed = false;
        while degree_one_round(k, node, scratch, counters, &mut stats) {
            changed = true;
        }
        while degree_two_triangle_round(k, node, scratch, counters, &mut stats) {
            changed = true;
        }
        while high_degree_round(k, node, bound, scratch, counters, &mut stats) {
            changed = true;
        }
        if k.ext.domination_rule {
            while k.domination_round(node, scratch, counters) {
                changed = true;
            }
        }
        if !changed {
            return stats;
        }
    }
}

fn scan_charge(k: &Kernel<'_>, node: &TreeNode) -> u64 {
    k.cost
        .parallel_op(node.len() as u64, k.block_size, k.variant)
}

fn degree_one_round(
    k: &Kernel<'_>,
    node: &mut TreeNode,
    scratch: &mut BlockScratch,
    counters: &mut BlockCounters,
    stats: &mut ReduceStats,
) -> bool {
    counters.charge(Activity::DegreeOneRule, scan_charge(k, node));
    gather_indices(
        k.exec,
        node.len() as usize,
        &|v| node.degree(v) == 1,
        &mut scratch.slots,
        &mut scratch.candidates,
    );
    let mut changed = false;
    for &v in &scratch.candidates {
        if node.degree(v) != 1 {
            continue;
        }
        let u = node.live_neighbor(k.graph, v).unwrap();
        if k.graph.weight(u) > k.graph.weight(v) {
            continue;
        }
        k.remove_vertex(node, u, Activity::DegreeOneRule, counters);
        stats.degree_one += 1;
        changed = true;
    }
    changed
}

fn degree_two_triangle_round(
    k: &Kernel<'_>,
    node: &mut TreeNode,
    scratch: &mut BlockScratch,
    counters: &mut BlockCounters,
    stats: &mut ReduceStats,
) -> bool {
    counters.charge(Activity::DegreeTwoTriangleRule, scan_charge(k, node));
    gather_indices(
        k.exec,
        node.len() as usize,
        &|v| node.degree(v) == 2,
        &mut scratch.slots,
        &mut scratch.candidates,
    );
    let mut changed = false;
    for &v in &scratch.candidates {
        if node.degree(v) != 2 {
            continue;
        }
        let mut live = node.live_neighbors(k.graph, v);
        let (u, w) = (live.next().unwrap(), live.next().unwrap());
        drop(live);
        counters.charge(
            Activity::DegreeTwoTriangleRule,
            k.cost.parallel_op(1, k.block_size, k.variant),
        );
        if k.graph.weight(u).max(k.graph.weight(w)) > k.graph.weight(v) {
            continue;
        }
        if k.graph.has_edge(u, w) {
            k.remove_vertex(node, u, Activity::DegreeTwoTriangleRule, counters);
            k.remove_vertex(node, w, Activity::DegreeTwoTriangleRule, counters);
            stats.degree_two_triangle += 2;
            changed = true;
        }
    }
    changed
}

fn high_degree_round(
    k: &Kernel<'_>,
    node: &mut TreeNode,
    bound: SearchBound,
    scratch: &mut BlockScratch,
    counters: &mut BlockCounters,
    stats: &mut ReduceStats,
) -> bool {
    counters.charge(Activity::HighDegreeRule, scan_charge(k, node));
    let Some(threshold) = bound.budget(node.cover_weight()) else {
        return false;
    };
    gather_indices(
        k.exec,
        node.len() as usize,
        &|v| node.degree(v) as i64 > threshold,
        &mut scratch.slots,
        &mut scratch.candidates,
    );
    let mut changed = false;
    for &v in &scratch.candidates {
        let Some(threshold) = bound.budget(node.cover_weight()) else {
            break;
        };
        if node.degree(v) < 0 || (node.degree(v) as i64) <= threshold {
            continue;
        }
        k.remove_vertex(node, v, Activity::HighDegreeRule, counters);
        stats.high_degree += 1;
        changed = true;
    }
    changed
}

/// One side's state over a descent: the node, a scratch reused across
/// every reduce call, and traced counters.
struct Side {
    node: TreeNode,
    scratch: BlockScratch,
    counters: BlockCounters,
}

impl Side {
    fn new(g: &CsrGraph) -> Self {
        let mut counters = BlockCounters::new(0);
        counters.enable_tracing();
        Side {
            node: TreeNode::root(g),
            scratch: BlockScratch::new(),
            counters,
        }
    }

    /// The counters, span log included (`BlockCounters` has no
    /// `PartialEq`; its `Debug` form prints every field).
    fn counters(&self) -> String {
        format!("{:?}", self.counters)
    }
}

/// Where two counter fingerprints first differ, with some context.
fn first_difference(a: &str, b: &str) -> String {
    let at = a
        .bytes()
        .zip(b.bytes())
        .position(|(x, y)| x != y)
        .unwrap_or(a.len().min(b.len()));
    let window = |s: &str| -> String {
        s.get(at.saturating_sub(80)..(at + 80).min(s.len()))
            .unwrap_or("")
            .to_string()
    };
    format!(
        "at byte {at}: ...{}... vs reference ...{}...",
        window(a),
        window(b)
    )
}

/// Runs a descent on `g` with both reduces side by side: reduce, then
/// branch on each of `branches` still live (cover it), reduce again.
/// Returns the first divergence.
fn compare_descent(
    g: &CsrGraph,
    exec: &dyn ParallelExecutor,
    ext: Extensions,
    bound: SearchBound,
    pre_removed: &[u32],
    branches: &[u32],
) -> Result<(), String> {
    let cost = CostModel::default();
    let k = Kernel {
        block_size: 32,
        variant: KernelVariant::GlobalMem,
        ext,
        exec,
        ..Kernel::sequential(g, &cost)
    };
    let (mut pooled, mut reference) = (Side::new(g), Side::new(g));
    for &v in pre_removed {
        if !pooled.node.is_removed(v) {
            pooled.node.remove_into_cover(g, v);
            reference.node.remove_into_cover(g, v);
        }
    }
    let mut step = 0;
    let mut branch = branches.iter();
    loop {
        let a = k.reduce(
            &mut pooled.node,
            bound,
            &mut pooled.scratch,
            &mut pooled.counters,
        );
        let b = reference_reduce(
            &k,
            &mut reference.node,
            bound,
            &mut reference.scratch,
            &mut reference.counters,
        );
        if a != b {
            return Err(format!("step {step}: stats {a:?} vs reference {b:?}"));
        }
        if pooled.node != reference.node {
            return Err(format!(
                "step {step}: node {:?} vs reference {:?}",
                pooled.node, reference.node
            ));
        }
        let (a, b) = (pooled.counters(), reference.counters());
        if a != b {
            return Err(format!(
                "step {step}: counters diverge {}",
                first_difference(&a, &b)
            ));
        }
        pooled
            .node
            .check_consistency(g)
            .map_err(|e| format!("step {step}: {e}"))?;
        // Branch: cover the next listed vertex that is still live.
        let next = branch.by_ref().find(|&&v| !pooled.node.is_removed(v));
        let Some(&v) = next else {
            return Ok(());
        };
        k.remove_vertex(
            &mut pooled.node,
            v,
            Activity::RemoveMaxVertex,
            &mut pooled.counters,
        );
        k.remove_vertex(
            &mut reference.node,
            v,
            Activity::RemoveMaxVertex,
            &mut reference.counters,
        );
        step += 1;
    }
}

/// A random graph and descent: `weights` 0 = none, 1 =
/// `:w=uniform`-style (1..=5), 2 = `:w=degree`; `bound_kind` 0 = inert
/// MVC, 1 = tight MVC (often exhausted after the pre-removals), 2 =
/// PVC.
#[derive(Debug, Clone)]
struct Case {
    n: u32,
    edges: Vec<(u32, u32)>,
    weights: u32,
    seed: u64,
    pre_removed: Vec<u32>,
    branches: Vec<u32>,
    bound_kind: u32,
    bound_value: u64,
    extensions: bool,
}

impl Case {
    fn graph(&self) -> CsrGraph {
        let g = CsrGraph::from_edges(self.n, &self.edges).expect("filtered edges are valid");
        match self.weights {
            0 => g,
            1 => gen::with_uniform_weights(g, 5, self.seed),
            _ => gen::with_degree_weights(g),
        }
    }

    fn bound(&self) -> SearchBound {
        match self.bound_kind {
            0 => SearchBound::WeightedMvc { best: u64::MAX },
            1 => SearchBound::WeightedMvc {
                best: self.bound_value,
            },
            _ => SearchBound::Pvc {
                k: self.bound_value as u32,
            },
        }
    }

    fn extensions(&self) -> Extensions {
        if self.extensions {
            Extensions::ALL
        } else {
            Extensions::NONE
        }
    }
}

fn arb_case() -> impl Strategy<Value = Case> {
    (4u32..=40).prop_flat_map(|n| {
        (
            proptest::collection::vec((0..n, 0..n), 0..120),
            (0u32..3, 0u64..1000),
            proptest::collection::vec(0..n, 0..4),
            proptest::collection::vec(0..n, 0..6),
            (0u32..3, 0u64..=(n as u64 + 2)),
            0u32..2,
        )
            .prop_map(
                move |(pairs, (weights, seed), pre_removed, branches, (bk, bv), ext)| Case {
                    n,
                    edges: pairs.into_iter().filter(|(u, v)| u != v).collect(),
                    weights,
                    seed,
                    pre_removed,
                    branches,
                    bound_kind: bk,
                    bound_value: bv,
                    extensions: ext == 1,
                },
            )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Pool-driven reduce == full-rescan reduce, serial and pooled.
    #[test]
    fn pooled_reduce_matches_full_rescan(case in arb_case()) {
        let g = case.graph();
        let pooled3 = PooledExec::new(3);
        for exec in [&SERIAL as &dyn ParallelExecutor, &pooled3] {
            let r = compare_descent(
                &g,
                exec,
                case.extensions(),
                case.bound(),
                &case.pre_removed,
                &case.branches,
            );
            prop_assert!(r.is_ok(), "{:?} under {:?}: {}", case, exec, r.unwrap_err());
        }
    }
}

/// Instances of at least `MIN_PARALLEL` (4096) vertices, where the
/// pooled executor really splits the seeding and high-degree scans.
#[test]
fn large_instances_match_under_both_executors() {
    let instances = [
        ("gnp", gen::gnp(5000, 0.0007, 3)),
        ("ba", gen::barabasi_albert(4500, 2, 5)),
        ("path", gen::path(6000)),
        (
            "gnp:w=uniform",
            gen::with_uniform_weights(gen::gnp(5000, 0.0007, 4), 5, 9),
        ),
        (
            "ba:w=degree",
            gen::with_degree_weights(gen::barabasi_albert(4500, 2, 6)),
        ),
    ];
    let pooled3 = PooledExec::new(3);
    for (name, g) in &instances {
        let n = g.num_vertices() as u64;
        let branches: Vec<u32> = (0..8).map(|i| (i * 977) % g.num_vertices()).collect();
        for bound in [
            SearchBound::WeightedMvc { best: u64::MAX },
            SearchBound::WeightedMvc { best: n / 3 },
            SearchBound::WeightedMvc { best: 4 },
            SearchBound::Pvc { k: (n / 3) as u32 },
            SearchBound::Pvc { k: 2 },
        ] {
            for ext in [Extensions::NONE, Extensions::ALL] {
                for exec in [&SERIAL as &dyn ParallelExecutor, &pooled3] {
                    compare_descent(g, exec, ext, bound, &[], &branches).unwrap_or_else(|e| {
                        panic!("{name} {bound:?} ext={ext:?} under {exec:?}: {e}")
                    });
                }
            }
        }
    }
}
