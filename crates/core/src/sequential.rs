//! The Sequential baseline (Figure 1) as a [`SchedulePolicy`].
//!
//! A single block (one CPU thread, `B = 1`) traverses the search tree
//! depth-first with a plain unbounded stack. Child order follows the
//! recursion in Figure 1: the remove-`vmax` child (line 11) is
//! explored before the remove-`N(vmax)` child (line 12). No cycle
//! costs are charged for stack traffic — the baseline is reported in
//! wall time and its counters are informational.

use parvc_simgpu::counters::BlockCounters;
use parvc_simgpu::runtime::BlockCtx;

use crate::engine::{ExitCause, PolicyFactory, SchedulePolicy};
use crate::ops::Kernel;
use crate::shared::BoundSrc;
use crate::TreeNode;

/// The single-thread DFS policy: an unbounded LIFO, nothing shared.
pub struct SequentialPolicy {
    stack: Vec<TreeNode>,
}

impl SchedulePolicy for SequentialPolicy {
    fn next(
        &mut self,
        _kernel: &Kernel<'_>,
        _bound: BoundSrc<'_>,
        _counters: &mut BlockCounters,
    ) -> Option<TreeNode> {
        self.stack.pop()
    }

    fn dispose(&mut self, child: TreeNode, _kernel: &Kernel<'_>, _counters: &mut BlockCounters) {
        self.stack.push(child);
    }

    fn on_exit(&mut self, _cause: ExitCause, _kernel: &Kernel<'_>, _counters: &mut BlockCounters) {}
}

/// Factory for [`SequentialPolicy`]: holds the root until the (single)
/// block claims it.
pub struct SequentialFactory {
    root: parking_lot::Mutex<Option<TreeNode>>,
}

impl SequentialFactory {
    /// A fresh factory (one per solve).
    pub fn new() -> Self {
        SequentialFactory {
            root: parking_lot::Mutex::new(None),
        }
    }
}

impl Default for SequentialFactory {
    fn default() -> Self {
        Self::new()
    }
}

impl PolicyFactory for SequentialFactory {
    fn seed(&self, root: TreeNode) {
        *self.root.lock() = Some(root);
    }

    fn block_policy<'s>(
        &'s self,
        ctx: BlockCtx,
        _depth_bound: usize,
    ) -> Box<dyn SchedulePolicy + 's> {
        assert_eq!(
            ctx.block_id, 0,
            "the Sequential policy is single-block by definition"
        );
        let stack = self.root.lock().take().into_iter().collect();
        Box::new(SequentialPolicy { stack })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::brute_force_mvc;
    use crate::engine::Engine;
    use crate::extensions::Extensions;
    use crate::greedy::greedy_weighted_mvc;
    use crate::shared::{Deadline, RawParallelPvc, RawWeighted};
    use crate::verify::is_vertex_cover;
    use parvc_graph::{gen, CsrGraph};
    use parvc_simgpu::{CostModel, DeviceSpec};

    fn solve_mvc(g: &CsrGraph, initial: (u64, Vec<u32>)) -> RawWeighted {
        let device = DeviceSpec::scaled(1);
        let cost = CostModel::default();
        let deadline = Deadline::new(None);
        let engine = Engine {
            graph: g,
            device: &device,
            config: None,
            cost: &cost,
            deadline: &deadline,
            ext: Extensions::NONE,
            exec: &parvc_simgpu::exec::SERIAL,
            obs: crate::engine::EngineObs::OFF,
        };
        engine.solve_mvc(&SequentialFactory::new(), initial)
    }

    fn solve_pvc(g: &CsrGraph, k: u32) -> RawParallelPvc {
        let device = DeviceSpec::scaled(1);
        let cost = CostModel::default();
        let deadline = Deadline::new(None);
        let engine = Engine {
            graph: g,
            device: &device,
            config: None,
            cost: &cost,
            deadline: &deadline,
            ext: Extensions::NONE,
            exec: &parvc_simgpu::exec::SERIAL,
            obs: crate::engine::EngineObs::OFF,
        };
        engine.solve_pvc(&SequentialFactory::new(), k)
    }

    fn mvc(g: &CsrGraph) -> RawWeighted {
        solve_mvc(g, greedy_weighted_mvc(g))
    }

    #[test]
    fn matches_brute_force_on_random_graphs() {
        for seed in 0..12 {
            let g = gen::gnp(14, 0.35, seed);
            let out = mvc(&g);
            let (opt, _) = brute_force_mvc(&g);
            assert_eq!(out.best_weight, u64::from(opt), "seed {seed}");
            assert!(is_vertex_cover(&g, &out.best_cover));
            assert_eq!(out.best_cover.len() as u64, out.best_weight);
        }
    }

    #[test]
    fn known_instances() {
        assert_eq!(mvc(&gen::petersen()).best_weight, 6);
        assert_eq!(mvc(&gen::cycle(9)).best_weight, 5);
        assert_eq!(mvc(&gen::complete(8)).best_weight, 7);
        assert_eq!(mvc(&gen::paper_example()).best_weight, 3);
        assert_eq!(mvc(&gen::grid2d(4, 4)).best_weight, 8);
    }

    #[test]
    fn handles_edgeless_and_empty() {
        let empty = CsrGraph::from_edges(0, &[]).unwrap();
        assert_eq!(mvc(&empty).best_weight, 0);
        let edgeless = CsrGraph::from_edges(5, &[]).unwrap();
        assert_eq!(mvc(&edgeless).best_weight, 0);
    }

    #[test]
    fn pvc_agreement_with_mvc_size() {
        for seed in 0..6 {
            let g = gen::gnp(13, 0.3, seed + 100);
            let min = mvc(&g).best_weight as u32;
            // k = min - 1: infeasible (exhaustive search, no solution).
            if min > 0 {
                let below = solve_pvc(&g, min - 1);
                assert!(
                    below.cover.is_none(),
                    "seed {seed}: found sub-optimal cover"
                );
            }
            // k = min and k = min + 1: feasible, returns a valid cover.
            for dk in 0..2 {
                let out = solve_pvc(&g, min + dk);
                let cover = out.cover.expect("feasible k");
                assert!(cover.len() as u32 <= min + dk, "seed {seed}");
                assert!(is_vertex_cover(&g, &cover));
            }
        }
    }

    #[test]
    fn pvc_large_k_trivially_feasible() {
        let g = gen::complete(6);
        let out = solve_pvc(&g, 100);
        let cover = out.cover.unwrap();
        assert!(cover.len() <= 6);
        assert!(is_vertex_cover(&g, &cover));
    }

    #[test]
    fn pvc_k_zero_on_nonempty_graph_fails() {
        let g = gen::path(4);
        assert!(solve_pvc(&g, 0).cover.is_none());
    }

    #[test]
    fn greedy_optimum_is_confirmed_not_degraded() {
        // When greedy is already optimal the search must return it.
        let g = gen::star(12);
        let out = mvc(&g);
        assert_eq!(out.best_weight, 1);
        assert!(is_vertex_cover(&g, &out.best_cover));
    }

    #[test]
    fn visits_fewer_nodes_with_tighter_initial_bound() {
        let g = gen::gnp(18, 0.4, 3);
        let greedy = greedy_weighted_mvc(&g);
        let loose = solve_mvc(&g, (u64::MAX, (0..18).collect()));
        let tight = solve_mvc(&g, greedy);
        assert_eq!(loose.best_weight, tight.best_weight);
        let nodes = |raw: &RawWeighted| raw.blocks[0].tree_nodes_visited;
        assert!(
            nodes(&tight) <= nodes(&loose),
            "greedy seeding must not increase work ({} > {})",
            nodes(&tight),
            nodes(&loose)
        );
    }
}
