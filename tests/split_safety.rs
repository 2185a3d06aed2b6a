//! Safety of in-search component branching (`parvc_core::split`):
//! split-on and split-off must agree with the brute-force oracle under
//! every scheduling policy, for MVC and PVC, across the generator
//! corpus — plus a regression on a graph engineered to disconnect only
//! at branching depth ≥ 2 (where only the *in-search* split, not
//! `parvc-prep`'s up-front decomposition, can catch it).

use parvc::core::bound::SearchBound;
use parvc::core::brute::{brute_force_mvc, weighted_brute_force};
use parvc::core::greedy::greedy_weighted_mvc;
use parvc::core::ops::Kernel;
use parvc::core::split::{SplitBackend, SplitBound, SplitParams};
use parvc::core::{is_vertex_cover, Algorithm, Solver, TreeNode};
use parvc::graph::{gen, ops, CsrGraph};
use parvc::simgpu::counters::{Activity, BlockCounters};
use parvc::simgpu::{CostModel, KernelVariant};
use proptest::prelude::*;

/// Every policy, with an aggressive split trigger so small residuals
/// still exercise the machinery.
fn policies() -> Vec<(&'static str, Algorithm)> {
    vec![
        ("sequential", Algorithm::Sequential),
        ("stackonly", Algorithm::StackOnly { start_depth: 4 }),
        ("hybrid", Algorithm::Hybrid),
        ("worksteal", Algorithm::WorkStealing),
        ("batch", Algorithm::Batched),
        ("compsteal", Algorithm::ComponentSteal),
    ]
}

fn solver(algorithm: Algorithm, split: bool) -> Solver {
    let mut b = Solver::builder().algorithm(algorithm).grid_limit(Some(6));
    if split {
        b = b.component_branching_params(SplitParams {
            min_live: 4,
            max_depth: 16,
            ..SplitParams::default()
        });
    }
    b.build()
}

/// The corpus whose families disconnect in the most dissimilar ways:
/// G(n,p) (rarely), preferential attachment (tree-like, often), grids
/// (cut lines), and sparse multi-component graphs (immediately).
fn arb_corpus_graph() -> impl Strategy<Value = (&'static str, CsrGraph)> {
    (0u8..4, 0u64..1_000).prop_map(|(family, seed)| match family {
        0 => ("gnp", gen::gnp(16 + (seed % 6) as u32, 0.25, seed)),
        1 => ("ba", gen::barabasi_albert(18 + (seed % 6) as u32, 2, seed)),
        2 => (
            "grid",
            gen::grid2d(3 + (seed % 2) as u32, 3 + (seed / 7 % 3) as u32),
        ),
        _ => (
            "components",
            gen::sparse_components(18 + (seed % 6) as u32, 4, 0.4, seed),
        ),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The tentpole safety property: splitting on and off agree with
    /// brute force across the corpus, under every policy.
    #[test]
    fn split_on_and_off_agree_with_brute_force((family, g) in arb_corpus_graph()) {
        let (opt, _) = brute_force_mvc(&g);
        for (name, algorithm) in policies() {
            for split in [false, true] {
                let r = solver(algorithm, split).solve_mvc(&g);
                prop_assert_eq!(
                    r.size, opt,
                    "{} (split={}) vs brute force on {}", name, split, family
                );
                prop_assert!(
                    is_vertex_cover(&g, &r.cover),
                    "{} (split={}) non-cover on {}", name, split, family
                );
                prop_assert_eq!(r.cover.len() as u32, r.size);
            }
        }
    }

    /// Weighted MVC through component-sum nodes: split-on and
    /// split-off must agree with the weighted oracle under every
    /// policy — the budgeted sub-searches, sibling budgets, and
    /// combine step all run in weight units.
    #[test]
    fn weighted_split_on_and_off_agree_with_the_oracle(
        (family, g) in arb_corpus_graph(),
        wseed in 0u64..1000,
    ) {
        let g = gen::with_uniform_weights(g, 10, wseed);
        let (opt, _) = weighted_brute_force(&g);
        for (name, algorithm) in policies() {
            for split in [false, true] {
                let mut b = Solver::builder()
                    .algorithm(algorithm)
                    .grid_limit(Some(6))
                    .weighted();
                if split {
                    b = b.component_branching_params(SplitParams {
                        min_live: 4,
                        max_depth: 16,
                        ..SplitParams::default()
                    });
                }
                let r = b.build().solve_mvc(&g);
                prop_assert_eq!(
                    r.weight, opt,
                    "{} (weighted, split={}) vs oracle on {}", name, split, family
                );
                prop_assert!(
                    is_vertex_cover(&g, &r.cover),
                    "{} (weighted, split={}) non-cover on {}", name, split, family
                );
            }
        }
    }

    /// PVC through component-sum nodes: feasibility answers around the
    /// optimum must be exact with splitting on.
    #[test]
    fn split_pvc_answers_are_exact((family, g) in arb_corpus_graph(), dk in 0u32..3) {
        let (opt, _) = brute_force_mvc(&g);
        let k = (opt + dk).saturating_sub(1);
        for (name, algorithm) in policies() {
            let r = solver(algorithm, true).solve_pvc(&g, k);
            if k >= opt {
                let cover = r.cover.expect("feasible k must yield a cover");
                prop_assert!(cover.len() as u32 <= k, "{} cover exceeds k on {}", name, family);
                prop_assert!(is_vertex_cover(&g, &cover), "{} non-cover on {}", name, family);
            } else {
                prop_assert!(
                    r.cover.is_none(),
                    "{} (split) found an impossible cover on {}", name, family
                );
            }
        }
    }
}

/// Two dense 9-vertex G(n,p) blobs joined by exactly two bridge edges
/// (`0–9` and `4–13`). The seed is chosen (and the test re-verifies at
/// runtime) so that no reduction or branch disconnects the residual at
/// depth 0 or 1 — the blobs only separate once branching has cut both
/// bridges, at depth ≥ 2, which only the *in-search* split can catch.
fn depth2_graph() -> CsrGraph {
    let seed = 10;
    let a = gen::gnp(9, 0.45, seed);
    let b = gen::gnp(9, 0.45, seed + 1000);
    let mut edges: Vec<(u32, u32)> = a.edges().collect();
    edges.extend(b.edges().map(|(u, v)| (u + 9, v + 9)));
    edges.push((0, 9));
    edges.push((4, 13));
    CsrGraph::from_edges(18, &edges).unwrap()
}

/// Whether the residual graph (live vertices with degree ≥ 1) of
/// `node` is connected.
fn residual_connected(g: &CsrGraph, node: &TreeNode) -> bool {
    let live: Vec<u32> = (0..node.len()).filter(|&v| node.degree(v) > 0).collect();
    let (sub, _) = ops::induced_subgraph(g, &live);
    ops::is_connected(&sub)
}

#[test]
fn disconnection_at_depth_two_is_caught_by_in_search_split() {
    let g = depth2_graph();
    let (opt, _) = brute_force_mvc(&g);
    assert_eq!(opt, 10, "the construction's optimum moved");
    assert!(ops::is_connected(&g), "the construction must be connected");

    // Structural preconditions: mirroring the engine's first steps, the
    // residual stays connected at the root and after either depth-1
    // branch — prep's up-front split can never fire here.
    let cost = CostModel::default();
    let kernel = Kernel {
        block_size: 32,
        variant: KernelVariant::SharedMem,
        ..Kernel::sequential(&g, &cost)
    };
    let best = greedy_weighted_mvc(&g).0;
    let bound = SearchBound::WeightedMvc { best };
    let mut c = BlockCounters::new(0);
    let mut root = TreeNode::root(&g);
    kernel.reduce(
        &mut root,
        bound,
        &mut parvc::core::BlockScratch::new(),
        &mut c,
    );
    assert!(
        residual_connected(&g, &root),
        "root must stay connected after reduction"
    );
    let vmax = kernel.find_max_degree(&root, &mut c).unwrap();
    let mut left = root.clone();
    kernel.remove_neighbors(&mut left, vmax, Activity::RemoveNeighbors, &mut c);
    kernel.reduce(
        &mut left,
        bound,
        &mut parvc::core::BlockScratch::new(),
        &mut c,
    );
    let mut right = root.clone();
    kernel.remove_vertex(&mut right, vmax, Activity::RemoveMaxVertex, &mut c);
    kernel.reduce(
        &mut right,
        bound,
        &mut parvc::core::BlockScratch::new(),
        &mut c,
    );
    for (label, child) in [("remove-N(vmax)", &left), ("remove-vmax", &right)] {
        assert!(
            child.is_edgeless() || residual_connected(&g, child),
            "{label} child must not disconnect at depth 1"
        );
    }

    // The regression: with splitting on, the search must still take at
    // least one split (at depth ≥ 2, by the preconditions above) and
    // stay exact under every policy.
    for (name, algorithm) in policies() {
        let on = solver(algorithm, true).solve_mvc(&g);
        assert_eq!(on.size, opt, "{name} (split on)");
        assert!(is_vertex_cover(&g, &on.cover), "{name} non-cover");
        let off = solver(algorithm, false).solve_mvc(&g);
        assert_eq!(off.size, opt, "{name} (split off)");
    }
    let seq = solver(Algorithm::Sequential, true).solve_mvc(&g);
    let splits = seq.stats.report.split_totals();
    assert!(
        splits.taken >= 1,
        "no split taken although the graph disconnects at depth 2"
    );
    assert!(splits.components >= 2 * splits.taken);
}

/// The weighted split regression: two expensive-hub communities
/// joined by one bridge — the weighted optimum differs from the
/// unweighted one (so a sub-search silently running cardinality
/// arithmetic cannot pass), the residual disconnects once branching
/// cuts the bridge, and every policy must stay weight-exact with
/// splitting on and off.
#[test]
fn weighted_split_regression_where_the_optima_differ() {
    // Hub 0 over leaves 1..5, hub 6 over leaves 7..11, bridge 0-6.
    let mut edges: Vec<(u32, u32)> = (1..6).map(|v| (0, v)).collect();
    edges.extend((7..12).map(|v| (6, v)));
    edges.push((0, 6));
    let g = CsrGraph::from_edges(12, &edges)
        .unwrap()
        .with_weights(vec![30, 1, 1, 1, 1, 1, 30, 1, 1, 1, 1, 1])
        .unwrap();
    let (w_opt, _) = weighted_brute_force(&g);
    let (c_opt, _) = brute_force_mvc(&g);
    assert_eq!(c_opt, 2, "cardinality: the two hubs");
    assert_eq!(w_opt, 35, "weight: one hub for the bridge + five leaves");
    assert_ne!(w_opt, c_opt as u64);

    for (name, algorithm) in policies() {
        for split in [false, true] {
            let mut b = Solver::builder()
                .algorithm(algorithm)
                .grid_limit(Some(6))
                .weighted();
            if split {
                b = b.component_branching_params(SplitParams {
                    min_live: 4,
                    max_depth: 16,
                    ..SplitParams::default()
                });
            }
            let r = b.build().solve_mvc(&g);
            assert_eq!(r.weight, w_opt, "{name} (weighted, split={split})");
            assert!(is_vertex_cover(&g, &r.cover), "{name}");
        }
    }
}

/// ComponentSteal on a graph that never disconnects degrades to plain
/// work stealing — and must stay exact.
#[test]
fn compsteal_without_any_split_is_sound() {
    let g = gen::p_hat_complement(40, 2, 5);
    let expect = solver(Algorithm::Sequential, false).solve_mvc(&g);
    let r = solver(Algorithm::ComponentSteal, true).solve_mvc(&g);
    assert_eq!(r.size, expect.size);
    assert!(is_vertex_cover(&g, &r.cover));
    assert_eq!(r.stats.report.split_totals().taken, 0);
}

/// The two connectivity backends, as full split parameter sets. The
/// BFS arm also pins the PR 3 matching bound so the union-find arm's
/// LP bound is exercised against it in the full-solve property.
fn backend_params(backend: SplitBackend) -> SplitParams {
    SplitParams {
        min_live: 4,
        max_depth: 16,
        backend,
        bound: SplitBound::Matching,
    }
}

/// Extracts the component partition a backend reports at `node`, as
/// `old_ids` member lists (canonically ordered by `detect_components`).
fn components_of(
    kernel: &Kernel<'_>,
    node: &parvc::core::TreeNode,
    backend: SplitBackend,
    conn: &mut parvc::core::Connectivity,
) -> Option<Vec<Vec<u32>>> {
    let mut c = BlockCounters::new(0);
    parvc::core::split::detect_components(kernel, node, backend_params(backend), conn, &mut c)
        .map(|comps| comps.into_iter().map(|s| s.old_ids).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The union-find satellite property: at **every** node of a
    /// branching descent — including jumps back to earlier nodes,
    /// which cross the tracker's checkpoint and force the dirty-region
    /// rebuild — the incremental union-find backend reports exactly
    /// the components the from-scratch BFS reports, under cardinality
    /// and weighted reductions alike.
    #[test]
    fn union_find_and_bfs_report_identical_components(
        (family, g) in arb_corpus_graph(),
        wseed in 0u64..1000,
        branch_bits in 0u32..256,
        wbit in 0u8..2,
    ) {
        let weighted = wbit == 1;
        let g = if weighted {
            gen::with_uniform_weights(g, 10, wseed)
        } else {
            g
        };
        let cost = CostModel::default();
        let kernel = Kernel {
            block_size: 32,
            variant: KernelVariant::SharedMem,
            ..Kernel::sequential(&g, &cost)
        };
        let best = if weighted {
            u64::MAX - 1
        } else {
            u64::from(g.num_vertices())
        };
        let bound = SearchBound::WeightedMvc { best };
        let mut c = BlockCounters::new(0);
        let mut conn = parvc::core::Connectivity::new();
        let mut node = TreeNode::root(&g);
        let mut checkpoints: Vec<TreeNode> = Vec::new();
        for level in 0..8u32 {
            kernel.reduce(&mut node, bound, &mut parvc::core::BlockScratch::new(), &mut c);
            let bfs = components_of(
                &kernel, &node, SplitBackend::Bfs,
                &mut parvc::core::Connectivity::new(),
            );
            let uf = components_of(&kernel, &node, SplitBackend::UnionFind, &mut conn);
            prop_assert_eq!(
                &bfs, &uf,
                "{}: backends disagree at level {} (weighted={})", family, level, weighted
            );
            // Jump back every third level to cross the checkpoint (the
            // popped node resurrects vertices, forcing a rebuild).
            if level % 3 == 2 {
                if let Some(earlier) = checkpoints.pop() {
                    node = earlier;
                    continue;
                }
            }
            let Some(vmax) = kernel.find_max_degree(&node, &mut c) else { break };
            if node.degree(vmax) <= 0 {
                break;
            }
            checkpoints.push(node.clone());
            if (branch_bits >> level) & 1 == 0 {
                kernel.remove_vertex(&mut node, vmax, Activity::RemoveMaxVertex, &mut c);
            } else {
                kernel.remove_neighbors(&mut node, vmax, Activity::RemoveNeighbors, &mut c);
            }
        }
    }

    /// Full-solve equivalence: a deterministic Sequential traversal
    /// explores the identical tree under either backend — same
    /// optimum, same number of checks, same splits taken — for MVC,
    /// PVC, and weighted MVC.
    #[test]
    fn backends_explore_identical_trees((family, g) in arb_corpus_graph(), wseed in 0u64..1000) {
        let solve = |backend, weighted: bool| {
            let mut b = Solver::builder()
                .algorithm(Algorithm::Sequential)
                .component_branching_params(backend_params(backend));
            if weighted {
                b = b.weighted();
            }
            b.build()
        };
        for weighted in [false, true] {
            let g = if weighted {
                gen::with_uniform_weights(g.clone(), 10, wseed)
            } else {
                g.clone()
            };
            let bfs = solve(SplitBackend::Bfs, weighted).solve_mvc(&g);
            let uf = solve(SplitBackend::UnionFind, weighted).solve_mvc(&g);
            prop_assert_eq!(bfs.size, uf.size, "{} (weighted={})", family, weighted);
            prop_assert_eq!(bfs.weight, uf.weight, "{} (weighted={})", family, weighted);
            prop_assert_eq!(
                bfs.stats.tree_nodes, uf.stats.tree_nodes,
                "{} (weighted={}): backends explored different trees", family, weighted
            );
            let (sb, su) = (bfs.stats.report.split_totals(), uf.stats.report.split_totals());
            prop_assert_eq!(sb.checks, su.checks, "{}: check counts differ", family);
            prop_assert_eq!(sb.taken, su.taken, "{}: splits taken differ", family);
            prop_assert_eq!(sb.components, su.components, "{}: components differ", family);
            prop_assert!(sb.uf_rebuilds == 0, "BFS backend must not touch the tracker");
        }
        // PVC around the optimum, both backends.
        let (opt, _) = brute_force_mvc(&g);
        for k in [opt.saturating_sub(1), opt] {
            let bfs = solve(SplitBackend::Bfs, false).solve_pvc(&g, k);
            let uf = solve(SplitBackend::UnionFind, false).solve_pvc(&g, k);
            prop_assert_eq!(
                bfs.cover.is_some(), uf.cover.is_some(),
                "{}: PVC k={} answers differ between backends", family, k
            );
            prop_assert_eq!(bfs.cover.is_some(), k >= opt, "{}: PVC answer wrong", family);
        }
    }

    /// The LP sibling bound never changes the answer, only the work:
    /// both bound choices stay exact against brute force, and the LP
    /// arm never explores more tree nodes than the matching arm on a
    /// deterministic Sequential traversal.
    #[test]
    fn lp_bound_is_exact_and_no_weaker((family, g) in arb_corpus_graph()) {
        let (opt, _) = brute_force_mvc(&g);
        let solve = |bound| {
            Solver::builder()
                .algorithm(Algorithm::Sequential)
                .component_branching_params(SplitParams {
                    min_live: 4,
                    max_depth: 16,
                    bound,
                    ..SplitParams::default()
                })
                .build()
                .solve_mvc(&g)
        };
        let lp = solve(SplitBound::Lp);
        let matching = solve(SplitBound::Matching);
        prop_assert_eq!(lp.size, opt, "{}: LP bound broke exactness", family);
        prop_assert_eq!(matching.size, opt, "{}: matching bound broke exactness", family);
        prop_assert!(is_vertex_cover(&g, &lp.cover), "{}: LP non-cover", family);
        prop_assert!(
            lp.stats.tree_nodes <= matching.stats.tree_nodes,
            "{}: the LP bound explored more nodes ({} > {})",
            family, lp.stats.tree_nodes, matching.stats.tree_nodes
        );
    }
}

/// The union-find backend must actually save connectivity work on a
/// component-structured instance (the bench asserts this on
/// `massive_components`; this is the same property in test size).
#[test]
fn union_find_does_less_check_work_than_bfs() {
    let g = gen::sparse_components(400, 25, 0.3, 9);
    let solve = |backend| {
        Solver::builder()
            .algorithm(Algorithm::Sequential)
            .component_branching_params(SplitParams {
                backend,
                ..SplitParams::default()
            })
            .build()
            .solve_mvc(&g)
    };
    let uf = solve(SplitBackend::UnionFind);
    let bfs = solve(SplitBackend::Bfs);
    assert_eq!(uf.size, bfs.size);
    let (wu, wb) = (
        uf.stats.report.split_totals(),
        bfs.stats.report.split_totals(),
    );
    assert_eq!(wu.checks, wb.checks, "same tree, same checks");
    assert!(
        wu.check_work < wb.check_work,
        "union-find must do strictly less work ({} >= {})",
        wu.check_work,
        wb.check_work
    );
    assert!(wu.uf_rebuilds >= 1, "the tracker must have (re)built");
}
