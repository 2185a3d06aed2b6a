//! Micro-benchmarks for the three reduction rules on graphs that
//! exercise each rule specifically.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use parvc_core::bound::SearchBound;
use parvc_core::ops::Kernel;
use parvc_core::{BlockScratch, TreeNode};
use parvc_graph::gen;
use parvc_simgpu::counters::BlockCounters;
use parvc_simgpu::{CostModel, KernelVariant};

fn bench_reduce(c: &mut Criterion) {
    let cost = CostModel::default();
    let cases = [
        // Long paths: pure degree-one work.
        ("path_2000", gen::path(2000)),
        // Triangle-rich geometric graph: degree-two-triangle work.
        ("geometric_500", gen::random_geometric(500, 0.06, 3)),
        // Dense complement with a tight bound: high-degree work.
        ("p_hat_comp_200", gen::p_hat_complement(200, 2, 3)),
        // Power-law: mixed rules.
        ("ba_1000_3", gen::barabasi_albert(1000, 3, 3)),
    ];
    let mut g = c.benchmark_group("reduce_fixpoint");
    for (name, graph) in &cases {
        let greedy = parvc_core::greedy::greedy_weighted_mvc(graph).0;
        g.bench_with_input(BenchmarkId::from_parameter(name), graph, |b, graph| {
            let kernel = Kernel {
                block_size: 128,
                variant: KernelVariant::SharedMem,
                ..Kernel::sequential(graph, &cost)
            };
            let mut scratch = BlockScratch::new();
            b.iter(|| {
                let mut node = TreeNode::root(graph);
                let mut counters = BlockCounters::new(0);
                std::hint::black_box(kernel.reduce(
                    &mut node,
                    SearchBound::WeightedMvc { best: greedy },
                    &mut scratch,
                    &mut counters,
                ));
            });
        });
    }
    g.finish();
}

fn bench_greedy(c: &mut Criterion) {
    let mut g = c.benchmark_group("greedy_approximation");
    g.sample_size(20);
    for (name, graph) in [
        ("p_hat_comp_150", gen::p_hat_complement(150, 2, 5)),
        ("ba_2000_4", gen::barabasi_albert(2000, 4, 5)),
        ("ws_1000", gen::watts_strogatz(1000, 4, 0.2, 5)),
    ] {
        g.bench_with_input(BenchmarkId::from_parameter(name), &graph, |b, graph| {
            b.iter(|| std::hint::black_box(parvc_core::greedy::greedy_weighted_mvc(graph)));
        });
    }
    g.finish();
}

criterion_group!(benches, bench_reduce, bench_greedy);
criterion_main!(benches);
