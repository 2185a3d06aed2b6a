//! Solver configurations and the one solve operation every batch
//! workload and layer probe is built from.

use std::time::Instant;

use parvc_core::{
    is_vertex_cover, Algorithm, ExecutorSpec, PrepConfig, SolveStats, Solver, TelemetryConfig,
};
use parvc_simgpu::counters::LaunchReport;

use crate::common::{ms_since, Instance, OP_DEADLINE};
use crate::trace::SelfTimes;

/// Span cap for traced solves: far above the biggest solve's span
/// count, so a traced run that still drops spans fails instead of
/// undercounting.
pub const MAX_SPANS: usize = 1 << 24;

/// How a workload's solver is configured.
#[derive(Debug, Clone, Copy)]
pub struct SolveCfg {
    pub algorithm: Algorithm,
    pub grid: u32,
    pub prep: bool,
}

impl SolveCfg {
    /// Whether solves under this configuration split components (the
    /// split layer's own spans and counters).
    pub fn splits(&self) -> bool {
        self.algorithm == Algorithm::ComponentSteal
    }

    pub fn solver(&self, weighted: bool, traced: bool) -> Solver {
        let mut b = Solver::builder()
            .algorithm(self.algorithm)
            .grid_limit(Some(self.grid))
            .executor(ExecutorSpec::Serial)
            .deadline(Some(OP_DEADLINE));
        if self.prep {
            b = b.preprocess(PrepConfig::default());
        }
        if weighted {
            b = b.weighted();
        }
        if traced {
            b = b.telemetry(TelemetryConfig {
                spans: true,
                metrics: true,
                max_spans: MAX_SPANS,
                model_cycles: false,
            });
        }
        b.build()
    }
}

/// The cardinality and weighted solvers of one configuration.
pub struct Solvers {
    cardinality: Solver,
    weighted: Solver,
}

impl Solvers {
    pub fn new(cfg: SolveCfg, traced: bool) -> Self {
        Solvers {
            cardinality: cfg.solver(false, traced),
            weighted: cfg.solver(true, traced),
        }
    }

    pub fn for_instance(&self, inst: &Instance) -> &Solver {
        if inst.weighted {
            &self.weighted
        } else {
            &self.cardinality
        }
    }
}

/// One operation: an MVC solve, or a PVC decision at parameter `k`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Mvc(usize),
    Pvc(usize, u32),
}

impl Op {
    pub fn instance(self) -> usize {
        match self {
            Op::Mvc(i) | Op::Pvc(i, _) => i,
        }
    }
}

/// The answer to one [`Op`], checked locally (cover validity, deadline)
/// and awaiting the reference check.
#[derive(Debug)]
pub struct Answer {
    pub op: Op,
    pub ms: f64,
    /// MVC: the objective of the returned cover. PVC: unused.
    pub value: u64,
    /// PVC: whether a cover of size ≤ k was found.
    pub found: bool,
    /// The cover is valid (and within k for PVC) and the deadline held.
    pub locally_ok: bool,
}

impl Answer {
    /// Checks the answer against the instance's reference optimum.
    pub fn matches(&self, opt: u64) -> bool {
        self.locally_ok
            && match self.op {
                Op::Mvc(_) => self.value == opt,
                // k = OPT − 1: the whole tree must be refuted.
                Op::Pvc(_, k) => u64::from(k) + 1 == opt && !self.found,
            }
    }
}

/// Runs `op`, timing only the solver call.
pub fn run_op(solvers: &Solvers, instances: &[Instance], op: Op) -> (Answer, SolveStats) {
    let inst = &instances[op.instance()];
    let solver = solvers.for_instance(inst);
    match op {
        Op::Mvc(_) => {
            let t = Instant::now();
            let r = std::hint::black_box(solver.solve_mvc(&inst.graph));
            let ms = ms_since(t);
            let locally_ok = !r.stats.timed_out && is_vertex_cover(&inst.graph, &r.cover);
            let answer = Answer {
                op,
                ms,
                value: inst.cost(&r.cover),
                found: true,
                locally_ok,
            };
            (answer, r.stats)
        }
        Op::Pvc(_, k) => {
            let t = Instant::now();
            let r = std::hint::black_box(solver.solve_pvc(&inst.graph, k));
            let ms = ms_since(t);
            let cover_ok = r
                .cover
                .as_ref()
                .is_none_or(|c| c.len() as u64 <= u64::from(k) && is_vertex_cover(&inst.graph, c));
            let answer = Answer {
                op,
                ms,
                value: 0,
                found: r.found(),
                locally_ok: !r.stats.timed_out && cover_ok,
            };
            (answer, r.stats)
        }
    }
}

/// Counters and spans summed over a set of solves: the engine, split
/// and scheduling layers as the program itself reports them.
#[derive(Debug, Default)]
pub struct LayerCounts {
    pub wall_ms: f64,
    pub tree_nodes: u64,
    pub device_cycles: u64,
    pub donated: u64,
    pub from_worklist: u64,
    pub bounced: u64,
    pub steals: u64,
    pub split_checks: u64,
    pub split_taken: u64,
    pub split_check_work: u64,
    pub uf_rebuilds: u64,
    /// Per-solve load imbalance: max over mean tree nodes per resident
    /// block, minus 1 (0 = balanced).
    pub imbalance: Vec<f64>,
    /// Per-solve simulated idle share: 1 − mean block cycles over the
    /// busiest block's cycles (model cycles, never wall time).
    pub idle_share: Vec<f64>,
    pub spans: SelfTimes,
    /// Per traced solve, in order: its `prep/preprocess` milliseconds.
    pub prep_ms: Vec<f64>,
}

impl LayerCounts {
    pub fn add(&mut self, ms: f64, stats: &SolveStats) {
        self.wall_ms += ms;
        self.tree_nodes += stats.tree_nodes;
        self.device_cycles += stats.device_cycles;
        self.add_report(&stats.report);
        if let Some(snap) = &stats.telemetry {
            self.spans.fold(snap);
            let prep_us: u64 = snap
                .spans
                .iter()
                .filter(|s| s.cat == "prep" && s.name == "preprocess")
                .map(|s| s.dur_us)
                .sum();
            self.prep_ms.push(prep_us as f64 / 1e3);
        }
    }

    fn add_report(&mut self, report: &LaunchReport) {
        // Sub-searches reuse block ids; a block id is one resident block.
        let mut per_block = std::collections::BTreeMap::<u32, (u64, u64)>::new();
        for b in &report.blocks {
            self.donated += b.nodes_donated;
            self.from_worklist += b.nodes_from_worklist;
            self.bounced += b.donations_bounced;
            self.steals += b.steals_by_victim.values().sum::<u64>();
            let e = per_block.entry(b.block_id).or_default();
            e.0 += b.tree_nodes_visited;
            e.1 += b.total_cycles();
        }
        let split = report.split_totals();
        self.split_checks += split.checks;
        self.split_taken += split.taken;
        self.split_check_work += split.check_work;
        self.uf_rebuilds += split.uf_rebuilds;
        let nodes: Vec<u64> = per_block.values().map(|e| e.0).collect();
        let cycles: Vec<u64> = per_block.values().map(|e| e.1).collect();
        if let Some(x) = excess_over_mean(&nodes) {
            self.imbalance.push(x);
        }
        if let Some(x) = excess_over_mean(&cycles) {
            self.idle_share.push(x / (1.0 + x));
        }
    }
}

/// `max / mean − 1` of per-block loads (0 = balanced); `None` without
/// load.
fn excess_over_mean(loads: &[u64]) -> Option<f64> {
    let max = *loads.iter().max()?;
    if max == 0 {
        return None;
    }
    let mean = loads.iter().sum::<u64>() as f64 / loads.len() as f64;
    Some(max as f64 / mean - 1.0)
}

/// Mean of `v` (0 for none).
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}
