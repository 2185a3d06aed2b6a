//! The traced run's per-layer probes: each calls one layer's public
//! functions in isolation on the workload's own inputs, inside harness
//! spans, and checks what comes back.

use std::path::Path;
use std::time::Instant;

use parvc_core::approx::approx_cover;
use parvc_core::{is_vertex_cover, PrepConfig, RecordingSink, TelemetryConfig};
use parvc_graph::gen::edit_script;
use parvc_graph::io;
use parvc_serve::{CacheEntry, CacheKey, Objective, ResultCache};
use parvc_simgpu::counters::BlockCounters;
use parvc_simgpu::exec::SERIAL;

use crate::common::{ms_since, Instance, Metrics, Tally};
use crate::refs::RefBook;
use crate::solve::{mean, LayerCounts, SolveCfg, MAX_SPANS};
use crate::stats::percentile;
use crate::trace::{SelfTimes, Tracer};

/// `graph`: generation, DIMACS parsing and content hashing.
pub fn graph_layer(tr: &mut Tracer, insts: &[Instance], m: &mut Metrics, tally: &mut Tally) {
    for inst in insts {
        let regenerated = tr.call("graph.gen", || Instance::generate(inst.spec.clone()));
        let mut text = Vec::new();
        io::write_dimacs(&inst.graph, "edge", &mut text).expect("writing to memory");
        let parsed = tr.call("graph.parse_dimacs", || io::parse_dimacs(&text[..]));
        let hash = tr.call("graph.content_hash", || inst.graph.content_hash());
        tally.record(
            regenerated.graph.content_hash() == hash
                && parsed.is_ok_and(|g| g.content_hash() == hash),
        );
    }
    m.add("graph.gen_ms", tr.total_ms("graph.gen"), "ms");
    m.add(
        "graph.parse_dimacs_ms",
        tr.total_ms("graph.parse_dimacs"),
        "ms",
    );
    m.add(
        "graph.content_hash_ms",
        tr.total_ms("graph.content_hash"),
        "ms",
    );
}

/// `prep`: the kernelization pipeline per rule, and the LP bound.
pub fn prep_layer(
    tr: &mut Tracer,
    insts: &[Instance],
    book: &mut RefBook,
    m: &mut Metrics,
    tally: &mut Tally,
) {
    let mut spans = SelfTimes::default();
    let (mut rounds, mut kernel, mut original) = (0u64, 0u64, 0u64);
    for inst in insts {
        let cfg = PrepConfig {
            weighted: inst.weighted,
            ..PrepConfig::default()
        };
        let sink = RecordingSink::new(&TelemetryConfig {
            spans: true,
            metrics: false,
            max_spans: MAX_SPANS,
            model_cycles: false,
        });
        let k = tr.call("prep.preprocess", || {
            parvc_prep::preprocess_traced(&inst.graph, &cfg, &sink)
        });
        spans.fold(&sink.into_snapshot());
        rounds += u64::from(k.stats.rounds);
        kernel += u64::from(k.stats.kernel_vertices);
        original += u64::from(k.stats.original_vertices);
        // Any sub-covers lift to a cover: take every kernel vertex.
        let subs: Vec<Vec<u32>> = k
            .components
            .iter()
            .map(|c| (0..c.graph.num_vertices()).collect())
            .collect();
        tally.record(is_vertex_cover(&inst.graph, &k.lift(&subs)));
        let lb = tr.call("prep.lp_lower_bound", || {
            parvc_prep::lp_lower_bound(&inst.graph)
        });
        // Weights are at least 1, so the cardinality LP bound also
        // bounds a weighted optimum.
        tally.record(
            book.opt(&inst.spec, &inst.graph, inst.weighted)
                .is_some_and(|o| lb <= o),
        );
    }
    tally.record(spans.dropped_spans == 0);
    m.add(
        "prep.preprocess_ms",
        spans.total_ms("prep/preprocess"),
        "ms",
    );
    m.add("prep.crown_ms", spans.total_ms("prep/crown (LP/NT)"), "ms");
    m.add(
        "prep.low_degree_ms",
        spans.total_ms("prep/degree-0/1/2"),
        "ms",
    );
    m.add(
        "prep.high_degree_ms",
        spans.total_ms("prep/high-degree"),
        "ms",
    );
    m.add(
        "prep.split_residual_ms",
        spans.total_ms("split/split-residual"),
        "ms",
    );
    m.add("prep.lp_bound_ms", tr.total_ms("prep.lp_lower_bound"), "ms");
    m.add("prep.rounds", rounds as f64, "count");
    m.add("prep.kernel_vertices", kernel as f64, "count");
    m.add(
        "prep.elimination",
        1.0 - kernel as f64 / original.max(1) as f64,
        "ratio",
    );
}

/// `core::approx`: the certified 2-approximation, checked against
/// `[OPT, 2·lower_bound]`. Also times the cover check itself.
pub fn approx_layer(
    tr: &mut Tracer,
    insts: &[Instance],
    book: &mut RefBook,
    m: &mut Metrics,
    tally: &mut Tally,
) {
    let (mut cost, mut lb) = (0u64, 0u64);
    for inst in insts {
        let mut counters = BlockCounters::new(0);
        let a = tr.call("approx.approx_cover", || {
            approx_cover(&inst.graph, inst.weighted, &SERIAL, &mut counters)
        });
        let valid = tr.call("core.is_vertex_cover", || {
            is_vertex_cover(&inst.graph, &a.cover)
        });
        let opt = book.opt(&inst.spec, &inst.graph, inst.weighted);
        tally.record(
            valid
                && a.cost == inst.cost(&a.cover)
                && opt.is_some_and(|o| a.lower_bound <= o && o <= a.cost)
                && a.cost <= 2 * a.lower_bound,
        );
        cost += a.cost;
        lb += a.lower_bound;
    }
    m.add("approx.cover_ms", tr.total_ms("approx.approx_cover"), "ms");
    m.add("approx.ratio", cost as f64 / lb.max(1) as f64, "ratio");
    m.add("approx.lower_bound", lb as f64, "count");
}

/// `core::resolve`: a session per instance, re-solving seeded edit
/// batches; every re-solved optimum is checked against the reference.
pub fn resolve_layer(
    tr: &mut Tracer,
    insts: &[Instance],
    cfg: SolveCfg,
    seed: u64,
    book: &mut RefBook,
    m: &mut Metrics,
    tally: &mut Tally,
) {
    const STEPS: u64 = 2;
    const EDITS: usize = 4;
    let (mut reused, mut invalidated, mut warm_skips) = (0u64, 0u64, 0u64);
    for (i, inst) in insts.iter().enumerate() {
        let solver = cfg.solver(inst.weighted, false);
        let prev = solver.solve_mvc(&inst.graph);
        let mut session = solver.resolve_session(&inst.graph, &prev);
        for step in 0..STEPS {
            let edits = edit_script(session.graph(), EDITS, 0.5, seed ^ (i as u64 * 31 + step));
            let Ok(r) = tr.call("resolve.resolve", || session.resolve(&edits)) else {
                tally.record(false);
                continue;
            };
            let label = format!("{} resolve-layer step {step}", inst.spec);
            let opt = book.probe_opt(&label, &r.graph, inst.weighted);
            let cost = if inst.weighted {
                r.result.weight
            } else {
                u64::from(r.result.size)
            };
            tally.record(
                !r.result.stats.timed_out
                    && is_vertex_cover(&r.graph, &r.result.cover)
                    && opt == Some(cost),
            );
            reused += u64::from(r.stats.components_reused);
            invalidated += u64::from(r.stats.components_invalidated);
            warm_skips += u64::from(r.stats.warm_skips);
        }
    }
    m.add("resolve.resolve_ms", tr.total_ms("resolve.resolve"), "ms");
    m.add("resolve.components_reused", reused as f64, "count");
    m.add(
        "resolve.components_invalidated",
        invalidated as f64,
        "count",
    );
    m.add("resolve.warm_skips", warm_skips as f64, "count");
}

/// One step of a cache key sequence: a lookup, and on a miss the
/// entry to insert.
pub type CacheStep = (CacheKey, CacheEntry);

/// The cache key for `inst`'s current content.
pub fn cache_key(hash: u64, weighted: bool) -> CacheKey {
    CacheKey {
        hash,
        objective: if weighted {
            Objective::Weighted
        } else {
            Objective::Cardinality
        },
    }
}

/// `serve` cache: replays a key sequence on a persisted [`ResultCache`]
/// of `capacity` entries, timing each lookup and each miss's insert.
pub fn cache_layer(
    tr: &mut Tracer,
    steps: &[CacheStep],
    capacity: usize,
    path: &Path,
    m: &mut Metrics,
) {
    let _ = std::fs::remove_file(path);
    let mut cache = ResultCache::persisted(capacity, path);
    for (key, entry) in steps {
        let hit = tr.call("cache.lookup", || cache.lookup(*key));
        if hit.is_none() {
            tr.call("cache.insert", || cache.insert(*key, entry.clone()));
        }
    }
    let p50 = |name| percentile(&tr.durations_ms(name), 50.0).unwrap_or(0.0);
    m.add("serve.cache_insert_ms", p50("cache.insert"), "ms");
    m.add("serve.cache_lookup_ms", p50("cache.lookup"), "ms");
    let bytes = std::fs::metadata(path).map_or(0, |md| md.len());
    m.add("serve.cache_file_bytes", bytes as f64, "bytes");
}

/// Engine metrics from the program's own counters (`untraced`) and
/// telemetry spans (`traced`, same solves).
pub fn engine_metrics(untraced: &LayerCounts, traced: &LayerCounts, m: &mut Metrics) {
    let sp = &traced.spans;
    let block = sp.total_ms("engine/block");
    let reduce = sp.total_ms("engine/reduce");
    m.add("engine.block_ms", block, "ms");
    m.add("engine.reduce_ms", reduce, "ms");
    m.add("engine.branch_ms", sp.total_ms("engine/branch"), "ms");
    m.add("engine.reduce_share", reduce / block.max(1e-9), "ratio");
    m.add("engine.tree_nodes", untraced.tree_nodes as f64, "count");
    m.add(
        "engine.nodes_per_s",
        untraced.tree_nodes as f64 / (untraced.wall_ms / 1e3).max(1e-9),
        "1/s",
    );
    m.add(
        "engine.device_cycles",
        untraced.device_cycles as f64,
        "cycles_sim",
    );
}

/// Scheduling metrics from the counters of an untraced pass whose
/// solves run more than one resident block (with one block nothing is
/// donated, stolen or imbalanced).
pub fn sched_metrics(untraced: &LayerCounts, m: &mut Metrics) {
    m.add("sched.nodes_donated", untraced.donated as f64, "count");
    m.add(
        "sched.nodes_from_worklist",
        untraced.from_worklist as f64,
        "count",
    );
    m.add("sched.donations_bounced", untraced.bounced as f64, "count");
    m.add("sched.steals", untraced.steals as f64, "count");
    m.add("sched.load_imbalance", mean(&untraced.imbalance), "ratio");
    m.add("sched.idle_share", mean(&untraced.idle_share), "ratio_sim");
}

/// Split and component metrics from a traced set of solves that split.
pub fn split_metrics(split: &LayerCounts, m: &mut Metrics) {
    let sp = &split.spans;
    m.add("split.detect_ms", sp.total_ms("split/detect"), "ms");
    m.add("split.extract_ms", sp.total_ms("split/extract"), "ms");
    m.add("split.solve_ms", sp.total_ms("split/solve"), "ms");
    m.add("split.checks", split.split_checks as f64, "count");
    m.add("split.taken", split.split_taken as f64, "count");
    m.add("split.check_work", split.split_check_work as f64, "count");
    m.add("split.uf_rebuilds", split.uf_rebuilds as f64, "count");
    m.add(
        "component.sub_search_ms",
        sp.total_ms("component/sub-search"),
        "ms",
    );
    m.add(
        "component.sub_searches",
        sp.count("component/sub-search") as f64,
        "count",
    );
}

/// The plain single-threaded baseline: a timed `Sequential` re-solve of
/// `insts` whose optima must agree with the references.
pub fn baseline_seq(insts: &[Instance], prep: bool, book: &mut RefBook, tally: &mut Tally) -> f64 {
    let mut total = 0.0;
    for inst in insts {
        let t = Instant::now();
        let (opt, _) = crate::refs::reference_opt(&inst.graph, inst.weighted, prep);
        total += ms_since(t);
        tally.record(book.confirm(&inst.spec, &inst.graph, inst.weighted, opt));
    }
    total
}
