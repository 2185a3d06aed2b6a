//! The batch workloads, closed loop with one client: `search-dense`
//! (exact search on small hard instances, no prep) and
//! `kernel-massive` (massive sparse instances under prep and component
//! stealing). Also the layer battery every traced run shares.

use std::time::Instant;

use parvc_core::Algorithm;
use parvc_graph::io;
use parvc_serve::CacheEntry;

use crate::common::{
    derive_seed, ms_since, peak_rss_mb, Instance, Metrics, Outcome, RunOpts, Tally, WorkDir,
    BATCH_BLOCKS, BATCH_SETUP_REPEATS, MAX_BLOCKS,
};
use crate::gauge::Gauge;
use crate::layers::{self, cache_key};
use crate::mixed;
use crate::refs::RefBook;
use crate::solve::{run_op, Answer, LayerCounts, Op, SolveCfg, Solvers};
use crate::stats::{median, percentile, samples_beyond};
use crate::trace::Tracer;

/// A batch workload: its corpus and how it is solved.
pub struct BatchDef {
    pub name: &'static str,
    pub cfg: SolveCfg,
    /// Also decide PVC at `k = OPT − 1` after every MVC solve.
    pub pvc: bool,
    pub corpus: fn(u64) -> Vec<String>,
}

pub const SEARCH_DENSE: BatchDef = BatchDef {
    name: "search-dense",
    cfg: SolveCfg {
        algorithm: Algorithm::Hybrid,
        grid: BATCH_BLOCKS,
        prep: false,
    },
    pvc: true,
    corpus: search_dense_corpus,
};

pub const KERNEL_MASSIVE: BatchDef = BatchDef {
    name: "kernel-massive",
    cfg: SolveCfg {
        algorithm: Algorithm::ComponentSteal,
        grid: BATCH_BLOCKS,
        prep: true,
    },
    pvc: false,
    corpus: kernel_massive_corpus,
};

/// Interleaves `per_family` seeded instances of each family, so every
/// stretch of a pass mixes them.
fn interleave(seed: u64, families: &[&str], per_family: u64) -> Vec<String> {
    let mut specs = Vec::new();
    for i in 0..per_family {
        for fam in families {
            let (core, weights) = match fam.split_once(":w=") {
                Some((c, w)) => (c, format!(":w={w}")),
                None => (*fam, String::new()),
            };
            // Weighted twins share their cardinality sibling's seed.
            specs.push(format!("{core}@{}{weights}", derive_seed(seed, core, i)));
        }
    }
    specs
}

/// Small hard instances, each solve 3–35 ms: the paper's p_hat
/// complements and G(n,p), 96 of each family. Many short solves over
/// many instances, so a run holds over 1,000 operations. A run covers
/// the corpus only a few times, so the top 10% of solves spans dozens
/// of instances instead of repeats of the few hardest, and p90 reads
/// the same on every seed. Small-world
/// graphs are left out: their hardness is so heavy-tailed (one instance
/// in a few dozen takes 30× the median) that a tail percentile would
/// measure which seed was drawn.
pub fn search_dense_corpus(seed: u64) -> Vec<String> {
    interleave(seed, &["phat:180:1", "phat:100:3", "gnp:85:0.09"], 96)
}

/// Massive sparse instances, 16 of each kind: many 20-vertex
/// components, a scale-free graph prep alone solves, and the weighted
/// twin of the first. A sixteenth of the ROADMAP's 120000-vertex size,
/// with the same component size and density, so that a run of 40 s holds
/// over 1,500 solves. At a quarter of the size a run held about 300, and its
/// tail, close to a maximum, moved by up to 40% between runs on single
/// stalls.
/// `--northstar` times the full-size case.
pub fn kernel_massive_corpus(seed: u64) -> Vec<String> {
    interleave(
        seed,
        &[
            "components:7500:375:0.3",
            "ba:6000:3",
            "components:7500:375:0.3:w=degree",
        ],
        16,
    )
}

/// Set-up: generate the corpus, round-trip every instance through a
/// DIMACS file, build the solvers, and warm up with one solve.
fn setup(def: &BatchDef, seed: u64, work: &WorkDir) -> (Vec<Instance>, Solvers, Answer) {
    let insts: Vec<Instance> = (def.corpus)(seed)
        .into_iter()
        .map(Instance::generate)
        .collect();
    for (i, inst) in insts.iter().enumerate() {
        let path = work.path().join(format!("{}-{i}.dimacs", def.name));
        let file = std::fs::File::create(&path).expect("creating a DIMACS file");
        let mut w = std::io::BufWriter::new(file);
        io::write_dimacs(&inst.graph, "edge", &mut w).expect("writing a DIMACS file");
        std::io::Write::flush(&mut w).expect("flushing a DIMACS file");
        let file = std::fs::File::open(&path).expect("opening a DIMACS file");
        let parsed = io::parse_dimacs(std::io::BufReader::new(file)).expect("parsing DIMACS");
        assert_eq!(
            parsed.content_hash(),
            inst.graph.content_hash(),
            "{} does not survive a DIMACS round trip",
            inst.spec
        );
    }
    let solvers = Solvers::new(def.cfg, false);
    let (warm, _) = run_op(&solvers, &insts, Op::Mvc(0));
    (insts, solvers, warm)
}

/// Checks answers against the references.
fn settle(answers: &[Answer], insts: &[Instance], book: &mut RefBook) -> Tally {
    let mut tally = Tally::default();
    for a in answers {
        let inst = &insts[a.op.instance()];
        let opt = book.opt(&inst.spec, &inst.graph, inst.weighted);
        tally.record(opt.is_some_and(|o| a.matches(o)));
    }
    tally
}

/// The untraced run: end-to-end metrics.
pub fn run(def: &BatchDef, opts: &RunOpts) -> Result<Outcome, String> {
    let work = WorkDir::create(def.name).map_err(|e| e.to_string())?;
    // The gauge is read before every set-up and through the timed phase.
    let mut gauge = Gauge::new();
    let mut setup_s = Vec::new();
    let mut prepared = None;
    for _ in 0..BATCH_SETUP_REPEATS {
        // Free the previous set-up first, so repeats do not stack up.
        drop(prepared.take());
        gauge.read();
        let t = Instant::now();
        let p = setup(def, opts.seed, &work);
        setup_s.push(t.elapsed().as_secs_f64());
        prepared = Some(p);
    }
    let (insts, solvers, warm) = prepared.expect("at least one set-up");

    let t0 = Instant::now();
    let end = t0 + opts.timed();
    let mut answers = Vec::new();
    'timed: loop {
        for i in 0..insts.len() {
            if Instant::now() >= end {
                break 'timed;
            }
            gauge.tick();
            let (a, _) = run_op(&solvers, &insts, Op::Mvc(i));
            let k = a.value.checked_sub(1);
            answers.push(a);
            if let (true, Some(k)) = (def.pvc && !insts[i].weighted, k) {
                if Instant::now() >= end {
                    break 'timed;
                }
                gauge.tick();
                let (p, _) = run_op(&solvers, &insts, Op::Pvc(i, k as u32));
                answers.push(p);
            }
        }
    }
    let elapsed = t0.elapsed().as_secs_f64();
    // Read before any reference work, so seeds that re-solve their
    // references report the same thing as seeds that read a table.
    let peak_rss = peak_rss_mb();

    // References after the timed phase, never inside it or set-up.
    let mut book = RefBook::for_run(opts, def.cfg.prep)?;
    let mut tally = settle(&answers, &insts, &mut book);
    let warm_tally = settle(std::slice::from_ref(&warm), &insts, &mut book);

    let lat: Vec<f64> = answers.iter().map(|a| a.ms).collect();
    let busy_s = lat.iter().sum::<f64>() / 1e3;
    // Every figure of the run in reference-core time (see `gauge`).
    let f = gauge.factor();
    let mut m = Metrics::default();
    m.add("setup_s", f * median(&setup_s).unwrap_or(0.0), "s");
    m.add(
        "latency_ms_p50",
        f * percentile(&lat, 50.0).unwrap_or(0.0),
        "ms",
    );
    m.add(
        "latency_ms_p90",
        f * percentile(&lat, 90.0).unwrap_or(0.0),
        "ms",
    );
    m.add(
        "throughput_ops_s",
        answers.len() as f64 / (f * busy_s).max(1e-9),
        "1/s",
    );
    m.add("peak_rss_mb", peak_rss, "MB");
    let pvc = answers
        .iter()
        .filter(|a| matches!(a.op, Op::Pvc(..)))
        .count();
    let detail = vec![
        ("operations".into(), answers.len().to_string()),
        ("pvc_operations".into(), pvc.to_string()),
        (
            "beyond_p90".into(),
            samples_beyond(lat.len(), 90.0).to_string(),
        ),
        // Reported, not a metric: p99 is set by the few hardest
        // instances the seed draws.
        (
            "latency_ms_p99".into(),
            format!("{}", percentile(&lat, 99.0).unwrap_or(0.0)),
        ),
        (
            "beyond_p99".into(),
            samples_beyond(lat.len(), 99.0).to_string(),
        ),
        ("instances".into(), insts.len().to_string()),
        ("timed_s".into(), format!("{elapsed}")),
        // The same figures in wall time, as measured.
        (
            "wall_setup_s".into(),
            format!("{}", median(&setup_s).unwrap_or(0.0)),
        ),
        (
            "wall_latency_ms_p50_p90".into(),
            format!(
                "[{},{}]",
                percentile(&lat, 50.0).unwrap_or(0.0),
                percentile(&lat, 90.0).unwrap_or(0.0)
            ),
        ),
        (
            "wall_throughput_ops_s".into(),
            format!("{}", answers.len() as f64 / elapsed),
        ),
        ("gauge".into(), gauge.json()),
        (
            "failed_frac".into(),
            format!("{}", tally.failed as f64 / tally.attempted.max(1) as f64),
        ),
        ("family_p50_ms".into(), family_p50(&answers, &insts)),
        ("reference_table".into(), book.uses_table().to_string()),
        ("reference_misses".into(), book.misses.to_string()),
        ("reference_resolves".into(), book.solved.to_string()),
        ("reference_ms".into(), format!("{}", book.solved_ms)),
        ("setup_samples_s".into(), format!("{setup_s:?}")),
    ];
    tally.merge(warm_tally);
    Ok(Outcome {
        tally,
        metrics: m,
        detail,
    })
}

/// `{"family": p50 ms, ...}`: where each instance family sits in the
/// latency distribution.
fn family_p50(answers: &[Answer], insts: &[Instance]) -> String {
    let mut by_family: std::collections::BTreeMap<String, Vec<f64>> = Default::default();
    for a in answers {
        let spec = &insts[a.op.instance()].spec;
        let family = match spec.split_once('@') {
            Some((core, rest)) => format!("{core}{}", rest.find(':').map_or("", |i| &rest[i..])),
            None => spec.clone(),
        };
        by_family.entry(family).or_default().push(a.ms);
    }
    let cells: Vec<String> = by_family
        .iter()
        .map(|(f, v)| format!("\"{f}\":{}", percentile(v, 50.0).unwrap_or(0.0)))
        .collect();
    format!("{{{}}}", cells.join(","))
}

/// What the layer battery measured besides its metrics.
pub struct Battery {
    pub dropped: u64,
    pub untraced_ms: f64,
    pub traced_ms: f64,
    /// `prep/preprocess` time over solve time, cardinality instances.
    pub cardinality_prep_share: f64,
}

/// The per-layer battery on `insts`: the plain `Sequential` baseline,
/// untraced, traced and again untraced passes of the workload's own
/// operations (engine counters, the program's own spans), an untraced
/// pass with two resident blocks (scheduling counters), a split probe
/// when the workload's solves never split, and the isolated layer
/// probes.
#[allow(clippy::too_many_arguments)]
pub fn layer_battery(
    tr: &mut Tracer,
    insts: &[Instance],
    cfg: SolveCfg,
    pvc: bool,
    seed: u64,
    work: &WorkDir,
    book: &mut RefBook,
    m: &mut Metrics,
    tally: &mut Tally,
    serve_probe: bool,
) -> Battery {
    let seq_ms = tr.call("baseline.sequential", || {
        layers::baseline_seq(insts, cfg.prep, book, tally)
    });
    let mut ops = Vec::new();
    for (i, inst) in insts.iter().enumerate() {
        ops.push(Op::Mvc(i));
        if pvc && !inst.weighted {
            let opt = book.opt(&inst.spec, &inst.graph, false);
            if let Some(k) = opt.and_then(|o| o.checked_sub(1)) {
                ops.push(Op::Pvc(i, k as u32));
            }
        }
    }
    let pass = |traced: bool, cfg: SolveCfg, ops: &[Op], tr: &mut Tracer| {
        let solvers = Solvers::new(cfg, traced);
        let mut counts = LayerCounts::default();
        let mut answers = Vec::new();
        let name = if traced {
            "pass.traced"
        } else {
            "pass.untraced"
        };
        let span = tr.begin(name);
        for (n, &op) in ops.iter().enumerate() {
            tr.set_op(n as u64 + 1);
            let (a, stats) = tr.call("core.solve", || run_op(&solvers, insts, op));
            counts.add(a.ms, &stats);
            answers.push(a);
        }
        tr.end(span);
        tr.set_op(0);
        (counts, answers)
    };
    // Untraced passes on both sides of the traced one, so the first
    // pass's warm-up does not read as tracing overhead.
    let (plain, plain_answers) = pass(false, cfg, &ops, tr);
    let (traced, traced_answers) = pass(true, cfg, &ops, tr);
    let (plain_after, plain_after_answers) = pass(false, cfg, &ops, tr);
    tally.merge(settle(&plain_answers, insts, book));
    tally.merge(settle(&traced_answers, insts, book));
    tally.merge(settle(&plain_after_answers, insts, book));
    // Prep's share of the traced solve time on cardinality instances.
    let (mut card_prep_ms, mut card_ms) = (0.0, 0.0);
    for (a, prep_ms) in traced_answers.iter().zip(&traced.prep_ms) {
        if !insts[a.op.instance()].weighted {
            card_prep_ms += prep_ms;
            card_ms += a.ms;
        }
    }
    layers::engine_metrics(&plain, &traced, m);
    // The workload's solves run one block, which never donates or
    // steals: the scheduling layer is measured on the same operations
    // with a second resident block.
    let sched_cfg = SolveCfg {
        grid: MAX_BLOCKS,
        ..cfg
    };
    let (sched, sched_answers) = pass(false, sched_cfg, &ops, tr);
    tally.merge(settle(&sched_answers, insts, book));
    layers::sched_metrics(&sched, m);
    let mvc_ms: f64 = sched_answers
        .iter()
        .filter(|a| matches!(a.op, Op::Mvc(_)))
        .map(|a| a.ms)
        .sum();
    m.add("baseline.seq_ms", seq_ms, "ms");
    m.add("sched.speedup_vs_seq", seq_ms / mvc_ms.max(1e-9), "ratio");
    let mut dropped = traced.spans.dropped_spans;
    if cfg.splits() && cfg.prep {
        layers::split_metrics(&traced, m);
    } else {
        // The workload's own solves never split: probe the split layer
        // with component stealing and prep on the first instances.
        let probe_cfg = SolveCfg {
            algorithm: Algorithm::ComponentSteal,
            prep: true,
            ..cfg
        };
        let probe_ops: Vec<Op> = (0..insts.len().min(4)).map(Op::Mvc).collect();
        let (split, split_answers) = pass(true, probe_cfg, &probe_ops, tr);
        tally.merge(settle(&split_answers, insts, book));
        layers::split_metrics(&split, m);
        dropped += split.spans.dropped_spans;
    }
    eprintln!(
        "perfbench: self time of the traced pass\n{}",
        traced.spans.table()
    );

    layers::graph_layer(tr, insts, m, tally);
    layers::prep_layer(tr, insts, book, m, tally);
    layers::approx_layer(tr, insts, book, m, tally);
    let few = &insts[..insts.len().min(2)];
    layers::resolve_layer(tr, few, cfg, seed, book, m, tally);
    if serve_probe {
        let steps = mixed::serve_probe(tr, few, seed, work, book, m, tally);
        // Replay two passes of the corpus keys, then the probe's keys.
        let mut keys: Vec<layers::CacheStep> = plain_answers
            .iter()
            .filter(|a| matches!(a.op, Op::Mvc(_)))
            .map(|a| {
                let inst = &insts[a.op.instance()];
                let entry = CacheEntry {
                    cover: Vec::new(),
                    cost: a.value,
                    tree_nodes: 0,
                };
                (cache_key(inst.graph.content_hash(), inst.weighted), entry)
            })
            .collect();
        keys.extend(keys.clone());
        keys.extend(steps);
        let capacity = (insts.len() / 2).max(1);
        layers::cache_layer(
            tr,
            &keys,
            capacity,
            &work.path().join("replay-cache.json"),
            m,
        );
    }
    Battery {
        dropped,
        untraced_ms: (plain.wall_ms + plain_after.wall_ms) / 2.0,
        traced_ms: traced.wall_ms,
        cardinality_prep_share: card_prep_ms / card_ms.max(1e-9),
    }
}

/// Adds the trace-health metrics; a traced run that dropped spans
/// fails rather than undercounting.
pub fn finish_traced(m: &mut Metrics, tally: &mut Tally, overhead: f64, dropped: u64) {
    m.add("obs.trace_overhead", overhead, "ratio");
    m.add("obs.spans_dropped", dropped as f64, "count");
    tally.record(dropped == 0);
}

/// Writes the harness spans once, at the end of the traced run.
pub fn write_spans(tr: &Tracer, workload: &str) {
    let dir = crate::common::bench_dir().join("..").join(".bench_out");
    let path = dir.join(format!("spans-{workload}.jsonl"));
    let written = std::fs::create_dir_all(&dir).and_then(|()| tr.write_jsonl(&path));
    match written {
        Ok(()) => eprintln!(
            "perfbench: {} harness spans in {}",
            tr.len(),
            path.display()
        ),
        Err(e) => eprintln!("perfbench: writing harness spans: {e}"),
    }
}

/// The traced run: per-layer metrics.
pub fn run_traced(def: &BatchDef, opts: &RunOpts) -> Result<Outcome, String> {
    let work = WorkDir::create(def.name).map_err(|e| e.to_string())?;
    let mut tr = Tracer::new(Instant::now());
    let setup_span = tr.begin("setup");
    let (insts, _, warm) = setup(def, opts.seed, &work);
    tr.end(setup_span);
    let mut m = Metrics::default();
    let mut book = RefBook::for_run(opts, def.cfg.prep)?;
    let mut tally = settle(std::slice::from_ref(&warm), &insts, &mut book);
    let t = Instant::now();
    let b = layer_battery(
        &mut tr, &insts, def.cfg, def.pvc, opts.seed, &work, &mut book, &mut m, &mut tally, true,
    );
    finish_traced(
        &mut m,
        &mut tally,
        b.traced_ms / b.untraced_ms.max(1e-9),
        b.dropped,
    );
    write_spans(&tr, def.name);
    let detail = vec![
        ("instances".into(), insts.len().to_string()),
        ("battery_ms".into(), format!("{}", ms_since(t))),
        (
            "cardinality_prep_share".into(),
            format!("{}", b.cardinality_prep_share),
        ),
        ("reference_table".into(), book.uses_table().to_string()),
        ("reference_misses".into(), book.misses.to_string()),
        ("reference_resolves".into(), book.solved.to_string()),
    ];
    Ok(Outcome {
        tally,
        metrics: m,
        detail,
    })
}
