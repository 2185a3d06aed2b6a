//! `perfbench` — run one benchmark workload and print its metrics.
//!
//! ```text
//! perfbench --workload <search-dense|kernel-massive|serve-mixed>
//!           --seed <n> --seconds <s> --trace <0|1> [--refs <table>]
//! perfbench --write-refs      # regenerate the default-seed reference tables
//! perfbench --northstar       # one trajectory row of the ROADMAP cases
//! ```
//!
//! The last line of standard output is the result object
//! (`correct`, `attempted`, `failed`, `metrics`); the line before it
//! records the settings and the sample counts. A failed check makes
//! the run exit non-zero.

use std::process::ExitCode;
use std::time::Instant;

use parvc_core::{Algorithm, ExecutorSpec, PrepConfig, Solver};
use perfbench::batch::{self, BatchDef, KERNEL_MASSIVE, SEARCH_DENSE};
use perfbench::common::{
    calibrate, committed_refs, json_escape, json_num, settings_json, Instance, Outcome, RunOpts,
    WorkDir, DEFAULT_SEED, MAX_BLOCKS,
};
use perfbench::mixed;
use perfbench::refs::{reference_opt, table_line, Refs};

const WORKLOADS: [&str; 3] = ["search-dense", "kernel-massive", "serve-mixed"];

/// The end-to-end metrics every untraced run reports.
const END_TO_END: [&str; 5] = [
    "setup_s",
    "latency_ms_p50",
    "latency_ms_p90",
    "throughput_ops_s",
    "peak_rss_mb",
];

/// The per-layer metrics every traced run reports.
const PER_LAYER: [&str; 58] = [
    "graph.gen_ms",
    "graph.parse_dimacs_ms",
    "graph.content_hash_ms",
    "prep.preprocess_ms",
    "prep.crown_ms",
    "prep.low_degree_ms",
    "prep.high_degree_ms",
    "prep.split_residual_ms",
    "prep.lp_bound_ms",
    "prep.rounds",
    "prep.kernel_vertices",
    "prep.elimination",
    "engine.block_ms",
    "engine.reduce_ms",
    "engine.branch_ms",
    "engine.reduce_share",
    "engine.tree_nodes",
    "engine.nodes_per_s",
    "engine.device_cycles",
    "split.detect_ms",
    "split.extract_ms",
    "split.solve_ms",
    "split.checks",
    "split.taken",
    "split.check_work",
    "split.uf_rebuilds",
    "component.sub_search_ms",
    "component.sub_searches",
    "sched.nodes_donated",
    "sched.nodes_from_worklist",
    "sched.donations_bounced",
    "sched.steals",
    "sched.load_imbalance",
    "sched.idle_share",
    "baseline.seq_ms",
    "sched.speedup_vs_seq",
    "approx.cover_ms",
    "approx.ratio",
    "approx.lower_bound",
    "resolve.resolve_ms",
    "resolve.components_reused",
    "resolve.components_invalidated",
    "resolve.warm_skips",
    "serve.load_ms",
    "serve.solve_hit_ms",
    "serve.solve_miss_ms",
    "serve.approx_ms",
    "serve.resolve_ms",
    "serve.cache_hit_ratio",
    "serve.cache_hits",
    "serve.cache_lookups",
    "serve.evictions",
    "serve.sheds",
    "serve.cache_insert_ms",
    "serve.cache_lookup_ms",
    "serve.cache_file_bytes",
    "obs.trace_overhead",
    "obs.spans_dropped",
];

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--refs <table>]\n\
         \x20      perfbench --write-refs | --northstar",
        WORKLOADS.join("|")
    )
}

enum Mode {
    Run(RunOpts),
    WriteRefs,
    NorthStar,
}

fn parse_args(args: &[String]) -> Result<Mode, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut refs) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--refs" => refs = Some(value()?.into()),
            "--write-refs" => return Ok(Mode::WriteRefs),
            "--northstar" => return Ok(Mode::NorthStar),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Mode::Run(RunOpts {
        workload,
        seed: seed.unwrap_or(DEFAULT_SEED),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        refs,
    }))
}

fn batch_def(name: &str) -> Option<&'static BatchDef> {
    match name {
        "search-dense" => Some(&SEARCH_DENSE),
        "kernel-massive" => Some(&KERNEL_MASSIVE),
        _ => None,
    }
}

fn run(opts: &RunOpts) -> Result<Outcome, String> {
    match (batch_def(&opts.workload), opts.trace) {
        (Some(def), false) => batch::run(def, opts),
        (Some(def), true) => batch::run_traced(def, opts),
        (None, false) => mixed::run(opts),
        (None, true) => mixed::run_traced(opts),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = match parse_args(&args) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let opts = match mode {
        Mode::Run(o) => o,
        Mode::WriteRefs => return write_refs(),
        Mode::NorthStar => return northstar(),
    };
    // A table the run would check against must load before any work.
    if let Some(Err(e)) = opts.refs_path().map(|p| Refs::load(&p)) {
        eprintln!("perfbench: {e}");
        return ExitCode::from(2);
    }
    let started = Instant::now();
    // Measured before set-up, outside every timed figure.
    let speed = calibrate();
    let outcome = match run(&opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    report(&opts, &outcome, started, speed)
}

/// Prints the table, the detail line and the result line.
fn report(opts: &RunOpts, o: &Outcome, started: Instant, speed: (f64, f64)) -> ExitCode {
    let expected: &[&str] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    let mut names: Vec<&str> = o.metrics.0.iter().map(|m| m.name).collect();
    names.sort_unstable();
    let mut want = expected.to_vec();
    want.sort_unstable();
    if names != want {
        eprintln!("perfbench: metric set {names:?} differs from {want:?}");
        return ExitCode::from(2);
    }
    if let Some(bad) = o.metrics.0.iter().find(|m| !m.value.is_finite()) {
        eprintln!("perfbench: metric {} is not a number", bad.name);
        return ExitCode::from(2);
    }

    eprintln!("{:<32} {:>18}  unit", "metric", "value");
    for m in &o.metrics.0 {
        eprintln!("{:<32} {:>18.6}  {}", m.name, m.value, m.unit);
    }
    let correct = o.tally.failed == 0 && o.tally.attempted > 0;
    eprintln!(
        "perfbench: {} {} checks, {} failed, {:.1} s",
        opts.workload,
        o.tally.attempted,
        o.tally.failed,
        started.elapsed().as_secs_f64()
    );

    let detail: Vec<String> = o
        .detail
        .iter()
        .map(|(k, v)| {
            let value = if v.starts_with(['{', '[']) || v.parse::<f64>().is_ok() {
                v.clone()
            } else {
                format!("\"{}\"", json_escape(v))
            };
            format!("\"{k}\":{value}")
        })
        .collect();
    println!(
        "{{\"settings\":{},\"detail\":{{{}}}}}",
        settings_json(opts, speed),
        detail.join(",")
    );
    let metrics: Vec<String> = o
        .metrics
        .0
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        o.tally.attempted,
        o.tally.failed,
        metrics.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Regenerates the committed default-seed reference tables with the
/// `Sequential` reference solver.
fn write_refs() -> ExitCode {
    let mut lines: Vec<(&str, Vec<String>)> = Vec::new();
    for def in [&SEARCH_DENSE, &KERNEL_MASSIVE] {
        let mut out = Vec::new();
        for spec in (def.corpus)(DEFAULT_SEED) {
            let inst = Instance::generate(spec);
            let Some(opt) = reference_opt(&inst.graph, inst.weighted, def.cfg.prep).0 else {
                eprintln!("perfbench: reference solve of {} failed", inst.spec);
                return ExitCode::FAILURE;
            };
            out.push(table_line(&inst.spec, &inst.graph, inst.weighted, opt));
        }
        lines.push((def.name, out));
    }
    let Ok(work) = WorkDir::create("write-refs") else {
        return ExitCode::FAILURE;
    };
    let mut out = Vec::new();
    for e in mixed::build_pool(DEFAULT_SEED, &work) {
        for (s, g) in e.states.iter().enumerate() {
            let Some(opt) = reference_opt(g, e.base.weighted, true).0 else {
                eprintln!("perfbench: reference solve of {} failed", e.base.spec);
                return ExitCode::FAILURE;
            };
            out.push(table_line(&e.label(s), g, e.base.weighted, opt));
        }
    }
    lines.push(("serve-mixed", out));
    for (workload, table) in lines {
        let path = committed_refs(workload);
        let text = format!(
            "# Reference optima for the {workload} corpus at seed {DEFAULT_SEED}, from the \
             Sequential solver.\n# fingerprint\tobjective\toptimum\tlabel\n{}\n",
            table.join("\n")
        );
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("perfbench: {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("perfbench: wrote {}", path.display());
    }
    ExitCode::SUCCESS
}

/// Re-measures the ROADMAP's north-star cases under the benchmark's
/// thread cap ([`MAX_BLOCKS`] blocks, serial executor) and prints one trajectory row with
/// the numbers the ROADMAP quotes, and earlier re-runs of them, beside it.
fn northstar() -> ExitCode {
    let cases: [(&str, &str, Algorithm, bool, &str); 5] = [
        (
            "components:120000:6000:0.3 steal+prep",
            "components:120000:6000:0.3",
            Algorithm::WorkStealing,
            true,
            "0.48 s (32 blocks); 0.40-0.53 s re-run",
        ),
        (
            "gnp:120:0.08@3 seq",
            "gnp:120:0.08@3",
            Algorithm::Sequential,
            false,
            "0.65 s; 0.70-0.88 s re-run",
        ),
        (
            "gnp:140:0.08@3 seq",
            "gnp:140:0.08@3",
            Algorithm::Sequential,
            false,
            "10.1 s; 9.6 s re-run",
        ),
        (
            "gnp:140:0.08@3 hybrid",
            "gnp:140:0.08@3",
            Algorithm::Hybrid,
            false,
            "5.3 s (32 blocks); 4.0-4.1 s with 2 blocks",
        ),
        (
            "gnp:140:0.08@3 steal",
            "gnp:140:0.08@3",
            Algorithm::WorkStealing,
            false,
            "4.2 s (32 blocks); 4.5-5.2 s with 2 blocks",
        ),
    ];
    let mut cells = Vec::new();
    for (label, spec, algorithm, prep, quoted) in cases {
        let inst = Instance::generate(spec.to_string());
        let mut b = Solver::builder()
            .algorithm(algorithm)
            .grid_limit(Some(MAX_BLOCKS))
            .executor(ExecutorSpec::Serial);
        if prep {
            b = b.preprocess(PrepConfig::default());
        }
        let t = Instant::now();
        let r = b.build().solve_mvc(&inst.graph);
        let s = t.elapsed().as_secs_f64();
        eprintln!("perfbench: {label}: {s:.3} s, cover {}", r.size);
        cells.push(format!(
            "{{\"case\":\"{label}\",\"seconds\":{s},\"cover\":{},\"quoted\":\"{quoted}\"}}",
            r.size
        ));
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "{{\"commit\":\"{}\",\"nproc\":{nproc},\"effective_cores\":{:.2},\"blocks\":{MAX_BLOCKS},\
         \"executor\":\"serial\",\"cases\":[{}]}}",
        json_escape(&perfbench::common::commit_id()),
        calibrate().1,
        cells.join(",")
    );
    ExitCode::SUCCESS
}
