//! `serve-mixed`: `parvc serve` over loopback TCP, closed loop with one
//! persistent connection and one pool worker, under a request mix of skewed repeat solves,
//! weighted and approximate solves, re-solves of edit chains, loads and
//! statistics. Also the small serve probe the batch workloads' traced
//! runs use. `serve-mixed` reports wall time and is not gated in
//! `BENCHMARK.json`: its p50 is a kernel timer and its p90 mixes that
//! timer with compute, so no host-speed correction fits it (README).

use std::sync::Mutex;
use std::time::Instant;

use parvc_graph::gen::edit_script;
use parvc_graph::{io, CsrGraph};
use parvc_serve::CacheEntry;

use crate::common::{
    derive_seed, ms_since, peak_rss_mb, Instance, Metrics, Outcome, Rng, RunOpts, Tally, WorkDir,
    SERVE_CONNECTIONS, SERVE_SETUP_REPEATS,
};
use crate::layers::{self, cache_key, CacheStep};
use crate::refs::RefBook;
use crate::serve::{serve_config, Client, Reply, ServerHandle};
use crate::solve::SolveCfg;
use crate::stats::{median, percentile, samples_beyond};
use crate::trace::{SelfTimes, Tracer};

/// Result-cache capacity: a chosen size below the working set (25 base
/// entries plus 30 edit-chain states), so entries are evicted and the
/// persisted file is rewritten throughout.
pub const CACHE_CAPACITY: usize = 16;
/// Re-solves an instance may take before the next one becomes a
/// `LOAD` that resets it: a chosen length that bounds the distinct
/// graph states, so the default-seed reference table stays small.
const CHAIN_STEPS: usize = 2;
/// Edit operations per `RESOLVE`, as in `serve_load`'s `gen:3` batches.
const EDITS_PER_RESOLVE: usize = 3;

/// The request mix, per draw: `(kind, weight)`. The weights are the
/// request counts of the deterministic `serve_load` replay
/// (`crates/serve/src/bin/serve_load.rs`, 6 rounds, 34 requests):
/// 12 plain `SOLVE`s, 6 `SOLVE --weighted`, 6 `SOLVE --approx`,
/// 3 `RESOLVE`s each followed by a `SOLVE` of the edited instance
/// (the other 3 of its 15 `SOLVE`s), 3 `LOAD`s and 1 `STATS`.
const MIX: [(Draw, f64); 6] = [
    (Draw::Solve, 12.0),
    (Draw::Weighted, 6.0),
    (Draw::Approx, 6.0),
    (Draw::Resolve, 3.0),
    (Draw::Load, 3.0),
    (Draw::Stats, 1.0),
];

#[derive(Debug, Clone, Copy)]
enum Draw {
    Solve,
    Weighted,
    Approx,
    Resolve,
    Load,
    Stats,
}

/// The server's solver configuration, for the traced engine probes.
pub const SERVER_SOLVE: SolveCfg = SolveCfg {
    algorithm: parvc_core::Algorithm::Hybrid,
    grid: crate::common::SERVE_GRID_LIMIT,
    prep: true,
};

/// One pool entry: a base instance and, for cardinality entries, the
/// chain of graph states its seeded `RESOLVE` batches walk through.
pub struct Entry {
    pub base: Instance,
    /// `states[0]` is the base graph; `states[s + 1]` follows
    /// `edits[s]`. Weighted entries are never re-solved.
    pub states: Vec<CsrGraph>,
    pub hashes: Vec<u64>,
    pub edits: Vec<String>,
    /// DIMACS copy of the base graph, for `LOAD` from a file.
    pub dimacs: String,
}

impl Entry {
    /// The reference-table label of chain state `s`: the spec, then
    /// the edit batches that lead to it.
    pub fn label(&self, s: usize) -> String {
        match s {
            0 => self.base.spec.clone(),
            _ => format!(
                "{} after {}",
                self.base.spec,
                self.edits[..s].join(" then ")
            ),
        }
    }
}

/// The instance pool (mid-size instances whose exact miss costs
/// 10–35 ms) and its edit chains, all derived from the benchmark seed.
pub fn pool_specs(seed: u64) -> Vec<String> {
    let mut specs = Vec::new();
    for i in 0..5 {
        let s = |fam: &str| derive_seed(seed, fam, i);
        specs.push(format!("phat:180:1@{}", s("serve-phat")));
        specs.push(format!("components:3000:150:0.3@{}", s("serve-components")));
        specs.push(format!("ba:5000:3@{}", s("serve-ba")));
        // Weighted: a small G(n,p) (a 90-vertex one takes ~0.5 s
        // weighted) and the twin of the components instance. Weighted
        // BA instances are left out: without crown and high-degree
        // rules their dense core does not finish in seconds.
        specs.push(format!("gnp:65:0.1@{}:w=degree", s("serve-gnp-w")));
        specs.push(format!(
            "components:3000:150:0.3@{}:w=degree",
            s("serve-components")
        ));
    }
    specs
}

pub fn build_pool(seed: u64, work: &WorkDir) -> Vec<Entry> {
    pool_specs(seed)
        .into_iter()
        .enumerate()
        .map(|(j, spec)| {
            let base = Instance::generate(spec);
            let mut states = vec![base.graph.clone()];
            let mut edits = Vec::new();
            if !base.weighted {
                for step in 0..CHAIN_STEPS {
                    let edit_seed = derive_seed(seed, "serve-edit", (j * 8 + step) as u64);
                    let g = states.last().expect("chain starts at the base");
                    let script = edit_script(g, EDITS_PER_RESOLVE, 0.5, edit_seed);
                    let next = script.apply(g).expect("generated edits apply");
                    edits.push(format!("gen:{EDITS_PER_RESOLVE}:0.5@{edit_seed}"));
                    states.push(next);
                }
            }
            let hashes = states.iter().map(CsrGraph::content_hash).collect();
            let path = work.path().join(format!("pool-{j}.dimacs"));
            let file = std::fs::File::create(&path).expect("creating a pool DIMACS file");
            let mut w = std::io::BufWriter::new(file);
            io::write_dimacs(&base.graph, "edge", &mut w).expect("writing a pool DIMACS file");
            std::io::Write::flush(&mut w).expect("flushing a pool DIMACS file");
            Entry {
                base,
                states,
                hashes,
                edits,
                dimacs: path.to_string_lossy().into_owned(),
            }
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Load,
    Solve,
    Approx,
    Resolve,
    Stats,
}

/// A reply check that needs the reference optimum.
#[derive(Debug, Clone, Copy)]
struct Pending {
    hash_state: (usize, usize),
    weighted: bool,
    /// Exact: the cost must equal OPT. Approx: `lb ≤ OPT ≤ cost`.
    exact: bool,
    cost: u64,
    lower_bound: u64,
}

/// One connection's view: its instance names' current chain states.
struct Conn {
    id: usize,
    rng: Rng,
    steps: Vec<usize>,
    /// The instance a `RESOLVE` just edited, to be solved next.
    follow_up: Option<usize>,
}

/// What one request did.
struct Done {
    kind: Kind,
    cached: bool,
    ms: f64,
    ok: bool,
    pending: Option<Pending>,
    /// Exact answers feed the cache replay: key and entry.
    cache: Option<CacheStep>,
}

impl Conn {
    fn new(seed: u64, id: usize, pool: &[Entry]) -> Self {
        Conn {
            id,
            rng: Rng::new(derive_seed(seed, "serve-conn", id as u64)),
            steps: vec![0; pool.len()],
            follow_up: None,
        }
    }

    fn name(&self, j: usize) -> String {
        format!("c{}e{j}", self.id)
    }

    /// Skewed pick among the entries `filter` admits: the entry of rank
    /// r is drawn with weight 1/(r+1) (Zipf with exponent 1, a chosen
    /// skew), so a few instances repeat often and hit the cache while
    /// the tail misses and evicts.
    fn pick(&mut self, pool: &[Entry], filter: impl Fn(&Entry) -> bool) -> usize {
        let admitted: Vec<usize> = (0..pool.len()).filter(|&j| filter(&pool[j])).collect();
        let weights: Vec<f64> = (0..admitted.len()).map(|r| 1.0 / (r + 1) as f64).collect();
        admitted[self.rng.pick(&weights)]
    }

    /// Draws the next request of the mix.
    fn next_request(&mut self, pool: &[Entry]) -> (Kind, usize, String) {
        if let Some(j) = self.follow_up.take() {
            return (Kind::Solve, j, format!("SOLVE {}", self.name(j)));
        }
        let weights: Vec<f64> = MIX.iter().map(|&(_, w)| w).collect();
        match MIX[self.rng.pick(&weights)].0 {
            Draw::Solve => {
                let j = self.pick(pool, |e| !e.base.weighted);
                (Kind::Solve, j, format!("SOLVE {}", self.name(j)))
            }
            Draw::Weighted => {
                let j = self.pick(pool, |e| e.base.weighted);
                (Kind::Solve, j, format!("SOLVE {} --weighted", self.name(j)))
            }
            Draw::Stats => (Kind::Stats, 0, "STATS".into()),
            Draw::Approx => {
                let j = self.pick(pool, |_| true);
                let w = if pool[j].base.weighted {
                    " --weighted"
                } else {
                    ""
                };
                (
                    Kind::Approx,
                    j,
                    format!("SOLVE {} --approx{w}", self.name(j)),
                )
            }
            Draw::Resolve => {
                let j = self.pick(pool, |e| !e.base.weighted);
                match pool[j].edits.get(self.steps[j]) {
                    Some(edits) => {
                        self.follow_up = Some(j);
                        let line = format!("RESOLVE {} --edits {edits}", self.name(j));
                        (Kind::Resolve, j, line)
                    }
                    // End of the chain: reset the instance instead.
                    None => self.load(pool, j),
                }
            }
            Draw::Load => {
                let j = self.pick(pool, |_| true);
                self.load(pool, j)
            }
        }
    }

    fn load(&mut self, pool: &[Entry], j: usize) -> (Kind, usize, String) {
        let source = if self.rng.unit() < 0.5 {
            &pool[j].dimacs
        } else {
            &pool[j].base.spec
        };
        (Kind::Load, j, format!("LOAD {} {source}", self.name(j)))
    }

    /// Sends one request and checks its reply against the harness's
    /// copy of the instance state.
    fn issue(
        &mut self,
        client: &mut Client,
        pool: &[Entry],
        kind: Kind,
        j: usize,
        line: &str,
    ) -> Done {
        let (ms, text) = match client.request(line) {
            Ok((ms, text)) => (ms, text.to_string()),
            Err(e) => {
                eprintln!("perfbench: {line}: {e}");
                return Done {
                    kind,
                    cached: false,
                    ms: 0.0,
                    ok: false,
                    pending: None,
                    cache: None,
                };
            }
        };
        let reply = Reply::parse(&text);
        let e = &pool[j];
        let weighted = e.base.weighted;
        let mut done = Done {
            kind,
            cached: reply.cached,
            ms,
            ok: reply.ok,
            pending: None,
            cache: None,
        };
        match kind {
            Kind::Stats => {}
            Kind::Load => {
                self.steps[j] = 0;
                let want = format!("{:016x}", e.hashes[0]);
                done.ok &= reply.hash.as_deref() == Some(want.as_str());
            }
            Kind::Approx => {
                let s = self.steps[j];
                done.ok &= reply.approx_ok(&e.states[s], weighted);
                done.pending = Some(Pending {
                    hash_state: (j, s),
                    weighted,
                    exact: false,
                    cost: reply.cost.unwrap_or(0),
                    lower_bound: reply.lower_bound.unwrap_or(0),
                });
            }
            Kind::Solve | Kind::Resolve => {
                if kind == Kind::Resolve {
                    self.steps[j] += 1;
                }
                let s = self.steps[j];
                done.ok &= reply.exact_ok(&e.states[s], weighted);
                let cost = reply.cost.unwrap_or(0);
                done.pending = Some(Pending {
                    hash_state: (j, s),
                    weighted,
                    exact: true,
                    cost,
                    lower_bound: 0,
                });
                if let Some(cover) = reply.cover {
                    done.cache = Some((
                        cache_key(e.hashes[s], weighted),
                        CacheEntry {
                            cover,
                            cost,
                            tree_nodes: 0,
                        },
                    ));
                }
            }
        }
        done
    }
}

/// Settles every pending check against the references.
fn settle(done: &[Done], pool: &[Entry], book: &mut RefBook) -> Tally {
    let mut tally = Tally::default();
    for d in done {
        let ok = d.ok
            && d.pending.is_none_or(|p| {
                let (j, s) = p.hash_state;
                match book.opt(&pool[j].label(s), &pool[j].states[s], p.weighted) {
                    Some(opt) if p.exact => p.cost == opt,
                    Some(opt) => p.lower_bound <= opt && opt <= p.cost,
                    None => false,
                }
            });
        tally.record(ok);
    }
    tally
}

/// A running server with its warmed-up connections.
struct Live {
    server: ServerHandle,
    clients: Vec<Client>,
    conns: Vec<Conn>,
    warmup: Vec<Done>,
}

/// Set-up: a fresh cache file, the server, the connections, and one
/// warm-up pass that loads every instance and solves each once, so the
/// LRU cache is in its steady state before timing starts.
fn start(seed: u64, pool: &[Entry], work: &WorkDir, telemetry: bool) -> Live {
    let cache_path = work.path().join("serve-cache.json");
    let _ = std::fs::remove_file(&cache_path);
    let server = ServerHandle::start(serve_config(CACHE_CAPACITY, cache_path, telemetry))
        .expect("starting the server");
    let mut clients = Vec::new();
    let mut conns = Vec::new();
    for c in 0..SERVE_CONNECTIONS as usize {
        clients.push(server.connect().expect("connecting to the server"));
        conns.push(Conn::new(seed, c, pool));
    }
    // Every connection warms up at once, like the timed phase runs.
    let warmup = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for (client, conn) in clients.iter_mut().zip(conns.iter_mut()) {
            let warmup = &warmup;
            scope.spawn(move || {
                let mut done = Vec::new();
                for j in 0..pool.len() {
                    let line = format!("LOAD {} {}", conn.name(j), pool[j].base.spec);
                    done.push(conn.issue(client, pool, Kind::Load, j, &line));
                }
                for j in 0..pool.len() {
                    let w = if pool[j].base.weighted {
                        " --weighted"
                    } else {
                        ""
                    };
                    let line = format!("SOLVE {}{w}", conn.name(j));
                    done.push(conn.issue(client, pool, Kind::Solve, j, &line));
                }
                warmup
                    .lock()
                    .expect("a warm-up thread panicked")
                    .extend(done);
            });
        }
    });
    let warmup = warmup.into_inner().expect("a warm-up thread panicked");
    Live {
        server,
        clients,
        conns,
        warmup,
    }
}

impl Live {
    /// Runs every connection closed-loop until `until` or, when given,
    /// for exactly `count` requests each. Returns every request, with
    /// harness spans (on `epoch`'s clock) when `epoch` is given.
    fn drive(
        &mut self,
        pool: &[Entry],
        until: Option<Instant>,
        count: Option<usize>,
        epoch: Option<Instant>,
    ) -> (Vec<Done>, Option<Tracer>) {
        let merged = Mutex::new((Vec::new(), epoch.map(Tracer::new)));
        std::thread::scope(|scope| {
            for (client, conn) in self.clients.iter_mut().zip(self.conns.iter_mut()) {
                let merged = &merged;
                scope.spawn(move || {
                    let mut tracer = epoch.map(Tracer::new);
                    let mut done = Vec::new();
                    let mut n = 0;
                    while count.is_none_or(|c| n < c) && until.is_none_or(|u| Instant::now() < u) {
                        let (kind, j, line) = conn.next_request(pool);
                        if let Some(tr) = tracer.as_mut() {
                            tr.set_op(((conn.id as u64) << 32) | n as u64);
                        }
                        let span = tracer.as_mut().map(|tr| tr.begin("serve.request"));
                        let d = conn.issue(client, pool, kind, j, &line);
                        if let (Some(tr), Some(id)) = (tracer.as_mut(), span) {
                            tr.end_as(id, span_name(d.kind, d.cached));
                        }
                        done.push(d);
                        n += 1;
                    }
                    let mut m = merged.lock().expect("a client thread panicked");
                    m.0.extend(done);
                    if let (Some(all), Some(tr)) = (m.1.as_mut(), tracer) {
                        all.absorb(tr);
                    }
                });
            }
        });
        merged.into_inner().expect("a client thread panicked")
    }

    fn stats(&mut self) -> Reply {
        let (_, text) = self.clients[0].request("STATS").expect("STATS");
        Reply::parse(text)
    }

    fn stop(self) -> Option<parvc_core::TelemetrySnapshot> {
        drop(self.clients);
        self.server.shutdown()
    }
}

fn span_name(kind: Kind, cached: bool) -> &'static str {
    match (kind, cached) {
        (Kind::Load, _) => "serve.load",
        (Kind::Solve, true) => "serve.solve_hit",
        (Kind::Solve, false) => "serve.solve_miss",
        (Kind::Approx, _) => "serve.approx",
        (Kind::Resolve, _) => "serve.resolve",
        (Kind::Stats, _) => "serve.stats",
    }
}

/// The untraced run: end-to-end metrics.
pub fn run(opts: &RunOpts) -> Result<Outcome, String> {
    let work = WorkDir::create(&opts.workload).map_err(|e| e.to_string())?;
    let mut setup_s = Vec::new();
    let mut live = None;
    let mut pool = Vec::new();
    let mut warm = Vec::new();
    for _ in 0..SERVE_SETUP_REPEATS {
        if let Some(l) = live.take() {
            Live::stop(l);
        }
        let t = Instant::now();
        pool = build_pool(opts.seed, &work);
        let mut l = start(opts.seed, &pool, &work, false);
        setup_s.push(t.elapsed().as_secs_f64());
        warm.append(&mut l.warmup);
        live = Some(l);
    }
    let mut live = live.expect("at least one set-up");
    // Cache counters on both sides of the timed phase, outside it.
    let before = cache_counts(&live.stats());
    let t0 = Instant::now();
    let (done, _) = live.drive(&pool, Some(t0 + opts.timed()), None, None);
    let elapsed = t0.elapsed().as_secs_f64();
    let after = cache_counts(&live.stats());
    live.stop();
    // Read before any reference work, so seeds that re-solve their
    // references report the same thing as seeds that read a table.
    let peak_rss = peak_rss_mb();

    // References after the timed phase, never inside it.
    let mut book = RefBook::for_run(opts, true)?;
    let mut tally = settle(&done, &pool, &mut book);
    let warm_tally = settle(&warm, &pool, &mut book);

    let lat: Vec<f64> = done.iter().map(|d| d.ms).collect();
    let solves = done.iter().filter(|d| d.kind == Kind::Solve).count();
    let hits = done
        .iter()
        .filter(|d| d.kind == Kind::Solve && d.cached)
        .count();
    let mut m = Metrics::default();
    m.add("setup_s", median(&setup_s).unwrap_or(0.0), "s");
    m.add(
        "latency_ms_p50",
        percentile(&lat, 50.0).unwrap_or(0.0),
        "ms",
    );
    m.add(
        "latency_ms_p90",
        percentile(&lat, 90.0).unwrap_or(0.0),
        "ms",
    );
    m.add("throughput_ops_s", done.len() as f64 / elapsed, "1/s");
    m.add("peak_rss_mb", peak_rss, "MB");
    let mut detail = vec![
        ("operations".into(), done.len().to_string()),
        (
            "beyond_p90".into(),
            samples_beyond(lat.len(), 90.0).to_string(),
        ),
        // Reported, not a metric: p99 rests on about six requests of
        // a run.
        (
            "latency_ms_p99".into(),
            format!("{}", percentile(&lat, 99.0).unwrap_or(0.0)),
        ),
        (
            "beyond_p99".into(),
            samples_beyond(lat.len(), 99.0).to_string(),
        ),
        ("timed_s".into(), format!("{elapsed}")),
        (
            "failed_frac".into(),
            format!("{}", tally.failed as f64 / tally.attempted.max(1) as f64),
        ),
        ("solve_requests".into(), solves.to_string()),
        (
            "solve_hit_share".into(),
            format!("{}", hits as f64 / solves.max(1) as f64),
        ),
        ("mix".into(), mix_json(&done)),
        ("kind_p50_p90_ms".into(), kind_latency_json(&done)),
        ("timed_cache_hits".into(), (after.0 - before.0).to_string()),
        (
            "timed_cache_lookups".into(),
            (after.0 + after.1 - before.0 - before.1).to_string(),
        ),
        (
            "timed_cache_evictions".into(),
            (after.2 - before.2).to_string(),
        ),
        ("warmup_failed".into(), warm_tally.failed.to_string()),
        ("reference_table".into(), book.uses_table().to_string()),
        ("reference_misses".into(), book.misses.to_string()),
        ("reference_resolves".into(), book.solved.to_string()),
    ];
    detail.push(("setup_samples_s".into(), format!("{setup_s:?}")));
    tally.merge(warm_tally);
    Ok(Outcome {
        tally,
        metrics: m,
        detail,
    })
}

/// `{"kind": [p50, p90] ms, ...}`: where each request kind (hits and
/// misses of exact `SOLVE`s apart) sits in the latency distribution.
fn kind_latency_json(done: &[Done]) -> String {
    let mut by_kind: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
    for d in done {
        by_kind
            .entry(span_name(d.kind, d.cached))
            .or_default()
            .push(d.ms);
    }
    let rows: Vec<String> = by_kind
        .iter()
        .map(|(k, v)| {
            let p = |q| percentile(v, q).unwrap_or(0.0);
            format!("\"{k}\":[{:.3},{:.3}]", p(50.0), p(90.0))
        })
        .collect();
    format!("{{{}}}", rows.join(","))
}

fn mix_json(done: &[Done]) -> String {
    let count = |k: Kind| done.iter().filter(|d| d.kind == k).count();
    format!(
        "{{\"load\":{},\"solve\":{},\"approx\":{},\"resolve\":{},\"stats\":{}}}",
        count(Kind::Load),
        count(Kind::Solve),
        count(Kind::Approx),
        count(Kind::Resolve),
        count(Kind::Stats)
    )
}

/// `(hits, misses, evictions)` of the result cache, from a `STATS`
/// reply.
fn cache_counts(stats: &Reply) -> (u64, u64, u64) {
    let cache = |k: &str| {
        stats
            .value
            .as_ref()
            .and_then(|v| v.get("cache"))
            .and_then(|c| c.get(k))
            .and_then(|x| x.num())
            .unwrap_or(0)
    };
    (cache("hits"), cache("misses"), cache("evictions"))
}

/// Per-verb serve metrics from harness spans (p50 of each class, with
/// hits and misses told apart by the reply's `cached` field), and the
/// cache and shedding counts from a `STATS` reply.
pub fn serve_metrics(tr: &Tracer, stats: &Reply, m: &mut Metrics) {
    let p50 = |name| percentile(&tr.durations_ms(name), 50.0).unwrap_or(0.0);
    m.add("serve.load_ms", p50("serve.load"), "ms");
    m.add("serve.solve_hit_ms", p50("serve.solve_hit"), "ms");
    m.add("serve.solve_miss_ms", p50("serve.solve_miss"), "ms");
    m.add("serve.approx_ms", p50("serve.approx"), "ms");
    m.add("serve.resolve_ms", p50("serve.resolve"), "ms");
    let (hits, misses, evictions) = cache_counts(stats);
    m.add(
        "serve.cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    m.add("serve.cache_hits", hits as f64, "count");
    m.add("serve.cache_lookups", (hits + misses) as f64, "count");
    m.add("serve.evictions", evictions as f64, "count");
    let sheds = stats
        .value
        .as_ref()
        .and_then(|v| v.get("sheds"))
        .and_then(|x| x.num());
    m.add("serve.sheds", sheds.unwrap_or(0) as f64, "count");
}

/// The serve probe of a batch workload's traced run: `LOAD`, a missing
/// and a hitting `SOLVE`, `SOLVE --approx` and one `RESOLVE` per
/// instance, over one connection.
pub fn serve_probe(
    tr: &mut Tracer,
    insts: &[Instance],
    seed: u64,
    work: &WorkDir,
    book: &mut RefBook,
    m: &mut Metrics,
    tally: &mut Tally,
) -> Vec<CacheStep> {
    let server = ServerHandle::start(serve_config(
        64,
        work.path().join("probe-cache.json"),
        false,
    ))
    .expect("starting the probe server");
    let mut client = server.connect().expect("connecting to the probe server");
    let mut steps = Vec::new();
    let mut call = |tr: &mut Tracer, line: &str, class: Option<&'static str>| -> Reply {
        let span = tr.begin("serve.request");
        let reply = client
            .request(line)
            .map(|(_, text)| Reply::parse(text))
            .unwrap_or_default();
        let name = class.unwrap_or(if reply.cached {
            "serve.solve_hit"
        } else {
            "serve.solve_miss"
        });
        tr.end_as(span, name);
        reply
    };
    for (i, inst) in insts.iter().enumerate() {
        let g = &inst.graph;
        let w = if inst.weighted { " --weighted" } else { "" };
        let loaded = call(tr, &format!("LOAD p{i} {}", inst.spec), Some("serve.load"));
        tally.record(loaded.hash == Some(format!("{:016x}", g.content_hash())));
        let opt = book.opt(&inst.spec, g, inst.weighted);
        for _ in 0..2 {
            let r = call(tr, &format!("SOLVE p{i}{w}"), None);
            tally.record(r.exact_ok(g, inst.weighted) && r.cost == opt);
            if let (Some(cover), Some(cost)) = (r.cover, r.cost) {
                steps.push((
                    cache_key(g.content_hash(), inst.weighted),
                    CacheEntry {
                        cover,
                        cost,
                        tree_nodes: 0,
                    },
                ));
            }
        }
        let a = call(tr, &format!("SOLVE p{i} --approx{w}"), Some("serve.approx"));
        tally.record(
            a.approx_ok(g, inst.weighted)
                && opt.is_some_and(|o| a.lower_bound <= Some(o) && Some(o) <= a.cost),
        );
        let edit_seed = derive_seed(seed, "probe-edit", i as u64);
        let edited = edit_script(g, EDITS_PER_RESOLVE, 0.5, edit_seed)
            .apply(g)
            .expect("generated edits apply");
        let line = format!("RESOLVE p{i} --edits gen:{EDITS_PER_RESOLVE}:0.5@{edit_seed}{w}");
        let r = call(tr, &line, Some("serve.resolve"));
        let label = format!(
            "{} after gen:{EDITS_PER_RESOLVE}:0.5@{edit_seed}",
            inst.spec
        );
        let opt_edited = book.probe_opt(&label, &edited, inst.weighted);
        tally.record(r.exact_ok(&edited, inst.weighted) && r.cost == opt_edited);
    }
    let stats = call(tr, "STATS", Some("serve.stats"));
    tally.record(stats.ok);
    serve_metrics(tr, &stats, m);
    drop(client);
    server.shutdown();
    steps
}

/// The traced run: per-layer metrics.
pub fn run_traced(opts: &RunOpts) -> Result<Outcome, String> {
    let work = WorkDir::create(&opts.workload).map_err(|e| e.to_string())?;
    let epoch = Instant::now();
    let mut tr = Tracer::new(epoch);
    let mut m = Metrics::default();
    let mut tally = Tally::default();
    let mut book = RefBook::for_run(opts, true)?;
    let pool = build_pool(opts.seed, &work);

    // The same deterministic request streams, untraced then traced:
    // the traced one runs for half the budget, the untraced one replays
    // exactly as many requests per connection.
    let half = opts.timed() / 2;
    let mut live = start(opts.seed, &pool, &work, true);
    let t = Instant::now();
    let (traced_done, tracer) = live.drive(&pool, Some(t + half), None, Some(epoch));
    let traced_ms = ms_since(t);
    let stats = live.stats();
    let snap = live.stop();
    let per_conn = traced_done.len().div_ceil(SERVE_CONNECTIONS as usize);
    let mut live = start(opts.seed, &pool, &work, false);
    let t = Instant::now();
    let (plain_done, _) = live.drive(&pool, None, Some(per_conn), None);
    let plain_ms = ms_since(t);
    live.stop();
    let stream_tr = tracer.expect("traced stream records spans");
    serve_metrics(&stream_tr, &stats, &mut m);
    let mut server_spans = SelfTimes::default();
    if let Some(s) = &snap {
        server_spans.fold(s);
    }
    tally.merge(settle(&traced_done, &pool, &mut book));
    tally.merge(settle(&plain_done, &pool, &mut book));

    let steps: Vec<CacheStep> = traced_done.iter().filter_map(|d| d.cache.clone()).collect();
    layers::cache_layer(
        &mut tr,
        &steps,
        CACHE_CAPACITY,
        &work.path().join("replay-cache.json"),
        &mut m,
    );
    let bases: Vec<Instance> = pool.iter().map(|e| e.base.clone()).collect();
    let battery = crate::batch::layer_battery(
        &mut tr,
        &bases,
        SERVER_SOLVE,
        false,
        opts.seed,
        &work,
        &mut book,
        &mut m,
        &mut tally,
        false,
    );
    tr.absorb(stream_tr);
    let overhead = traced_ms / plain_ms.max(1e-9);
    crate::batch::finish_traced(
        &mut m,
        &mut tally,
        overhead,
        battery.dropped + server_spans.dropped_spans,
    );
    let detail = vec![
        ("traced_requests".into(), traced_done.len().to_string()),
        ("untraced_requests".into(), plain_done.len().to_string()),
        // Server spans from every pool worker share one track, so only
        // their inclusive totals are meaningful.
        ("server_span_ms".into(), server_spans.totals_json()),
    ];
    crate::batch::write_spans(&tr, &opts.workload);
    Ok(Outcome {
        tally,
        metrics: m,
        detail,
    })
}
