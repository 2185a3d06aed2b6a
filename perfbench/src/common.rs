//! Shared plumbing: run options, seeds, corpus instances, the recorded
//! settings, and the result line.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use parvc_graph::gen::spec;
use parvc_graph::CsrGraph;

/// Resident thread blocks per solve in the batch workloads. One block
/// keeps every timed phase to one busy thread: on a shared host whose
/// second core comes and goes, a two-block solve's wall time measures
/// how many cores the host lent, not the solver.
pub const BATCH_BLOCKS: u32 = 1;
/// The thread cap: the most resident blocks any solve runs with. The
/// traced run's scheduling probe uses it (the fewest blocks that
/// donate, steal and can be imbalanced), and so does `--northstar`.
pub const MAX_BLOCKS: u32 = 2;
/// Client connections and server pool workers in `serve-mixed`: one
/// of each, so at most one request is served at a time (the pool gives
/// each connection a worker of its own).
pub const SERVE_CONNECTIONS: u32 = 1;
pub const SERVE_WORKERS: u32 = 1;
/// Resident blocks per solve inside the server.
pub const SERVE_GRID_LIMIT: u32 = 1;
/// Times set-up is repeated per run; `setup_s` is their median. The
/// batch set-ups take well under a second, so they repeat more often.
pub const BATCH_SETUP_REPEATS: usize = 7;
pub const SERVE_SETUP_REPEATS: usize = 3;
/// Every solve's deadline: far above any normal solve time, so expiry
/// is a failure, never a normal outcome.
pub const OP_DEADLINE: Duration = Duration::from_secs(60);
/// The seed whose reference optima are committed under `refs/`.
pub const DEFAULT_SEED: u64 = 1;

/// Command-line options of one benchmark run.
#[derive(Debug, Clone)]
pub struct RunOpts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Reference table to check against instead of the committed one.
    pub refs: Option<PathBuf>,
}

impl RunOpts {
    pub fn timed(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    /// The committed reference table for this workload, used when the
    /// run's seed is the default one (or `--refs` names another).
    pub fn refs_path(&self) -> Option<PathBuf> {
        match &self.refs {
            Some(p) => Some(p.clone()),
            None => (self.seed == DEFAULT_SEED).then(|| committed_refs(&self.workload)),
        }
    }
}

/// Where the committed default-seed reference table of `workload` lives.
pub fn committed_refs(workload: &str) -> PathBuf {
    bench_dir().join("refs").join(format!("{workload}.tsv"))
}

/// The benchmark package directory (compile-time, so the binary finds
/// its data wherever it is started from).
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Scratch directory for DIMACS files and the persisted cache, inside
/// the checkout; removed when the run ends.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn create(workload: &str) -> std::io::Result<Self> {
        let dir = bench_dir()
            .join("..")
            .join(".bench_work")
            .join(format!("{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Removes the shared parent only once it is empty.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Derives a generator seed for item `index` of `stream` from the one
/// benchmark seed (SplitMix64 over an FNV-1a hash of the stream name).
pub fn derive_seed(bench_seed: u64, stream: &str, index: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in stream.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    let mut z = bench_seed
        .wrapping_add(h.rotate_left(17))
        .wrapping_add(index.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) % 1_000_000_007
}

/// A small deterministic generator for workload choices.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Index drawn with probability proportional to `weights`.
    pub fn pick(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        let mut x = self.unit() * total;
        for (i, w) in weights.iter().enumerate() {
            if x < *w {
                return i;
            }
            x -= w;
        }
        weights.len() - 1
    }
}

/// One generated input: its generator spec, the graph, and the
/// objective it is solved under.
#[derive(Debug, Clone)]
pub struct Instance {
    pub spec: String,
    pub graph: CsrGraph,
    pub weighted: bool,
}

impl Instance {
    /// Generates `spec` (weighted when it carries a `:w=` channel).
    pub fn generate(spec_text: String) -> Self {
        let graph = spec::parse(&spec_text)
            .unwrap_or_else(|e| panic!("benchmark spec {spec_text}: {e}"))
            .unwrap_or_else(|| panic!("benchmark spec {spec_text} names no generator family"));
        Instance {
            weighted: graph.is_weighted(),
            spec: spec_text,
            graph,
        }
    }

    /// The objective value of `cover` on this instance.
    pub fn cost(&self, cover: &[u32]) -> u64 {
        if self.weighted {
            self.graph.cover_weight(cover)
        } else {
            cover.len() as u64
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Builds a metric list fluently.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn add(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push(Metric { name, value, unit });
    }
}

/// Correctness bookkeeping over one run's operations.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// What a workload hands back to `main`.
#[derive(Debug)]
pub struct Outcome {
    pub tally: Tally,
    pub metrics: Metrics,
    /// Extra facts for the detail line (sample counts, bases, mixes),
    /// as `(key, JSON value)` pairs.
    pub detail: Vec<(String, String)>,
}

/// Peak resident set of this process, from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The box's speed, measured before set-up: the milliseconds of a
/// fixed spin loop on one thread, and how many cores two busy threads
/// actually get (that time, times two, over the time of two copies at
/// once: 2.0 = two real cores, 1.0 = one core shared). A guest's
/// `nproc` can promise more than the host delivers, and the spin time
/// shows when the box itself ran slow.
pub fn calibrate() -> (f64, f64) {
    fn spin() -> u64 {
        let mut x = std::hint::black_box(0x2545_f491_4f6c_dd1du64);
        for _ in 0..40_000_000 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        }
        std::hint::black_box(x)
    }
    let t = Instant::now();
    spin();
    let one = t.elapsed().as_secs_f64();
    let t = Instant::now();
    std::thread::scope(|s| {
        let other = s.spawn(spin);
        spin();
        other.join().expect("spin thread");
    });
    (one * 1e3, 2.0 * one / t.elapsed().as_secs_f64())
}

/// The settings every result records, so runs under different
/// settings are never compared: the machine, the thread caps, and the
/// commit.
pub fn settings_json(opts: &RunOpts, (spin_ms, effective_cores): (f64, f64)) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let host = std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map(|h| h.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{nproc},\
         \"effective_cores\":{effective_cores:.2},\"spin_ms\":{spin_ms:.1},\
         \"host\":\"{}\",\"commit\":\"{}\",\"batch_blocks\":{BATCH_BLOCKS},\
         \"max_blocks\":{MAX_BLOCKS},\"batch_executor\":\"serial\",\"serve_connections\":{SERVE_CONNECTIONS},\
         \"serve_workers\":{SERVE_WORKERS},\"serve_grid_limit\":{SERVE_GRID_LIMIT},\
         \"setup_repeats\":{{\"batch\":{BATCH_SETUP_REPEATS},\"serve\":{SERVE_SETUP_REPEATS}}}}}",
        opts.workload,
        opts.seed,
        opts.seconds,
        opts.trace,
        json_escape(&host),
        json_escape(&commit_id()),
    )
}

/// The checkout's commit: `PERFBENCH_COMMIT` when set, else read from
/// `.git`, else `unknown` (an exported checkout has no `.git`).
pub fn commit_id() -> String {
    if let Ok(c) = std::env::var("PERFBENCH_COMMIT") {
        return c;
    }
    let git = bench_dir().join("..").join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

pub fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect()
}

/// A JSON number for `v`, with all its digits (non-finite becomes null,
/// which the caller treats as a failed run).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Milliseconds elapsed since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}
