//! Reference optima: the committed default-seed tables under `refs/`,
//! and `Sequential` re-solves for any other seed, made after the timed
//! phase.
//!
//! A table line is `<fingerprint hex>\t<objective>\t<optimum>\t<label>`.
//! Rows are keyed by label (the generator spec, plus the edit batches
//! for a state along an edit chain) and objective. The fingerprint is
//! the harness's own, so no change to the program under test (its
//! content hash, say) can make a lookup miss; it only cross-checks that
//! the row describes the graph the run generated. While a table is in
//! use, a missing row or a row for another graph is a failed check,
//! never a silent re-solve.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use parvc_core::{is_vertex_cover, Algorithm, PrepConfig, Solver};
use parvc_graph::CsrGraph;

use crate::common::{ms_since, RunOpts, OP_DEADLINE};

/// A graph fingerprint that depends only on the graph up to vertex
/// renaming: vertex and edge counts, the sorted `(degree, weight)` of
/// every vertex, and the sorted endpoint-degree pairs of every edge
/// (FNV-1a over them).
pub fn fingerprint(g: &CsrGraph) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    feed(u64::from(g.num_vertices()));
    feed(g.num_edges());
    let mut vertices: Vec<(u32, u64)> = g.vertices().map(|v| (g.degree(v), g.weight(v))).collect();
    vertices.sort_unstable();
    let mut edges: Vec<(u32, u32)> = g
        .edges()
        .map(|(u, v)| {
            let (a, b) = (g.degree(u), g.degree(v));
            (a.min(b), a.max(b))
        })
        .collect();
    edges.sort_unstable();
    feed(u64::from(g.is_weighted()));
    for (d, w) in vertices {
        feed(u64::from(d));
        feed(w);
    }
    for (a, b) in edges {
        feed((u64::from(a) << 32) | u64::from(b));
    }
    h
}

/// One table row.
#[derive(Debug, Clone, Copy)]
struct Row {
    fingerprint: u64,
    opt: u64,
}

/// `(label, weighted)` → the reference optimum and its graph's
/// fingerprint.
#[derive(Debug, Default, Clone)]
pub struct Refs {
    table: BTreeMap<(String, bool), Row>,
}

impl Refs {
    /// Loads a table; a missing or unreadable file is an error.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reference table {}: {e}", path.display()))?;
        let mut refs = Refs::default();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() || line.starts_with('#') {
                continue;
            }
            let cols: Vec<&str> = line.split('\t').collect();
            let parsed = (cols.len() == 4)
                .then(|| {
                    let fingerprint = u64::from_str_radix(cols[0], 16).ok()?;
                    let weighted = match cols[1] {
                        "weighted" => true,
                        "cardinality" => false,
                        _ => return None,
                    };
                    let opt = cols[2].parse::<u64>().ok()?;
                    Some((cols[3].to_string(), weighted, Row { fingerprint, opt }))
                })
                .flatten();
            let (label, weighted, row) = parsed
                .ok_or_else(|| format!("{}:{}: bad reference line", path.display(), i + 1))?;
            refs.table.insert((label, weighted), row);
        }
        if refs.table.is_empty() {
            return Err(format!("reference table {} has no rows", path.display()));
        }
        Ok(refs)
    }

    /// The optimum of `label` under the objective, checked against
    /// `g`'s fingerprint.
    pub fn lookup(&self, label: &str, g: &CsrGraph, weighted: bool) -> Result<u64, String> {
        let objective = if weighted { "weighted" } else { "cardinality" };
        let row = self
            .table
            .get(&(label.to_string(), weighted))
            .ok_or_else(|| format!("no {objective} reference for {label}"))?;
        if row.fingerprint != fingerprint(g) {
            return Err(format!(
                "the {objective} reference for {label} describes another graph"
            ));
        }
        Ok(row.opt)
    }
}

/// The reference solver: single-threaded `Sequential`, with prep for
/// the workloads whose instances need kernelization to finish.
pub fn reference_solver(weighted: bool, prep: bool) -> Solver {
    let mut b = Solver::builder()
        .algorithm(Algorithm::Sequential)
        .deadline(Some(OP_DEADLINE));
    if prep {
        b = b.preprocess(PrepConfig::default());
    }
    if weighted {
        b = b.weighted();
    }
    b.build()
}

/// Solves `g` with the reference solver; `None` if it timed out or
/// returned an invalid cover. Also returns the solve's milliseconds.
pub fn reference_opt(g: &CsrGraph, weighted: bool, prep: bool) -> (Option<u64>, f64) {
    let t = Instant::now();
    let r = reference_solver(weighted, prep).solve_mvc(g);
    let ms = ms_since(t);
    let ok = !r.stats.timed_out && is_vertex_cover(g, &r.cover);
    let opt = if weighted {
        r.weight
    } else {
        u64::from(r.size)
    };
    (ok.then_some(opt), ms)
}

/// One line of a reference table.
pub fn table_line(label: &str, g: &CsrGraph, weighted: bool, opt: u64) -> String {
    format!(
        "{:016x}\t{}\t{opt}\t{label}",
        fingerprint(g),
        if weighted { "weighted" } else { "cardinality" }
    )
}

/// References on demand. With a table (the default seed, or `--refs`)
/// every workload graph must have a matching row; without one (any
/// other seed) they come from reference re-solves. Graphs outside the
/// workload (the traced run's edited probe graphs) always come from a
/// re-solve.
#[derive(Debug)]
pub struct RefBook {
    table: Option<Refs>,
    prep: bool,
    /// Answers so far, by `(label, weighted)`; `None` when unsettled.
    known: BTreeMap<(String, bool), Option<u64>>,
    /// Reference re-solves made and their total milliseconds.
    pub solved: u64,
    pub solved_ms: f64,
    /// Graphs the reference solver could not settle.
    pub unsettled: u64,
    /// Workload graphs the table has no matching row for.
    pub misses: u64,
}

impl RefBook {
    pub fn new(table: Option<Refs>, prep: bool) -> Self {
        RefBook {
            table,
            prep,
            known: BTreeMap::new(),
            solved: 0,
            solved_ms: 0.0,
            unsettled: 0,
            misses: 0,
        }
    }

    /// The book for a run: the committed table for the default seed,
    /// `--refs` when given, re-solves otherwise.
    pub fn for_run(opts: &RunOpts, prep: bool) -> Result<Self, String> {
        let table = opts.refs_path().map(|p| Refs::load(&p)).transpose()?;
        Ok(RefBook::new(table, prep))
    }

    /// Whether answers are checked against a table.
    pub fn uses_table(&self) -> bool {
        self.table.is_some()
    }

    /// The optimum of workload graph `label`; `None` (a failure for the
    /// caller) when the table has no matching row or the reference
    /// solver could not settle it.
    pub fn opt(&mut self, label: &str, g: &CsrGraph, weighted: bool) -> Option<u64> {
        let key = (label.to_string(), weighted);
        if let Some(&known) = self.known.get(&key) {
            return known;
        }
        let opt = match &self.table {
            Some(refs) => match refs.lookup(label, g, weighted) {
                Ok(opt) => Some(opt),
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    self.misses += 1;
                    None
                }
            },
            None => self.resolve(g, weighted),
        };
        self.known.insert(key, opt);
        opt
    }

    /// The optimum of a graph outside the workload, from a reference
    /// re-solve whether or not a table is in use.
    pub fn probe_opt(&mut self, label: &str, g: &CsrGraph, weighted: bool) -> Option<u64> {
        let key = (format!("probe {label}"), weighted);
        if let Some(&known) = self.known.get(&key) {
            return known;
        }
        let opt = self.resolve(g, weighted);
        self.known.insert(key, opt);
        opt
    }

    /// Checks an optimum computed elsewhere (the timed `Sequential`
    /// baseline) against the book. Without a table, the first such
    /// optimum of a graph becomes its reference.
    pub fn confirm(&mut self, label: &str, g: &CsrGraph, weighted: bool, opt: Option<u64>) -> bool {
        let key = (label.to_string(), weighted);
        if self.table.is_none() && !self.known.contains_key(&key) {
            self.known.insert(key, opt);
            return opt.is_some();
        }
        opt.is_some() && self.opt(label, g, weighted) == opt
    }

    fn resolve(&mut self, g: &CsrGraph, weighted: bool) -> Option<u64> {
        let (opt, ms) = reference_opt(g, weighted, self.prep);
        self.solved += 1;
        self.solved_ms += ms;
        if opt.is_none() {
            self.unsettled += 1;
        }
        opt
    }
}
