//! The host-speed gauge, and times in reference-core milliseconds.
//!
//! The reference box is a guest on a shared host, and the host runs the
//! guest's core at about full speed for a stretch of minutes and then at
//! about half speed for another. Every CPU-bound time the benchmark
//! takes moves by that factor, so two sets of runs that straddle a shift
//! disagree by up to 2× with no change to the code. The gauge is a fixed
//! piece of work of the harness's own, read before every set-up and every
//! [`EVERY`] of the timed phase, between operations. A run's CPU-bound
//! times are reported as `t × NOMINAL_MS / median reading`: reference-core
//! time, which the host's state does not move. No code of the program
//! under test runs in the gauge, so any change to the program's speed
//! shows in full.

use std::time::{Duration, Instant};

use crate::common::ms_since;
use crate::stats::median;

/// The gauge's median reading over runs on the reference box while its
/// host was in the slower of its two states. It only sets the scale:
/// reference-core figures read like wall time at that speed.
pub const NOMINAL_MS: f64 = 1.35;
/// How often a timed phase re-reads the gauge.
pub const EVERY: Duration = Duration::from_millis(500);
/// Passes per reading; the reading is their median, so one interrupt
/// or a cold cache does not set it.
const PASSES: usize = 3;
/// The gauge's exact search: a fixed G(n, p) graph.
const SEARCH_N: usize = 60;
const SEARCH_P: f64 = 0.12;
/// The gauge's allocation pass: fill and sort fresh vectors.
const SORT_LEN: usize = 1 << 14;
const SORTS: usize = 2;

/// A fixed piece of work in the solver's mix: a small exact
/// branch-and-reduce vertex cover search (branchy integer work on small
/// arrays), then allocating, filling and sorting fresh vectors (the
/// allocation and memory traffic of prep on large instances). Both are
/// the harness's own code. Across minutes in which the reference box's
/// speed moved by ±10%, their time tracked the program's own solves
/// (log-log slope 1.0–1.3, correlation 0.95–0.97), closer than a
/// pointer chase or a multiply loop did.
pub struct Gauge {
    graph: MiniGraph,
    readings: Vec<f64>,
    last: Instant,
}

impl Default for Gauge {
    fn default() -> Self {
        Self::new()
    }
}

impl Gauge {
    /// Builds the graph and takes the first reading.
    pub fn new() -> Self {
        let mut g = Gauge {
            graph: MiniGraph::gnp(SEARCH_N, SEARCH_P),
            readings: Vec::new(),
            last: Instant::now(),
        };
        g.read();
        g
    }

    fn pass(&self) -> u64 {
        let mut acc = u64::from(self.graph.min_cover());
        for k in 0..SORTS {
            let mut v: Vec<u32> = (0..SORT_LEN as u32).map(|j| j ^ k as u32).collect();
            v.sort_unstable_by_key(|x| x.wrapping_mul(2_654_435_761));
            acc = acc.wrapping_add(u64::from(v[k]));
        }
        acc
    }

    /// Takes a reading now.
    pub fn read(&mut self) {
        let mut passes = [0.0; PASSES];
        for p in &mut passes {
            let t = Instant::now();
            std::hint::black_box(self.pass());
            *p = ms_since(t);
        }
        let ms = median(&passes).expect("at least one pass");
        self.readings.push(ms);
        self.last = Instant::now();
    }

    /// Takes a reading when [`EVERY`] has passed since the last one.
    pub fn tick(&mut self) {
        if self.last.elapsed() >= EVERY {
            self.read();
        }
    }

    /// `NOMINAL_MS` over the median reading so far: the factor that
    /// turns a CPU-bound time measured among the readings into
    /// reference-core time.
    pub fn factor(&self) -> f64 {
        NOMINAL_MS / median(&self.readings).expect("the first reading is taken at once")
    }

    /// `{"nominal_ms", "readings", "min_ms", "median_ms", "max_ms"}`.
    pub fn json(&self) -> String {
        let mut r = self.readings.clone();
        r.sort_by(f64::total_cmp);
        format!(
            "{{\"nominal_ms\":{NOMINAL_MS},\"readings\":{},\"min_ms\":{:.4},\"median_ms\":{:.4},\"max_ms\":{:.4}}}",
            r.len(),
            r.first().copied().unwrap_or(0.0),
            median(&r).unwrap_or(0.0),
            r.last().copied().unwrap_or(0.0),
        )
    }
}

/// An undirected graph as adjacency lists in one array.
struct MiniGraph {
    off: Vec<usize>,
    adj: Vec<u32>,
}

impl MiniGraph {
    /// G(n, p) under a fixed LCG: the same graph on every run.
    fn gnp(n: usize, p: f64) -> Self {
        let mut x = 7u64;
        let mut lists = vec![Vec::new(); n];
        for i in 0..n {
            for j in i + 1..n {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                if ((x >> 11) as f64 / (1u64 << 53) as f64) < p {
                    lists[i].push(j as u32);
                    lists[j].push(i as u32);
                }
            }
        }
        let mut off = vec![0];
        let mut adj = Vec::new();
        for l in lists {
            adj.extend(l);
            off.push(adj.len());
        }
        MiniGraph { off, adj }
    }

    fn min_cover(&self) -> u32 {
        let n = self.off.len() - 1;
        let deg: Vec<u32> = (0..n)
            .map(|v| (self.off[v + 1] - self.off[v]) as u32)
            .collect();
        let mut s = Search {
            g: self,
            alive: vec![true; n],
            edges: deg.iter().sum::<u32>() / 2,
            deg,
            log: Vec::new(),
            best: n as u32,
        };
        s.branch(0);
        s.best
    }
}

/// Branch and reduce: degree-0 and degree-1 rules, a max-degree
/// branch (take the vertex, or all its neighbours), and the bound
/// `size + edges / max degree`. Removals are logged and undone.
struct Search<'a> {
    g: &'a MiniGraph,
    alive: Vec<bool>,
    deg: Vec<u32>,
    edges: u32,
    log: Vec<u32>,
    best: u32,
}

impl Search<'_> {
    fn neighbours(&self, v: usize) -> &[u32] {
        &self.g.adj[self.g.off[v]..self.g.off[v + 1]]
    }

    fn remove(&mut self, v: usize) {
        self.alive[v] = false;
        self.log.push(v as u32);
        for i in self.g.off[v]..self.g.off[v + 1] {
            let u = self.g.adj[i] as usize;
            if self.alive[u] {
                self.deg[u] -= 1;
                self.edges -= 1;
            }
        }
    }

    fn undo_to(&mut self, mark: usize) {
        while self.log.len() > mark {
            let v = self.log.pop().expect("log above mark") as usize;
            for i in self.g.off[v]..self.g.off[v + 1] {
                let u = self.g.adj[i] as usize;
                if self.alive[u] {
                    self.deg[u] += 1;
                    self.edges += 1;
                }
            }
            self.alive[v] = true;
        }
    }

    fn branch(&mut self, mut size: u32) {
        let mark = self.log.len();
        let n = self.alive.len();
        loop {
            let mut changed = false;
            for v in 0..n {
                if !self.alive[v] {
                    continue;
                }
                if self.deg[v] == 0 {
                    self.remove(v);
                } else if self.deg[v] == 1 {
                    let u = *self
                        .neighbours(v)
                        .iter()
                        .find(|&&u| self.alive[u as usize])
                        .expect("a live neighbour") as usize;
                    self.remove(u);
                    size += 1;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        let (mut v, mut d) = (0, 0);
        for u in 0..n {
            if self.alive[u] && self.deg[u] > d {
                (v, d) = (u, self.deg[u]);
            }
        }
        if d == 0 {
            self.best = self.best.min(size);
        } else if size + self.edges.div_ceil(d) < self.best {
            let m = self.log.len();
            self.remove(v);
            self.branch(size + 1);
            self.undo_to(m);
            let nbs: Vec<usize> = self
                .neighbours(v)
                .iter()
                .map(|&u| u as usize)
                .filter(|&u| self.alive[u])
                .collect();
            for &u in &nbs {
                self.remove(u);
            }
            self.branch(size + nbs.len() as u32);
        }
        self.undo_to(mark);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn search_finds_the_optimum() {
        // A 5-cycle needs 3 vertices; a triangle with a pendant needs 2.
        let cycle = MiniGraph {
            off: vec![0, 2, 4, 6, 8, 10],
            adj: vec![1, 4, 0, 2, 1, 3, 2, 4, 3, 0],
        };
        assert_eq!(cycle.min_cover(), 3);
        let paw = MiniGraph {
            off: vec![0, 2, 4, 7, 8],
            adj: vec![1, 2, 0, 2, 0, 1, 3, 2],
        };
        assert_eq!(paw.min_cover(), 2);
    }

    #[test]
    fn factor_is_nominal_over_the_median_reading() {
        let mut g = Gauge::new();
        g.read();
        g.read();
        let mut r = g.readings.clone();
        r.sort_by(f64::total_cmp);
        assert_eq!(g.readings.len(), 3);
        assert_eq!(g.factor(), NOMINAL_MS / r[1]);
    }
}
