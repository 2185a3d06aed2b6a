//! The kernelization rules, each a [`ReduceRule`] implementation.
//!
//! Every rule is **optimum-preserving**: after its application there is
//! an optimal cover of the original graph consisting of the forced
//! vertices plus an optimal cover of the residual instance, and the
//! excluded vertices appear in none of its edges. The rules reuse the
//! §IV-D conflict-resolution semantics of `parvc_core::reduce`:
//! eligible vertices are snapshotted, then applied in ascending id with
//! a liveness/degree recheck, so a vertex invalidated by an earlier
//! (smaller-id) application is skipped.

use parvc_graph::{matching, GraphBuilder, VertexId};

use crate::pools::DegreePools;
use crate::state::PrepState;

/// Per-rule firing statistics, reported in
/// [`PrepStats`](crate::PrepStats).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleStats {
    /// The rule's display name.
    pub name: &'static str,
    /// Vertices the rule forced into the cover.
    pub covered: u64,
    /// Vertices the rule dropped as avoidable.
    pub excluded: u64,
    /// Pipeline passes the rule ran in.
    pub passes: u32,
    /// Why the rule did not run, when the pipeline disabled it (e.g.
    /// weight-unsound rules under
    /// [`PrepConfig::weighted`](crate::PrepConfig::weighted)).
    /// `None` for rules that ran.
    pub note: Option<&'static str>,
}

impl RuleStats {
    /// Zeroed stats for `name`.
    pub fn new(name: &'static str) -> Self {
        RuleStats {
            name,
            covered: 0,
            excluded: 0,
            passes: 0,
            note: None,
        }
    }

    /// Total vertices this rule eliminated.
    pub fn eliminated(&self) -> u64 {
        self.covered + self.excluded
    }
}

/// One stage of the preprocessing pipeline. Stages are individually
/// toggleable through [`PrepConfig`](crate::PrepConfig) and run
/// round-robin until none of them changes the instance.
pub trait ReduceRule {
    /// Display name used in stats and CLI output.
    fn name(&self) -> &'static str;

    /// Runs the rule once over the current state (a rule may iterate to
    /// its own internal fixpoint). Returns whether anything changed.
    fn apply(&mut self, st: &mut PrepState<'_>, stats: &mut RuleStats) -> bool;
}

/// Exhaustive degree-0/1/2 elimination — the up-front counterpart of
/// the engine's in-loop rules (Figure 1 lines 14–30):
///
/// * degree 0: the vertex covers nothing — drop it;
/// * degree 1: taking the neighbor is never worse than taking the leaf;
/// * degree 2 in a triangle: two of the triangle must be covered and
///   the two neighbors are never worse.
///
/// With `weighted` set, the degree-1 and degree-2 inclusion shortcuts
/// apply only when the taken vertices cost no more than the vertex
/// they stand in for (`w(u) ≤ w(v)`) — the same gates as the engine's
/// weighted `reduce` (see `parvc_core::reduce`). Degree-0 elimination
/// needs no gate: an isolated vertex is in no minimum-weight cover.
pub struct LowDegreeRule {
    /// Preserve the weighted optimum (gate the inclusion shortcuts).
    pub weighted: bool,
}

impl ReduceRule for LowDegreeRule {
    fn name(&self) -> &'static str {
        "degree-0/1/2"
    }

    fn apply(&mut self, st: &mut PrepState<'_>, stats: &mut RuleStats) -> bool {
        // One full scan seeds the degree pools; afterwards a vertex can
        // only (re-)enter a rule's range through a degree decrement,
        // and every decrement re-pools it at its new degree (see
        // `crate::pools`). Each round *drains* its pool into the
        // ascending-id snapshot and never re-pools what it skipped:
        // an entry that fails the liveness/degree recheck is stale
        // forever at that degree (degrees only fall), and a degree-1 or
        // degree-2 vertex that fails its weight gate or triangle test
        // keeps the same neighbors for as long as its degree stays, so
        // it would fail again. That is equivalent to the full rescan,
        // while peeling a 100k-vertex chain stays linear instead of
        // quadratic.
        let mut pools = DegreePools::new();
        for v in 0..st.graph().num_vertices() {
            if st.is_live(v) {
                pools.note(v, st.degree(v));
            }
        }
        let mut snapshot = Vec::new();
        let mut changed_any = false;
        loop {
            let mut changed = false;
            while degree_zero_round(st, &mut pools, &mut snapshot, stats) {
                changed = true;
            }
            while degree_one_round(st, &mut pools, &mut snapshot, stats, self.weighted) {
                changed = true;
            }
            while degree_two_triangle_round(st, &mut pools, &mut snapshot, stats, self.weighted) {
                changed = true;
            }
            if !changed {
                return changed_any;
            }
            changed_any = true;
        }
    }
}

/// Forces `u` into the cover, pooling its neighbors at their lowered
/// degrees.
fn cover(st: &mut PrepState<'_>, pools: &mut DegreePools, u: VertexId) {
    st.take_into_cover_with(u, |w, d| pools.note(w, d));
}

/// Takes pool `degree` as the round's ascending-id snapshot of live
/// vertices at that degree.
fn snapshot(st: &PrepState<'_>, pools: &mut DegreePools, degree: i32, out: &mut Vec<VertexId>) {
    pools.take_snapshot(degree, out, |v| st.is_live(v) && st.degree(v) == degree);
}

fn degree_zero_round(
    st: &mut PrepState<'_>,
    pools: &mut DegreePools,
    candidates: &mut Vec<VertexId>,
    stats: &mut RuleStats,
) -> bool {
    snapshot(st, pools, 0, candidates);
    // Excluding an isolated vertex touches no other vertex, so every
    // snapshot entry is still live and isolated when its turn comes.
    for &v in candidates.iter() {
        st.exclude_isolated(v);
        stats.excluded += 1;
    }
    !candidates.is_empty()
}

fn degree_one_round(
    st: &mut PrepState<'_>,
    pools: &mut DegreePools,
    candidates: &mut Vec<VertexId>,
    stats: &mut RuleStats,
    weighted: bool,
) -> bool {
    snapshot(st, pools, 1, candidates);
    let mut changed = false;
    for &v in candidates.iter() {
        // Recheck: an earlier (smaller-id) application may have removed
        // v's neighbor or isolated v — the §IV-D tie-break.
        if !st.is_live(v) || st.degree(v) != 1 {
            continue;
        }
        let u = st
            .live_neighbors(v)
            .next()
            .expect("degree-one vertex has a live neighbor");
        // Weighted gate: swapping the leaf for its neighbor must not
        // increase the cover weight.
        if weighted && st.graph().weight(u) > st.graph().weight(v) {
            continue;
        }
        cover(st, pools, u);
        stats.covered += 1;
        changed = true;
    }
    changed
}

fn degree_two_triangle_round(
    st: &mut PrepState<'_>,
    pools: &mut DegreePools,
    candidates: &mut Vec<VertexId>,
    stats: &mut RuleStats,
    weighted: bool,
) -> bool {
    snapshot(st, pools, 2, candidates);
    let mut changed = false;
    for &v in candidates.iter() {
        if !st.is_live(v) || st.degree(v) != 2 {
            continue;
        }
        let mut live = st.live_neighbors(v);
        let u = live.next().expect("degree-two vertex has live neighbors");
        let w = live.next().expect("degree-two vertex has live neighbors");
        drop(live);
        // Weighted gate: both triangle partners must cost ≤ w(v) for
        // the swap argument to bound the weight.
        if weighted && st.graph().weight(u).max(st.graph().weight(w)) > st.graph().weight(v) {
            continue;
        }
        // Both are live, so the edge survives iff it existed originally.
        if st.graph().has_edge(u, w) {
            cover(st, pools, u);
            cover(st, pools, w);
            stats.covered += 2;
            changed = true;
        }
    }
    changed
}

/// Crown decomposition via the LP / Nemhauser–Trotter relaxation.
///
/// Builds the bipartite *double cover* `B` of the residual instance
/// (left and right copy per live vertex, each live edge `{u, v}`
/// becoming `{Lu, Rv}` and `{Lv, Ru}`), takes a minimum vertex cover of
/// `B` through the Kőnig construction in [`parvc_graph::matching`], and
/// reads off the optimal half-integral LP solution
/// `x_v = |{Lv, Rv} ∩ C| / 2`. The NT theorem gives persistence for
/// any such optimum: every `x_v = 1` vertex is in *some* minimum cover,
/// every `x_v = 0` vertex is avoidable, and the optimum of the residual
/// drops by exactly the number of forced vertices.
pub struct CrownRule;

impl ReduceRule for CrownRule {
    fn name(&self) -> &'static str {
        "crown (LP/NT)"
    }

    fn apply(&mut self, st: &mut PrepState<'_>, stats: &mut RuleStats) -> bool {
        if st.live_edges() == 0 {
            return false;
        }
        let live = st.live_ids();
        let l = live.len() as u32;
        let mut pos = vec![u32::MAX; st.graph().num_vertices() as usize];
        for (i, &v) in live.iter().enumerate() {
            pos[v as usize] = i as u32;
        }
        let mut b = GraphBuilder::with_capacity(2 * l, (st.live_edges() * 2) as usize);
        for &u in &live {
            let targets: Vec<VertexId> = st.live_neighbors(u).filter(|&v| u < v).collect();
            for v in targets {
                b.add_edge(pos[u as usize], l + pos[v as usize])
                    .expect("double-cover ids in range");
                b.add_edge(pos[v as usize], l + pos[u as usize])
                    .expect("double-cover ids in range");
            }
        }
        let double_cover = b.build();
        let cover = matching::konig_cover(&double_cover).expect("double cover is bipartite");
        let mut copies = vec![0u8; l as usize];
        for id in cover {
            copies[(id % l) as usize] += 1;
        }
        let mut changed = false;
        // x = 1: force first — this is what isolates the x = 0 side.
        for (i, &n) in copies.iter().enumerate() {
            if n == 2 {
                st.take_into_cover(live[i]);
                stats.covered += 1;
                changed = true;
            }
        }
        // x = 0: every remaining neighbor carries x = 1 (LP
        // feasibility), so these are isolated now and safely avoidable.
        for (i, &n) in copies.iter().enumerate() {
            if n == 0 && st.is_live(live[i]) {
                debug_assert_eq!(st.degree(live[i]), 0, "x=0 vertex still has live edges");
                st.exclude_isolated(live[i]);
                stats.excluded += 1;
                changed = true;
            }
        }
        changed
    }
}

/// High-degree (Buss-style) rule against a greedy upper bound: a live
/// vertex whose degree exceeds the size of a *known* cover of the
/// residual must be in every optimal residual cover (excluding it would
/// force all of its neighbors in, already beating the known cover), so
/// it joins the cover.
///
/// This is deliberately stricter than the engine's in-loop
/// `d(v) > best − |S| − 1` threshold: preprocessing must preserve the
/// exact optimum, not merely the ability to improve on `best`.
pub struct HighDegreeRule;

impl ReduceRule for HighDegreeRule {
    fn name(&self) -> &'static str {
        "high-degree"
    }

    fn apply(&mut self, st: &mut PrepState<'_>, stats: &mut RuleStats) -> bool {
        if st.live_edges() == 0 {
            return false;
        }
        let ub = greedy_cover_upper_bound(st) as i64;
        let snapshot: Vec<VertexId> = st
            .live_ids()
            .into_iter()
            .filter(|&v| st.degree(v) as i64 > ub)
            .collect();
        let mut changed = false;
        // No degree recheck is needed. A vertex of degree > ub ≥ opt
        // is in every optimal residual cover (a cover avoiding it holds
        // all of its neighbors). Forcing such an entry lowers the
        // residual optimum by exactly one and every other entry's
        // degree by at most one, so after j applications each
        // remaining entry still has degree > ub − j ≥ opt − j, the new
        // optimum: it is still forced.
        for v in snapshot {
            if !st.is_live(v) {
                continue;
            }
            st.take_into_cover(v);
            stats.covered += 1;
            changed = true;
        }
        changed
    }
}

/// Size of the greedy max-degree cover of the residual instance — the
/// upper bound the high-degree rule compares against. Bucket-queue
/// implementation, `O(|V| + |E| + max_degree)`.
fn greedy_cover_upper_bound(st: &PrepState<'_>) -> u32 {
    let g = st.graph();
    let n = g.num_vertices() as usize;
    // -1 = not part of the residual (or already taken by the greedy).
    let mut deg: Vec<i64> = (0..n as u32)
        .map(|v| {
            if st.is_live(v) {
                st.degree(v) as i64
            } else {
                -1
            }
        })
        .collect();
    let maxd = deg.iter().copied().max().unwrap_or(0).max(0) as usize;
    let mut buckets: Vec<Vec<VertexId>> = vec![Vec::new(); maxd + 1];
    for (v, &d) in deg.iter().enumerate() {
        if d > 0 {
            buckets[d as usize].push(v as VertexId);
        }
    }
    let mut cover = 0u32;
    let mut d = maxd;
    while d >= 1 {
        let Some(v) = buckets[d].pop() else {
            d -= 1;
            continue;
        };
        if deg[v as usize] != d as i64 {
            continue; // stale entry: the vertex was re-bucketed lower
        }
        deg[v as usize] = -1;
        cover += 1;
        for &u in g.neighbors(v) {
            if deg[u as usize] > 0 {
                deg[u as usize] -= 1;
                if deg[u as usize] > 0 {
                    buckets[deg[u as usize] as usize].push(u);
                }
            }
        }
    }
    cover
}

#[cfg(test)]
mod tests {
    use super::*;
    use parvc_graph::gen;

    fn run(rule: &mut dyn ReduceRule, st: &mut PrepState<'_>) -> RuleStats {
        let mut stats = RuleStats::new(rule.name());
        while rule.apply(st, &mut stats) {}
        st.check_consistency().unwrap();
        stats
    }

    #[test]
    fn low_degree_solves_paths_and_stars() {
        let g = gen::path(10);
        let mut st = PrepState::new(&g);
        run(&mut LowDegreeRule { weighted: false }, &mut st);
        assert_eq!(st.live_vertices(), 0);
        assert_eq!(st.forced().len(), 5); // optimal for P10

        let g = gen::star(8);
        let mut st = PrepState::new(&g);
        run(&mut LowDegreeRule { weighted: false }, &mut st);
        assert_eq!(st.forced(), &[0], "the hub joins the cover");
        assert_eq!(st.live_vertices(), 0);
    }

    #[test]
    fn low_degree_conflict_resolution_matches_reduce() {
        // Isolated edge: both endpoints degree one; vertex 0 acts first,
        // covering its neighbor 1 — the §IV-D tie-break.
        let g = parvc_graph::CsrGraph::from_edges(2, &[(0, 1)]).unwrap();
        let mut st = PrepState::new(&g);
        run(&mut LowDegreeRule { weighted: false }, &mut st);
        assert_eq!(st.forced(), &[1]);
        assert_eq!(st.excluded(), &[0]);
    }

    #[test]
    fn triangle_rule_takes_the_partners() {
        // K3: only the smallest id applies; its neighbors {1,2} join.
        let g = gen::complete(3);
        let mut st = PrepState::new(&g);
        let stats = run(&mut LowDegreeRule { weighted: false }, &mut st);
        assert_eq!(st.forced(), &[1, 2]);
        assert_eq!(stats.covered, 2);
    }

    #[test]
    fn crown_clears_stars_and_leaves_cycles_alone() {
        // Star: LP puts x=1 on the hub, x=0 on the leaves.
        let g = gen::star(9);
        let mut st = PrepState::new(&g);
        let stats = run(&mut CrownRule, &mut st);
        assert_eq!(st.forced(), &[0]);
        assert_eq!(stats.excluded, 8);
        assert_eq!(st.live_vertices(), 0);

        // Odd cycle: all-half is the unique LP optimum — nothing fires.
        let g = gen::cycle(5);
        let mut st = PrepState::new(&g);
        let stats = run(&mut CrownRule, &mut st);
        assert_eq!(stats.eliminated(), 0);
        assert_eq!(st.live_vertices(), 5);
    }

    #[test]
    fn high_degree_takes_outlier_hubs() {
        // A hub joined to 9 leaves that also form a sparse cycle among
        // themselves: greedy UB is small, hub degree exceeds it.
        let mut edges: Vec<(u32, u32)> = (1..10).map(|v| (0, v)).collect();
        edges.extend((1..9).map(|v| (v, v + 1)));
        let g = parvc_graph::CsrGraph::from_edges(10, &edges).unwrap();
        let mut st = PrepState::new(&g);
        let stats = run(&mut HighDegreeRule, &mut st);
        assert!(st.forced().contains(&0), "hub must be forced");
        assert!(stats.covered >= 1);
    }

    #[test]
    fn greedy_upper_bound_is_a_cover_size() {
        for seed in 0..6 {
            let g = gen::gnp(30, 0.2, seed);
            let st = PrepState::new(&g);
            let ub = greedy_cover_upper_bound(&st);
            // The greedy bound can never beat the matching lower bound.
            let lb = matching::greedy_maximal_matching(&g).len() as u32;
            assert!(ub >= lb, "seed {seed}: ub {ub} below matching bound {lb}");
            assert!(ub <= g.num_vertices());
        }
    }
}
