//! Shortcut-selection heuristics (paper Figure 3 and §3.2.1–§3.2.2).
//!
//! All heuristics add directed unit-cost edges to a [`GridGraph`] subject to
//! [`SelectionConstraints`]:
//!
//! * [`select_exhaustive_greedy`] — Figure 3a: for every candidate edge,
//!   build the permutation graph `G' = G + (i,j)` and keep the candidate with
//!   the best total-cost improvement (naively `O(B·V⁵)`; here `O(B·V⁴)` via
//!   the incremental evaluation of
//!   [`DistanceMatrix::improvement_if_added`]).
//! * [`select_max_cost`] — Figure 3b: repeatedly connect the pair with the
//!   maximum current cost `w(i,j)·d(i,j)`, the variant the paper adopts
//!   ("we have tried both heuristics and found the resulting set of
//!   shortcuts to perform comparably well"). `O(V·E)` for the initial
//!   APSP and `O(V²)` for the first row scan, then per shortcut an `O(V²)`
//!   distance update (rows the edge cannot shorten are skipped) plus
//!   rescans of only the invalidated rows, `O(V)` each.
//! * [`select_max_distance`] — the same heuristic with uniform weights
//!   (architecture-specific selection), scored by hop distance directly:
//!   the same shortcuts as [`select_max_cost`] with
//!   [`PairWeights::uniform`] and the same bounds, without the `V²` weight
//!   matrix.
//! * [`select_application_specific`] — §3.2.2: the region-based variant that
//!   alternates router-pair placement with region-pair placement over 3×3
//!   sub-meshes, allowing multiple shortcuts to serve one hotspot. A
//!   router-pair turn scans `O(V²)` candidates; a region turn costs
//!   `O(R·9V)` products plus 81 additions for each of the `O(R²)`
//!   non-overlapping region pairs ([`best_region_pair`], `R ≈ V` regions),
//!   then scans only the 81 router pairs of the winning regions.

use crate::dist::DistanceMatrix;
use crate::graph::{GridGraph, NodeId, Shortcut};
use crate::regions::best_region_pair;
use crate::weights::PairWeights;

/// Constraints on shortcut placement.
///
/// The paper restricts routers to at most 6 ports — hence at most one inbound
/// and one outbound shortcut per router — and forbids shortcuts at the four
/// corner (memory-interface) routers (§3.2.1). Only *RF-enabled* routers may
/// source or sink shortcuts (§3.2, §5.1.1).
#[derive(Debug, Clone)]
pub struct SelectionConstraints {
    /// Number of shortcuts to select (the paper's budget `B = 16`).
    pub budget: usize,
    /// Routers eligible to source or sink a shortcut (RF-enabled, non-corner).
    pub eligible: Vec<bool>,
    /// Maximum outbound shortcuts per router (paper: 1).
    pub max_out_per_node: usize,
    /// Maximum inbound shortcuts per router (paper: 1).
    pub max_in_per_node: usize,
}

impl SelectionConstraints {
    /// Constraints allowing every router, with the paper's per-router port
    /// caps (one in, one out).
    pub fn allowing_all(nodes: usize, budget: usize) -> Self {
        Self {
            budget,
            eligible: vec![true; nodes],
            max_out_per_node: 1,
            max_in_per_node: 1,
        }
    }

    /// Constraints allowing exactly the routers in `enabled`, with the
    /// paper's per-router port caps.
    ///
    /// # Panics
    ///
    /// Panics if any enabled index is `>= nodes`.
    pub fn for_enabled(nodes: usize, budget: usize, enabled: &[NodeId]) -> Self {
        let mut eligible = vec![false; nodes];
        for &e in enabled {
            assert!(e < nodes, "enabled router {e} out of range");
            eligible[e] = true;
        }
        Self {
            budget,
            eligible,
            max_out_per_node: 1,
            max_in_per_node: 1,
        }
    }

    /// Marks the four corner routers ineligible (memory interfaces, §3.2.1).
    #[must_use]
    pub fn excluding_corners(mut self, graph: &GridGraph) -> Self {
        for i in 0..graph.node_count() {
            if graph.dims().is_corner(i) {
                self.eligible[i] = false;
            }
        }
        self
    }

    fn validate(&self, nodes: usize) {
        assert_eq!(self.eligible.len(), nodes, "eligibility vector must cover all nodes");
        assert!(self.max_out_per_node >= 1 && self.max_in_per_node >= 1);
    }
}

/// Bookkeeping of per-node shortcut port usage during selection.
#[derive(Debug, Clone)]
struct PortUsage {
    out_used: Vec<usize>,
    in_used: Vec<usize>,
}

impl PortUsage {
    fn new(nodes: usize) -> Self {
        Self { out_used: vec![0; nodes], in_used: vec![0; nodes] }
    }

    fn can_place(&self, c: &SelectionConstraints, i: NodeId, j: NodeId) -> bool {
        i != j && self.can_source(c, i) && self.can_sink(c, j)
    }

    /// Whether `i` may still source a shortcut.
    fn can_source(&self, c: &SelectionConstraints, i: NodeId) -> bool {
        c.eligible[i] && self.out_used[i] < c.max_out_per_node
    }

    /// Whether `j` may still sink a shortcut.
    fn can_sink(&self, c: &SelectionConstraints, j: NodeId) -> bool {
        c.eligible[j] && self.in_used[j] < c.max_in_per_node
    }

    fn place(&mut self, i: NodeId, j: NodeId) {
        self.out_used[i] += 1;
        self.in_used[j] += 1;
    }
}

/// Figure 3a: exhaustive greedy over permutation graphs.
///
/// Each round evaluates every feasible candidate edge `(i,j)` by the total
/// weighted-cost improvement it would give, adds the best strictly-improving
/// candidate, and repeats until the budget is exhausted or no candidate
/// improves the objective.
///
/// # Panics
///
/// Panics if the weights or constraints do not match the graph's node count.
pub fn select_exhaustive_greedy(
    graph: &GridGraph,
    weights: &PairWeights,
    constraints: &SelectionConstraints,
) -> Vec<Shortcut> {
    let n = graph.node_count();
    constraints.validate(n);
    assert_eq!(weights.node_count(), n, "weights node count mismatch");
    let mut g = graph.clone();
    let mut dist = g.distances();
    let mut usage = PortUsage::new(n);
    let mut selected = Vec::with_capacity(constraints.budget);
    for _ in 0..constraints.budget {
        let mut best: Option<(f64, NodeId, NodeId)> = None;
        for i in 0..n {
            if !constraints.eligible[i] || usage.out_used[i] >= constraints.max_out_per_node {
                continue;
            }
            for j in 0..n {
                if !usage.can_place(constraints, i, j) || dist.get(i, j) <= 1 {
                    continue;
                }
                let gain = dist.improvement_if_added(i, j, weights.as_slice());
                let better = match best {
                    None => gain > 0.0,
                    Some((bg, bi, bj)) => {
                        gain > bg + 1e-9
                            || ((gain - bg).abs() <= 1e-9 && (i, j) < (bi, bj))
                    }
                };
                if better {
                    best = Some((gain, i, j));
                }
            }
        }
        let Some((_, i, j)) = best else { break };
        g.add_shortcut(Shortcut::new(i, j));
        dist.apply_edge(i, j);
        usage.place(i, j);
        selected.push(Shortcut::new(i, j));
    }
    selected
}

/// Figure 3b: max-cost greedy.
///
/// Each round connects the feasible pair `(i,j)` with the maximum current
/// cost `w(i,j)·d(i,j)` — for uniform weights this reduces the graph
/// diameter; for frequency weights it accelerates the hottest distant pairs.
///
/// Distances are updated incrementally after each addition, and so is the
/// max-cost pair itself: per-source row maxima are maintained under the
/// `O(V²)` distance update instead of rescanning all `V²` candidates each
/// round (see [`select_max_cost_profiled`] for the scan counters). The
/// selected set is identical to the rescanning reference implementation
/// [`select_max_cost_rescan`].
///
/// # Panics
///
/// Panics if the weights or constraints do not match the graph's node count.
pub fn select_max_cost(
    graph: &GridGraph,
    weights: &PairWeights,
    constraints: &SelectionConstraints,
) -> Vec<Shortcut> {
    select_max_cost_profiled(graph, weights, constraints).0
}

/// Scan counters from the incremental max-cost selector, for build-time
/// profiling: how much candidate-rescanning work the incremental row
/// maintenance avoided relative to the `rounds · V²` a full rescan would do.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelectionProfile {
    /// Selection rounds executed (shortcuts placed).
    pub rounds: usize,
    /// Source rows whose cached maximum was invalidated and rescanned.
    pub rows_rescanned: usize,
    /// Individual `(i,j)` candidates evaluated across all rescans.
    pub candidates_scanned: u64,
}

/// [`select_max_cost`] with the incremental-maintenance [`SelectionProfile`].
///
/// # Panics
///
/// Panics if the weights or constraints do not match the graph's node count.
pub fn select_max_cost_profiled(
    graph: &GridGraph,
    weights: &PairWeights,
    constraints: &SelectionConstraints,
) -> (Vec<Shortcut>, SelectionProfile) {
    assert_eq!(weights.node_count(), graph.node_count(), "weights node count mismatch");
    select_incremental(graph, PairScore::WeightedDistance(weights), constraints)
}

/// Figure 3b with uniform weights — architecture-specific selection
/// (§3.2.1) — scored by the hop distance `d(i,j)` itself.
///
/// With unit weights `w(i,j)·d(i,j)` is exactly `d(i,j)`, so this selects
/// the same shortcuts as [`select_max_cost`] over
/// [`PairWeights::uniform`], without building that `V²` weight matrix.
///
/// # Panics
///
/// Panics if the constraints do not match the graph's node count.
pub fn select_max_distance(
    graph: &GridGraph,
    constraints: &SelectionConstraints,
) -> Vec<Shortcut> {
    select_incremental(graph, PairScore::Distance, constraints).0
}

/// The incremental max-cost selector behind [`select_max_cost_profiled`]
/// and [`select_max_distance`].
fn select_incremental(
    graph: &GridGraph,
    score: PairScore<'_>,
    constraints: &SelectionConstraints,
) -> (Vec<Shortcut>, SelectionProfile) {
    let n = graph.node_count();
    constraints.validate(n);
    let mut dist = graph.distances();
    let mut usage = PortUsage::new(n);
    let mut rows = IncrementalRows::new(constraints, &usage);
    let mut profile = SelectionProfile::default();
    for x in 0..n {
        rows.rescan(x, &dist, score, constraints, &usage, &mut profile);
    }
    let mut selected = Vec::with_capacity(constraints.budget);
    for _ in 0..constraints.budget {
        let Some((i, j)) = rows.best_pair() else { break };
        dist.apply_edge(i, j);
        usage.place(i, j);
        selected.push(Shortcut::new(i, j));
        profile.rounds += 1;
        rows.revalidate(i, j, &dist, score, constraints, &usage, &mut profile);
    }
    (selected, profile)
}

/// The pre-refactor rescanning implementation of [`select_max_cost`]: every
/// round re-evaluates all `V²` candidates with `max_cost_pair`. Kept as
/// the reference the incremental selector is property-tested against.
///
/// # Panics
///
/// Panics if the weights or constraints do not match the graph's node count.
pub fn select_max_cost_rescan(
    graph: &GridGraph,
    weights: &PairWeights,
    constraints: &SelectionConstraints,
) -> Vec<Shortcut> {
    let n = graph.node_count();
    constraints.validate(n);
    assert_eq!(weights.node_count(), n, "weights node count mismatch");
    let mut dist = graph.distances();
    let mut usage = PortUsage::new(n);
    let mut selected = Vec::with_capacity(constraints.budget);
    for _ in 0..constraints.budget {
        let Some((i, j)) = max_cost_pair(
            &dist,
            PairScore::WeightedDistance(weights),
            constraints,
            &usage,
            None,
        ) else {
            break;
        };
        dist.apply_edge(i, j);
        usage.place(i, j);
        selected.push(Shortcut::new(i, j));
    }
    selected
}

/// Per-source cached maxima for the incremental max-cost selector.
///
/// `rows[x]` caches the feasible destination maximising
/// `w(x,y)·d(x,y)` (with [`max_cost_pair`]'s exact tie-breaking), or `None`
/// when row `x` currently has no feasible positive-cost candidate.
///
/// The cache stays sound because every per-round change is monotone:
/// [`DistanceMatrix::apply_edge`] only *decreases* distances (so costs only
/// decrease) and [`PortUsage`] only *shrinks* feasibility. A cached row
/// maximum therefore remains the row maximum until the cached entry itself
/// is touched — its cost drops, its distance collapses to ≤ 1, or an
/// endpoint port fills up — at which point the row is rescanned.
struct IncrementalRows {
    rows: Vec<Option<(f64, NodeId)>>,
    /// `u32::MAX` for each destination that may still sink a shortcut,
    /// else 0: a mask over a distance row.
    open: Vec<u32>,
}

impl IncrementalRows {
    fn new(constraints: &SelectionConstraints, usage: &PortUsage) -> Self {
        let n = constraints.eligible.len();
        let open = (0..n)
            .map(|y| if usage.can_sink(constraints, y) { u32::MAX } else { 0 })
            .collect();
        Self { rows: vec![None; n], open }
    }

    /// Recomputes row `x` from scratch, mirroring [`max_cost_pair`]'s inner
    /// loop (ascending `y`, identical epsilon tie-break).
    fn rescan(
        &mut self,
        x: NodeId,
        dist: &DistanceMatrix,
        score: PairScore<'_>,
        constraints: &SelectionConstraints,
        usage: &PortUsage,
        profile: &mut SelectionProfile,
    ) {
        self.rows[x] = None;
        if !usage.can_source(constraints, x) {
            return;
        }
        profile.rows_rescanned += 1;
        let n = dist.node_count();
        profile.candidates_scanned += n as u64;
        let row = dist.row(x);
        let Some(weights) = score.row(x) else {
            // Whole hop counts never tie within the epsilon, so the fold
            // below reduces to the first open destination at the largest
            // distance (`d(x,x) = 0` masks the source itself).
            let masked = || row.iter().zip(&self.open).map(|(&d, &open)| d & open);
            let far = masked().max().unwrap_or(0);
            if far > 1 {
                let y = masked().position(|d| d == far).expect("the maximum is present");
                self.rows[x] = Some((f64::from(far), y));
            }
            return;
        };
        let mut best: Option<(f64, NodeId)> = None;
        for (y, (&d, &open)) in row.iter().zip(&self.open).enumerate() {
            if d <= 1 || y == x || open == 0 {
                continue;
            }
            let cost = weights[y] * d as f64;
            if cost <= 0.0 {
                continue;
            }
            let better = match best {
                None => true,
                Some((bc, by)) => {
                    cost > bc + 1e-9 || ((cost - bc).abs() <= 1e-9 && y < by)
                }
            };
            if better {
                best = Some((cost, y));
            }
        }
        self.rows[x] = best;
    }

    /// The feasible pair maximising the cached costs, with
    /// [`max_cost_pair`]'s cross-row tie-break (ascending source index).
    fn best_pair(&self) -> Option<(NodeId, NodeId)> {
        let mut best: Option<(f64, NodeId, NodeId)> = None;
        for (x, row) in self.rows.iter().enumerate() {
            let Some((cost, y)) = *row else { continue };
            let better = match best {
                None => true,
                Some((bc, bi, bj)) => {
                    cost > bc + 1e-9 || ((cost - bc).abs() <= 1e-9 && (x, y) < (bi, bj))
                }
            };
            if better {
                best = Some((cost, x, y));
            }
        }
        best.map(|(_, i, j)| (i, j))
    }

    /// After placing `(i, j)` and applying its distance update: drop or
    /// rescan exactly the rows whose cached maximum may have changed.
    #[allow(clippy::too_many_arguments)]
    fn revalidate(
        &mut self,
        i: NodeId,
        j: NodeId,
        dist: &DistanceMatrix,
        score: PairScore<'_>,
        constraints: &SelectionConstraints,
        usage: &PortUsage,
        profile: &mut SelectionProfile,
    ) {
        let j_full = !usage.can_sink(constraints, j);
        if j_full {
            self.open[j] = 0;
        }
        for x in 0..self.rows.len() {
            let stale = match self.rows[x] {
                None => false,
                Some((cost, y)) => {
                    let d = dist.row(x)[y];
                    // The placed source may have exhausted its out-ports.
                    x == i
                        // The placed destination may have filled its in-port.
                        || (j_full && y == j)
                        // The cached entry's own cost or feasibility moved
                        // (distances only ever decrease).
                        || d <= 1
                        || PairScore::cost(score.row(x), y, d) != cost
                }
            };
            if stale {
                self.rescan(x, dist, score, constraints, usage, profile);
            }
        }
    }
}

/// How candidate pairs are scored by [`max_cost_pair`] and the
/// incremental selector.
#[derive(Debug, Clone, Copy)]
enum PairScore<'w> {
    /// `w(i,j) · d(i,j)` — requires positive weight.
    WeightedDistance(&'w PairWeights),
    /// Plain hop distance `d(i,j)` — uniform weights without the matrix.
    Distance,
}

impl<'w> PairScore<'w> {
    /// The weight row of source `x`, or `None` when scoring by distance.
    fn row(self, x: NodeId) -> Option<&'w [f64]> {
        match self {
            Self::WeightedDistance(w) => Some(w.row(x)),
            Self::Distance => None,
        }
    }

    /// The score of destination `y` at distance `d`, given its source's
    /// [`PairScore::row`].
    #[inline]
    fn cost(weights: Option<&[f64]>, y: NodeId, d: u32) -> f64 {
        match weights {
            Some(w) => w[y] * d as f64,
            None => d as f64,
        }
    }
}

/// Finds the feasible pair maximising the chosen score, optionally with the
/// source restricted to one region's routers and the destination to
/// another's (`regions = (sources, destinations)`, each ascending). Ties
/// break toward the lexicographically smallest pair.
fn max_cost_pair(
    dist: &DistanceMatrix,
    score: PairScore<'_>,
    constraints: &SelectionConstraints,
    usage: &PortUsage,
    regions: Option<(&[NodeId], &[NodeId])>,
) -> Option<(NodeId, NodeId)> {
    let mut best: Option<(f64, NodeId, NodeId)> = None;
    let mut consider = |i: NodeId, j: NodeId, d: u32, weights: Option<&[f64]>| {
        if d <= 1 || i == j || !usage.can_sink(constraints, j) {
            return;
        }
        let cost = PairScore::cost(weights, j, d);
        if cost <= 0.0 {
            return;
        }
        let better = match best {
            None => true,
            Some((bc, bi, bj)) => {
                cost > bc + 1e-9 || ((cost - bc).abs() <= 1e-9 && (i, j) < (bi, bj))
            }
        };
        if better {
            best = Some((cost, i, j));
        }
    };
    match regions {
        None => {
            for i in 0..dist.node_count() {
                if !usage.can_source(constraints, i) {
                    continue;
                }
                let weights = score.row(i);
                for (j, &d) in dist.row(i).iter().enumerate() {
                    consider(i, j, d, weights);
                }
            }
        }
        Some((srcs, dsts)) => {
            for &i in srcs {
                if !usage.can_source(constraints, i) {
                    continue;
                }
                let (weights, row) = (score.row(i), dist.row(i));
                for &j in dsts {
                    consider(i, j, row[j], weights);
                }
            }
        }
    }
    best.map(|(_, i, j)| (i, j))
}

/// §3.2.2: application-specific selection with region-to-region placement.
///
/// Alternates between (a) placing the max-`F·W` router-pair shortcut and
/// (b) picking the pair of non-overlapping 3×3 regions `(I,J)` maximising
/// `C_Region(I,J) = Σ_{x∈I, y∈J} F(x,y)·W(x,y)` and placing a shortcut
/// `(i,j)` with `i∈I`, `j∈J`, `i ∉ UsedSrcs`, `j ∉ UsedDests`. This lets
/// several shortcuts crowd around a communication hotspot even though each
/// router accepts only one inbound and one outbound shortcut.
///
/// # Panics
///
/// Panics if the weights or constraints do not match the graph's node count.
pub fn select_application_specific(
    graph: &GridGraph,
    weights: &PairWeights,
    constraints: &SelectionConstraints,
) -> Vec<Shortcut> {
    let n = graph.node_count();
    constraints.validate(n);
    assert_eq!(weights.node_count(), n, "weights node count mismatch");
    let dims = graph.dims();
    let mut dist = graph.distances();
    let mut usage = PortUsage::new(n);
    let mut selected = Vec::with_capacity(constraints.budget);
    let mut region_turn = false;
    let weighted = PairScore::WeightedDistance(weights);
    while selected.len() < constraints.budget {
        let region_pick = || {
            let (region_i, region_j) = best_region_pair(dims, &dist, weights)?;
            let regions = (region_i.nodes(), region_j.nodes());
            let regions = Some((regions.0.as_slice(), regions.1.as_slice()));
            // Within the hottest region pair, prefer the hottest remaining
            // router pair; if the hot routers' ports are already used, still
            // place a shortcut between the regions (the distance fallback) —
            // this is what lets shortcuts crowd around a hotspot (§3.2.2).
            max_cost_pair(&dist, weighted, constraints, &usage, regions)
                .or_else(|| max_cost_pair(&dist, PairScore::Distance, constraints, &usage, regions))
        };
        let pair_pick = || max_cost_pair(&dist, weighted, constraints, &usage, None);
        let pick = if region_turn {
            region_pick().or_else(pair_pick)
        } else {
            pair_pick().or_else(region_pick)
        };
        let Some((i, j)) = pick else { break };
        dist.apply_edge(i, j);
        usage.place(i, j);
        selected.push(Shortcut::new(i, j));
        region_turn = !region_turn;
    }
    selected
}

/// Verifies that a shortcut set satisfies `constraints` against `graph`.
///
/// Returns `Err` with a human-readable reason on the first violation. Useful
/// as a post-condition check and in property tests.
pub fn check_constraints(
    graph: &GridGraph,
    shortcuts: &[Shortcut],
    constraints: &SelectionConstraints,
) -> Result<(), String> {
    let n = graph.node_count();
    constraints.validate(n);
    if shortcuts.len() > constraints.budget {
        return Err(format!(
            "{} shortcuts exceed budget {}",
            shortcuts.len(),
            constraints.budget
        ));
    }
    let mut usage = PortUsage::new(n);
    for s in shortcuts {
        if s.src >= n || s.dst >= n {
            return Err(format!("shortcut {s} endpoint out of range"));
        }
        if !usage.can_place(constraints, s.src, s.dst) {
            return Err(format!("shortcut {s} violates eligibility or port caps"));
        }
        usage.place(s.src, s.dst);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::GridDims;

    fn mesh(n: usize) -> GridGraph {
        GridGraph::mesh(GridDims::new(n, n))
    }

    #[test]
    fn max_cost_respects_budget_and_ports() {
        let g = mesh(10);
        let w = PairWeights::uniform(100);
        let c = SelectionConstraints::allowing_all(100, 16).excluding_corners(&g);
        let s = select_max_cost(&g, &w, &c);
        assert_eq!(s.len(), 16);
        check_constraints(&g, &s, &c).unwrap();
    }

    #[test]
    fn max_cost_first_pick_is_diameter_pair() {
        let g = mesh(10);
        let w = PairWeights::uniform(100);
        let c = SelectionConstraints::allowing_all(100, 1).excluding_corners(&g);
        let s = select_max_cost(&g, &w, &c);
        assert_eq!(s.len(), 1);
        // With the four corners excluded the farthest eligible pair is at
        // distance 16 (corner-to-corner pairs at 18 and corner-adjacent
        // pairs at 17 all involve a corner).
        let d = g.distances();
        assert_eq!(d.get(s[0].src, s[0].dst), 16);
    }

    #[test]
    fn exhaustive_greedy_improves_at_least_as_much_per_edge() {
        let g = mesh(6);
        let n = g.node_count();
        let w = PairWeights::uniform(n);
        let c = SelectionConstraints::allowing_all(n, 4);
        let ex = select_exhaustive_greedy(&g, &w, &c);
        let mc = select_max_cost(&g, &w, &c);
        assert_eq!(ex.len(), 4);
        assert_eq!(mc.len(), 4);
        let cost = |set: &[Shortcut]| {
            let g2 = GridGraph::with_shortcuts(g.dims(), set);
            GridGraph::total_cost(&g2.distances(), w.as_slice())
        };
        // Both are greedy, so neither strictly dominates over multiple
        // steps; the paper found them "comparably well", which we bound at
        // a few percent.
        assert!(cost(&ex) <= cost(&mc) * 1.05, "{} vs {}", cost(&ex), cost(&mc));
    }

    #[test]
    fn shortcuts_reduce_total_cost() {
        let g = mesh(8);
        let n = g.node_count();
        let w = PairWeights::uniform(n);
        let c = SelectionConstraints::allowing_all(n, 8);
        let before = GridGraph::total_cost(&g.distances(), w.as_slice());
        for select in [select_max_cost, select_exhaustive_greedy, select_application_specific] {
            let s = select(&g, &w, &c);
            let g2 = GridGraph::with_shortcuts(g.dims(), &s);
            let after = GridGraph::total_cost(&g2.distances(), w.as_slice());
            assert!(after < before, "selection must reduce the objective");
        }
    }

    #[test]
    fn application_specific_clusters_on_hotspot() {
        // One hotspot at node 70 = (0,7) on a 10x10 grid; all traffic goes
        // to/from it from distant routers.
        let g = mesh(10);
        let n = g.node_count();
        let hot = 70;
        let mut w = PairWeights::zero(n);
        for other in [9, 19, 29, 8, 18, 28, 39, 49, 59] {
            w.add(other, hot, 100.0);
            w.add(hot, other, 100.0);
        }
        let c = SelectionConstraints::allowing_all(n, 6).excluding_corners(&g);
        let s = select_application_specific(&g, &w, &c);
        assert_eq!(s.len(), 6);
        let dims = g.dims();
        // The hot router itself accepts only one inbound and one outbound
        // shortcut, so region-based selection must crowd further shortcuts
        // at routers near the hotspot (within its 3×3 region, i.e. ≤4 hops).
        let near_hot = s
            .iter()
            .filter(|sc| dims.manhattan(sc.src, hot).min(dims.manhattan(sc.dst, hot)) <= 4)
            .count();
        assert!(near_hot >= 3, "expected clustering near hotspot, got {s:?}");
    }

    #[test]
    fn eligibility_is_respected() {
        let g = mesh(10);
        let n = g.node_count();
        let w = PairWeights::uniform(n);
        let enabled: Vec<usize> = (0..n).filter(|i| i % 2 == 0).collect();
        let c = SelectionConstraints::for_enabled(n, 16, &enabled).excluding_corners(&g);
        for select in [select_max_cost, select_application_specific] {
            let s = select(&g, &w, &c);
            for sc in &s {
                assert!(sc.src % 2 == 0 && sc.dst % 2 == 0);
                assert!(!g.dims().is_corner(sc.src) && !g.dims().is_corner(sc.dst));
            }
            check_constraints(&g, &s, &c).unwrap();
        }
    }

    #[test]
    fn incremental_matches_rescan_reference() {
        // Deterministic non-uniform weights: hash-like integer mixing keeps
        // costs well-separated so the epsilon tie-break never fires.
        for side in [4usize, 5, 7] {
            let g = mesh(side);
            let n = g.node_count();
            let mut w = PairWeights::zero(n);
            for a in 0..n {
                for b in 0..n {
                    if a != b {
                        w.add(a, b, ((a * 31 + b * 17) % 23) as f64);
                    }
                }
            }
            let c = SelectionConstraints::allowing_all(n, 12).excluding_corners(&g);
            let (inc, profile) = select_max_cost_profiled(&g, &w, &c);
            let re = select_max_cost_rescan(&g, &w, &c);
            assert_eq!(inc, re, "side {side}");
            assert_eq!(profile.rounds, inc.len());
            // Row maintenance must beat the full rescan: the reference
            // evaluates rounds·V² candidates beyond the initial scan.
            let rescan_work = (profile.rounds * n * n) as u64;
            assert!(
                profile.candidates_scanned < (n * n) as u64 + rescan_work,
                "side {side}: {profile:?}"
            );
        }
    }

    #[test]
    fn incremental_matches_rescan_on_ring_mesh_fabric() {
        use crate::fabric::FabricSpec;
        let fabric = FabricSpec::ring_mesh(GridDims::new(6, 6), 3);
        let g = GridGraph::from_fabric(&fabric, &[]);
        let n = g.node_count();
        let mut w = PairWeights::zero(n);
        for a in 0..n {
            for b in 0..n {
                if a != b {
                    w.add(a, b, ((a * 13 + b * 7) % 11) as f64);
                }
            }
        }
        let c = SelectionConstraints::allowing_all(n, 8);
        assert_eq!(select_max_cost(&g, &w, &c), select_max_cost_rescan(&g, &w, &c));
    }

    #[test]
    fn zero_weights_select_nothing() {
        let g = mesh(5);
        let w = PairWeights::zero(25);
        let c = SelectionConstraints::allowing_all(25, 4);
        assert!(select_max_cost(&g, &w, &c).is_empty());
        assert!(select_exhaustive_greedy(&g, &w, &c).is_empty());
    }

    #[test]
    fn check_constraints_detects_violations() {
        let g = mesh(4);
        let c = SelectionConstraints::allowing_all(16, 2);
        // duplicate source exceeds max_out_per_node = 1
        let bad = vec![Shortcut::new(0, 15), Shortcut::new(0, 12)];
        assert!(check_constraints(&g, &bad, &c).is_err());
        let over = vec![Shortcut::new(0, 15), Shortcut::new(1, 12), Shortcut::new(2, 13)];
        assert!(check_constraints(&g, &over, &c).is_err());
        let ok = vec![Shortcut::new(0, 15), Shortcut::new(1, 12)];
        assert!(check_constraints(&g, &ok, &c).is_ok());
    }
}
