//! All-pairs shortest-path distances with incremental edge evaluation.

use crate::graph::{GridGraph, NodeId};

/// Distance value used to mark unreachable pairs.
pub const UNREACHABLE: u32 = u32::MAX;

/// A dense `V×V` matrix of shortest-path hop distances.
///
/// Row index is the source node, column index the destination. Produced by
/// [`GridGraph::distances`] and consumed by the selection heuristics, which
/// use the `O(V²)` *would-be* distance update of
/// [`DistanceMatrix::improvement_if_added`] to evaluate candidate shortcut
/// edges without recomputing a full APSP per candidate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistanceMatrix {
    n: usize,
    d: Vec<u32>,
}

impl DistanceMatrix {
    /// Computes all-pairs shortest paths over `graph` by BFS from each node.
    ///
    /// `O(V·E)` over a flattened copy of the adjacency lists; the only
    /// scratch besides the `V²` result is `O(V + E)`.
    pub fn from_graph(graph: &GridGraph) -> Self {
        let n = graph.node_count();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::new();
        offsets.push(0);
        for u in 0..n {
            targets.extend(graph.neighbors(u).iter().map(|&v| v as u32));
            offsets.push(targets.len());
        }
        let mut d = vec![UNREACHABLE; n * n];
        let mut queue: Vec<u32> = Vec::with_capacity(n);
        for (src, row) in d.chunks_exact_mut(n).enumerate() {
            row[src] = 0;
            queue.clear();
            queue.push(src as u32);
            let mut head = 0;
            while let Some(&u) = queue.get(head) {
                head += 1;
                let u = u as usize;
                let du = row[u];
                for &v in &targets[offsets[u]..offsets[u + 1]] {
                    let slot = &mut row[v as usize];
                    if *slot == UNREACHABLE {
                        *slot = du + 1;
                        queue.push(v);
                    }
                }
            }
        }
        Self { n, d }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Shortest-path distance from `src` to `dst` in hops.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn get(&self, src: NodeId, dst: NodeId) -> u32 {
        assert!(src < self.n && dst < self.n, "node index out of range");
        self.d[src * self.n + dst]
    }

    /// Distances from `src` to every node (row `src` of the matrix).
    ///
    /// # Panics
    ///
    /// Panics if `src` is out of range.
    pub fn row(&self, src: NodeId) -> &[u32] {
        &self.d[src * self.n..(src + 1) * self.n]
    }

    /// The flattened `V×V` distances (row = source), without a copy.
    pub fn into_vec(self) -> Vec<u32> {
        self.d
    }

    /// The network diameter: the maximum finite pairwise distance.
    pub fn diameter(&self) -> u32 {
        self.d
            .iter()
            .copied()
            .filter(|&v| v != UNREACHABLE)
            .max()
            .unwrap_or(0)
    }

    /// Sum of all finite pairwise distances (the unweighted objective).
    pub fn total(&self) -> u64 {
        self.d
            .iter()
            .copied()
            .filter(|&v| v != UNREACHABLE)
            .map(u64::from)
            .sum()
    }

    /// Weighted objective reduction achieved by adding the directed unit edge
    /// `(i, j)`:
    ///
    /// `Σ_{x,y} w(x,y) · max(0, d(x,y) − (d(x,i) + 1 + d(j,y)))`
    ///
    /// This is the inner evaluation of the exhaustive greedy heuristic of
    /// Figure 3a — the cost of the *permutation graph* `G' = G + (i,j)`
    /// relative to `G` — computed in `O(V²)` instead of a fresh APSP.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != V²`.
    pub fn improvement_if_added(&self, i: NodeId, j: NodeId, weights: &[f64]) -> f64 {
        let n = self.n;
        assert_eq!(weights.len(), n * n, "weights must be V*V");
        let mut gain = 0.0;
        for x in 0..n {
            let dxi = self.d[x * n + i];
            if dxi == UNREACHABLE {
                continue;
            }
            let base = dxi as u64 + 1;
            for y in 0..n {
                let dxy = self.d[x * n + y];
                let djy = self.d[j * n + y];
                if djy == UNREACHABLE || dxy == UNREACHABLE {
                    continue;
                }
                let via = base + djy as u64;
                if (via as u32 as u64) < dxy as u64 {
                    gain += weights[x * n + y] * (dxy as u64 - via) as f64;
                }
            }
        }
        gain
    }

    /// Applies the addition of unit edge `(i, j)` in place:
    /// `d(x,y) ← min(d(x,y), d(x,i) + 1 + d(j,y))` for all pairs.
    ///
    /// After [`GridGraph::add_shortcut`] this is equivalent to a full APSP
    /// recomputation for a single added edge. A source row `x` can only
    /// change if the edge shortens `d(x,j)` itself: otherwise
    /// `d(x,i) + 1 + d(j,y) ≥ d(x,j) + d(j,y) ≥ d(x,y)` by the triangle
    /// inequality, so such rows are skipped without a scan.
    pub fn apply_edge(&mut self, i: NodeId, j: NodeId) {
        let n = self.n;
        // Row j and column i never change under their own edge (a path
        // through (i, j) back to i or out of j is never shorter), but
        // row j is copied to let row x be updated in place.
        let row_j: Vec<u32> = self.row(j).to_vec();
        for row in self.d.chunks_exact_mut(n) {
            let dxi = row[i];
            if dxi == UNREACHABLE || u64::from(dxi) + 1 >= u64::from(row[j]) {
                continue;
            }
            let base = dxi + 1;
            for (cur, &djy) in row.iter_mut().zip(&row_j) {
                // An unreachable d(j,y) saturates to UNREACHABLE and
                // leaves the entry as it was.
                *cur = (*cur).min(base.saturating_add(djy));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::GridDims;
    use crate::graph::Shortcut;

    #[test]
    fn bfs_matches_manhattan_on_pure_mesh() {
        let dims = GridDims::new(6, 5);
        let g = GridGraph::mesh(dims);
        let d = g.distances();
        for a in 0..dims.nodes() {
            for b in 0..dims.nodes() {
                assert_eq!(d.get(a, b), dims.manhattan(a, b));
            }
        }
    }

    #[test]
    fn incremental_apply_matches_full_recompute() {
        let dims = GridDims::new(8, 8);
        let mut g = GridGraph::mesh(dims);
        let mut d = g.distances();
        for &(i, j) in &[(0usize, 63usize), (7, 56), (20, 43), (5, 58)] {
            g.add_shortcut(Shortcut::new(i, j));
            d.apply_edge(i, j);
            assert_eq!(d, g.distances(), "after adding ({i},{j})");
        }
    }

    #[test]
    fn improvement_matches_recomputed_cost_delta() {
        let dims = GridDims::new(7, 7);
        let g = GridGraph::mesh(dims);
        let d = g.distances();
        let n = dims.nodes();
        let weights = vec![1.0; n * n];
        let before = GridGraph::total_cost(&d, &weights);
        for &(i, j) in &[(0usize, 48usize), (6, 42), (10, 38)] {
            let predicted = d.improvement_if_added(i, j, &weights);
            let mut g2 = g.clone();
            g2.add_shortcut(Shortcut::new(i, j));
            let after = GridGraph::total_cost(&g2.distances(), &weights);
            assert!(
                (before - after - predicted).abs() < 1e-6,
                "predicted {predicted}, actual {}",
                before - after
            );
        }
    }

    #[test]
    fn diameter_of_mesh() {
        let d = GridGraph::mesh(GridDims::new(10, 10)).distances();
        assert_eq!(d.diameter(), 18);
    }

    #[test]
    fn total_is_symmetric_sum() {
        let d = GridGraph::mesh(GridDims::new(3, 3)).distances();
        // 3x3 mesh: known APSP sum.
        let mut expected = 0u64;
        let dims = GridDims::new(3, 3);
        for a in 0..9 {
            for b in 0..9 {
                expected += dims.manhattan(a, b) as u64;
            }
        }
        assert_eq!(d.total(), expected);
    }
}
