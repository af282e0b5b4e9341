//! 3×3 sub-mesh regions for hotspot-aware shortcut selection (paper §3.2.2).
//!
//! The application-specific heuristic places edges between
//! *source/destination region pairs*, where regions are non-overlapping 3×3
//! sub-meshes of frequently-communicating and/or distant routers. The
//! inter-region communication metric is
//! `C_Region(A,B) = Σ_{x∈A, y∈B} F(x,y) · W(x,y)`.
//!
//! [`best_region_pair`] searches all `O(R²)` ordered pairs of the
//! `R = (W−2)(H−2)` regions in `O(R·9V + R²·81)`: `9V` products per source
//! region, then 81 additions per candidate pair, with `O(9V)` scratch.

use crate::dist::DistanceMatrix;
use crate::geom::{Coord, GridDims};
use crate::graph::NodeId;
use crate::weights::PairWeights;

/// Side length of a region sub-mesh (the paper uses 3×3 regions).
pub const REGION_SIDE: usize = 3;

/// An axis-aligned square sub-mesh of the grid.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Region {
    dims: GridDims,
    origin: Coord,
    side: usize,
}

impl Region {
    /// Creates the `side`×`side` region whose top-left corner is `origin`.
    ///
    /// # Panics
    ///
    /// Panics if the region does not fit inside the grid.
    pub fn new(dims: GridDims, origin: Coord, side: usize) -> Self {
        assert!(
            origin.x as usize + side <= dims.width() && origin.y as usize + side <= dims.height(),
            "region at {origin} with side {side} exceeds {dims}"
        );
        Self { dims, origin, side }
    }

    /// Top-left corner of the region.
    pub fn origin(&self) -> Coord {
        self.origin
    }

    /// Whether linear node index `node` lies inside the region.
    pub fn contains_node(&self, node: NodeId) -> bool {
        let c = self.dims.coord_of(node);
        c.x >= self.origin.x
            && (c.x as usize) < self.origin.x as usize + self.side
            && c.y >= self.origin.y
            && (c.y as usize) < self.origin.y as usize + self.side
    }

    /// Linear node indices of all routers in the region.
    pub fn nodes(&self) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.side * self.side);
        for dy in 0..self.side {
            for dx in 0..self.side {
                out.push(self.dims.index_of(Coord::new(
                    self.origin.x + dx as u16,
                    self.origin.y + dy as u16,
                )));
            }
        }
        out
    }

    /// Whether two regions share any router.
    pub fn overlaps(&self, other: &Region) -> bool {
        let (ax0, ay0) = (self.origin.x as usize, self.origin.y as usize);
        let (bx0, by0) = (other.origin.x as usize, other.origin.y as usize);
        ax0 < bx0 + other.side
            && bx0 < ax0 + self.side
            && ay0 < by0 + other.side
            && by0 < ay0 + self.side
    }
}

/// All 3×3 regions that fit in the grid (every possible origin).
pub fn all_regions(dims: GridDims) -> Vec<Region> {
    let side = REGION_SIDE;
    let mut out = Vec::new();
    if dims.width() < side || dims.height() < side {
        return out;
    }
    for y in 0..=(dims.height() - side) {
        for x in 0..=(dims.width() - side) {
            out.push(Region::new(dims, Coord::new(x as u16, y as u16), side));
        }
    }
    out
}

/// `C_Region(A,B) = Σ_{x∈A, y∈B} F(x,y) · W(x,y)` (paper §3.2.2).
pub fn region_cost(
    a: &Region,
    b: &Region,
    dist: &DistanceMatrix,
    weights: &PairWeights,
) -> f64 {
    let mut total = 0.0;
    for x in a.nodes() {
        for y in b.nodes() {
            if x != y {
                total += weights.get(x, y) * dist.get(x, y) as f64;
            }
        }
    }
    total
}

/// The non-overlapping region pair `(I,J)` maximising `C_Region(I,J)`, or
/// `None` if no pair has positive cost (e.g. all-zero weights).
///
/// Source region `I` is the *sender* side and `J` the *receiver* side of the
/// metric, matching the directed shortcut that will be placed between them.
///
/// Each candidate's cost is summed in exactly [`region_cost`]'s order, so
/// the result is bit-identical to evaluating it pair by pair. The products
/// `F(x,y)·W(x,y)` of a source region's 9 rows are formed once per source
/// region (`O(9·V)` scratch), and source regions whose rows carry no
/// weight are skipped: every pair they head costs zero.
pub fn best_region_pair(
    dims: GridDims,
    dist: &DistanceMatrix,
    weights: &PairWeights,
) -> Option<(Region, Region)> {
    const CELLS: usize = REGION_SIDE * REGION_SIDE;
    let regions = all_regions(dims);
    let n = dims.nodes();
    let members: Vec<[NodeId; CELLS]> = regions
        .iter()
        .map(|r| r.nodes().try_into().expect("regions are 3x3"))
        .collect();
    let weighted: Vec<bool> =
        (0..n).map(|x| weights.row(x).iter().any(|&w| w != 0.0)).collect();
    let mut products = vec![0.0f64; CELLS * n];
    let mut best: Option<(f64, usize, usize)> = None;
    for (ia, a) in members.iter().enumerate() {
        if !a.iter().any(|&x| weighted[x]) {
            continue;
        }
        for (row, &x) in products.chunks_exact_mut(n).zip(a) {
            for ((p, &w), &d) in row.iter_mut().zip(weights.row(x)).zip(dist.row(x)) {
                *p = w * d as f64;
            }
        }
        for (ib, b) in members.iter().enumerate() {
            // Non-overlapping regions share no router, so `region_cost`'s
            // `x != y` guard never fires here.
            if ia == ib || regions[ia].overlaps(&regions[ib]) {
                continue;
            }
            let mut cost = 0.0;
            for row in products.chunks_exact(n) {
                for &y in b {
                    cost += row[y];
                }
            }
            if cost <= 0.0 {
                continue;
            }
            let better = match best {
                None => true,
                Some((bc, bia, bib)) => {
                    cost > bc + 1e-9 || ((cost - bc).abs() <= 1e-9 && (ia, ib) < (bia, bib))
                }
            };
            if better {
                best = Some((cost, ia, ib));
            }
        }
    }
    best.map(|(_, ia, ib)| (regions[ia].clone(), regions[ib].clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GridGraph;

    #[test]
    fn region_count_on_10x10() {
        assert_eq!(all_regions(GridDims::new(10, 10)).len(), 64);
    }

    #[test]
    fn region_nodes_and_containment() {
        let dims = GridDims::new(10, 10);
        let r = Region::new(dims, Coord::new(7, 0), 3);
        let nodes = r.nodes();
        assert_eq!(nodes.len(), 9);
        for n in &nodes {
            assert!(r.contains_node(*n));
        }
        assert!(!r.contains_node(0));
        assert!(nodes.contains(&9)); // (9,0)
        assert!(nodes.contains(&27)); // (7,2)
    }

    #[test]
    fn overlap_detection() {
        let dims = GridDims::new(10, 10);
        let a = Region::new(dims, Coord::new(0, 0), 3);
        let b = Region::new(dims, Coord::new(2, 2), 3);
        let c = Region::new(dims, Coord::new(3, 0), 3);
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
        assert!(b.overlaps(&c));
    }

    #[test]
    fn best_pair_targets_hotspot() {
        let dims = GridDims::new(10, 10);
        let g = GridGraph::mesh(dims);
        let dist = g.distances();
        let mut w = PairWeights::zero(100);
        // traffic from the top-right corner area into router (1,8) = 81
        for src in [9, 19, 8, 18] {
            w.add(src, 81, 50.0);
        }
        let (src_region, dst_region) = best_region_pair(dims, &dist, &w).unwrap();
        assert!(src_region.contains_node(9) || src_region.contains_node(19));
        assert!(dst_region.contains_node(81));
        assert!(!src_region.overlaps(&dst_region));
    }

    #[test]
    fn no_pair_for_zero_weights() {
        let dims = GridDims::new(10, 10);
        let dist = GridGraph::mesh(dims).distances();
        assert!(best_region_pair(dims, &dist, &PairWeights::zero(100)).is_none());
    }

    #[test]
    fn small_grid_has_no_regions() {
        assert!(all_regions(GridDims::new(2, 2)).is_empty());
    }
}
