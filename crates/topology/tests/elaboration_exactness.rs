//! Design elaboration is exact: the region search, the port-table
//! builder, the ring-mesh base table, distance-scored static selection and
//! the incremental distance update each reproduce their definitional
//! reference bit for bit, on meshes and ring-meshes up to 16×16.

use proptest::prelude::*;
use rfnoc_topology::regions::{all_regions, best_region_pair, region_cost, Region};
use rfnoc_topology::routing::{PortTables, RoutingTables};
use rfnoc_topology::select::{select_max_cost_rescan, select_max_distance, SelectionConstraints};
use rfnoc_topology::{DistanceMatrix, FabricSpec, GridDims, GridGraph, PairWeights, Shortcut};

/// SplitMix64: a tiny deterministic stream for building test inputs.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Mesh and ring-mesh fabrics up to 16×16, indexed for strategies.
fn fabric(index: usize) -> FabricSpec {
    const FABRICS: [(usize, usize, usize); 9] = [
        (4, 4, 0),
        (7, 5, 0),
        (10, 10, 0),
        (16, 16, 0),
        (6, 6, 3),
        (8, 8, 2),
        (12, 8, 4),
        (12, 12, 3),
        (16, 16, 4),
    ];
    let (w, h, tile) = FABRICS[index % FABRICS.len()];
    let dims = GridDims::new(w, h);
    if tile == 0 {
        FabricSpec::mesh(dims)
    } else {
        FabricSpec::ring_mesh(dims, tile)
    }
}

/// A random legal shortcut set (one out and one in per router, no
/// self-loops) of up to `k` shortcuts. With `parallel`, the first is laid
/// along a base link, where the shortcut and the link lead to the same
/// neighbour.
fn legal_shortcuts(fabric: &FabricSpec, seed: u64, k: usize, parallel: bool) -> Vec<Shortcut> {
    let n = fabric.nodes();
    let mut state = seed;
    let mut used_out = vec![false; n];
    let mut used_in = vec![false; n];
    let mut out = Vec::new();
    let mut push = |s: Shortcut, out: &mut Vec<Shortcut>| {
        if s.src != s.dst && !used_out[s.src] && !used_in[s.dst] {
            used_out[s.src] = true;
            used_in[s.dst] = true;
            out.push(s);
        }
    };
    if parallel {
        let r = (splitmix(&mut state) % n as u64) as usize;
        let nb = fabric.neighbors(r)[0];
        push(Shortcut::new(r, nb), &mut out);
    }
    for _ in 0..4 * k {
        if out.len() >= k {
            break;
        }
        let a = (splitmix(&mut state) % n as u64) as usize;
        let b = (splitmix(&mut state) % n as u64) as usize;
        push(Shortcut::new(a, b), &mut out);
    }
    out
}

/// The definitional region search: [`region_cost`] for every ordered
/// non-overlapping pair, keeping the first maximum within the epsilon.
fn reference_region_pair(
    dims: GridDims,
    dist: &DistanceMatrix,
    weights: &PairWeights,
) -> Option<(Region, Region)> {
    let regions = all_regions(dims);
    let mut best: Option<(f64, usize, usize)> = None;
    for (ia, a) in regions.iter().enumerate() {
        for (ib, b) in regions.iter().enumerate() {
            if ia == ib || a.overlaps(b) {
                continue;
            }
            let cost = region_cost(a, b, dist, weights);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The region search sums every candidate in `region_cost`'s order,
    /// so it picks the same pair on integer and fractional weights, with
    /// whole source rows left at zero.
    #[test]
    fn region_search_matches_the_definitional_sum(
        width in 3usize..13,
        height in 3usize..11,
        seed in any::<u64>(),
        fractional in any::<bool>(),
        density in 1u64..5,
    ) {
        let dims = GridDims::new(width, height);
        let fabric = FabricSpec::mesh(dims);
        let shortcuts = legal_shortcuts(&fabric, seed, 3, false);
        let dist = GridGraph::from_fabric(&fabric, &shortcuts).distances();
        let n = dims.nodes();
        let mut state = seed ^ 0xA5A5;
        let mut weights = PairWeights::zero(n);
        for x in 0..n {
            // About a third of the source rows carry no traffic at all.
            if splitmix(&mut state).is_multiple_of(3) {
                continue;
            }
            for y in 0..n {
                let r = splitmix(&mut state);
                if x == y || r % 4 >= density {
                    continue;
                }
                let w = if fractional {
                    (r >> 11) as f64 / (1u64 << 53) as f64 * 7.3
                } else {
                    (r >> 40) as f64 % 9.0
                };
                weights.add(x, y, w);
            }
        }
        prop_assert_eq!(
            best_region_pair(dims, &dist, &weights),
            reference_region_pair(dims, &dist, &weights)
        );
    }

    /// The port-table builder writes exactly the ports the node-level
    /// reference tables give through `port_between`, and moves out the
    /// same distances.
    #[test]
    fn port_tables_match_the_reference_tables(
        index in 0usize..9,
        k in 0usize..12,
        seed in any::<u64>(),
        parallel in any::<bool>(),
    ) {
        let fabric = fabric(index);
        let shortcuts = legal_shortcuts(&fabric, seed, k, parallel);
        let graph = GridGraph::from_fabric(&fabric, &shortcuts);
        let reference = RoutingTables::shortest_path(&graph);
        let tables = PortTables::shortest_path(&fabric, &shortcuts);
        let n = fabric.nodes();
        for r in 0..n {
            for d in 0..n {
                prop_assert_eq!(tables.next_hop(r, d), reference.next_hop(r, d));
            }
        }
        let (ports, dist) = tables.into_parts();
        prop_assert_eq!(ports, reference.port_table(&fabric));
        prop_assert_eq!(dist, graph.distances().into_vec());
    }

    /// Distance-scored selection picks the same shortcuts as the
    /// rescanning max-cost reference over uniform weights, under random
    /// eligibility and one or two shortcut ports per router.
    #[test]
    fn distance_scored_selection_matches_uniform_rescan(
        index in 0usize..9,
        budget in 1usize..24,
        seed in any::<u64>(),
        two_ports in any::<bool>(),
        corners in any::<bool>(),
    ) {
        let fabric = fabric(index);
        let graph = GridGraph::from_fabric(&fabric, &[]);
        let n = graph.node_count();
        let mut state = seed;
        let enabled: Vec<usize> =
            (0..n).filter(|_| !splitmix(&mut state).is_multiple_of(4)).collect();
        let mut constraints = SelectionConstraints::for_enabled(n, budget, &enabled);
        if corners {
            constraints = constraints.excluding_corners(&graph);
        }
        if two_ports {
            constraints.max_out_per_node = 2;
            constraints.max_in_per_node = 2;
        }
        let reference =
            select_max_cost_rescan(&graph, &PairWeights::uniform(n), &constraints);
        prop_assert_eq!(select_max_distance(&graph, &constraints), reference);
    }

    /// The row-skipping distance update equals a fresh APSP after every
    /// added shortcut.
    #[test]
    fn incremental_distance_update_matches_recompute(
        index in 0usize..9,
        k in 1usize..10,
        seed in any::<u64>(),
    ) {
        let fabric = fabric(index);
        let mut graph = GridGraph::from_fabric(&fabric, &[]);
        let mut dist = graph.distances();
        for s in legal_shortcuts(&fabric, seed, k, false) {
            graph.add_shortcut(s);
            dist.apply_edge(s.src, s.dst);
            prop_assert_eq!(&dist, &graph.distances());
        }
    }
}

/// A shortcut laid along a base link wins the tie and leaves through the
/// link's own slot, as the reference tables' `port_between` mapping does.
#[test]
fn parallel_shortcut_leaves_through_the_base_slot() {
    for fabric in [FabricSpec::mesh(GridDims::new(6, 6)), fabric(6)] {
        let nb = fabric.neighbors(9)[1];
        let shortcuts = [Shortcut::new(9, nb), Shortcut::new(0, 35)];
        let tables = PortTables::shortest_path(&fabric, &shortcuts);
        let slot = fabric.port_between(9, nb).expect("adjacent");
        assert_eq!(tables.port(9, nb), slot);
        assert_eq!(tables.next_hop(9, nb), nb);
        let reference = RoutingTables::shortest_path(&GridGraph::from_fabric(&fabric, &shortcuts));
        assert_eq!(tables.into_parts().0, reference.port_table(&fabric));
    }
}

/// The ring-mesh base table (one next hop per router and tile) agrees
/// with `base_port` for every pair; so does the mesh's.
#[test]
fn base_port_table_matches_base_port_for_every_pair() {
    for index in 0..9 {
        let fabric = fabric(index);
        let n = fabric.nodes();
        let table = fabric.base_port_table();
        assert_eq!(table.len(), n * n);
        for r in 0..n {
            for d in 0..n {
                let expected =
                    if r == d { fabric.base_slot_count(r) as u8 } else { fabric.base_port(r, d) };
                assert_eq!(table[r * n + d], expected, "{fabric}: {r} -> {d}");
            }
        }
    }
}
