//! Routing tables over the shortcut-augmented fabric.
//!
//! When the mesh is extended with RF-I shortcuts the paper switches from XY
//! routing to shortest-path routing (§3.2); routes are programmed into
//! per-router tables (99 network cycles to update all 100 routers, one write
//! port each). [`PortTables`] computes those tables as out-port slots, the
//! form a router uses; this module also provides the XY baseline used by
//! the escape virtual channels.

use crate::dist::{DistanceMatrix, UNREACHABLE};
use crate::fabric::{FabricSpec, NeighborSlots};
use crate::geom::GridDims;
use crate::graph::{GridGraph, NodeId, Shortcut};

/// Shortest-path out-port tables over a base fabric plus shortcuts:
/// `port(router, dest)` is the slot a packet at `router` leaves through on
/// a shortest path toward `dest`.
///
/// Slots follow the fabric's port-slot contract: the base slots
/// `0..fabric.base_slot_count(r)`, then the local slot
/// (`base_slot_count(r)`, stored on the diagonal), then the router's
/// shortcut slot (`base_slot_count(r) + 1`).
///
/// Tie-breaking is deterministic: a shortcut edge is preferred over a base
/// edge of equal progress (shortcuts are single-cycle express channels),
/// then the lowest neighbour id wins. A shortcut parallel to a base link
/// leaves through that link's slot.
///
/// Built in `O(V·E)` (the APSP) plus `O(V²·deg)` for the table, and holds
/// only the `V²` `u32` distances and the `V²` `u8` ports.
#[derive(Debug, Clone)]
pub struct PortTables {
    fabric: FabricSpec,
    shortcut_of: Vec<Option<NodeId>>,
    ports: Vec<u8>,
    dist: DistanceMatrix,
}

impl PortTables {
    /// Builds the tables for `fabric` plus `shortcuts`.
    ///
    /// # Panics
    ///
    /// Panics if a router sources more than one shortcut (a router has one
    /// shortcut slot), a shortcut is out of range or a self-loop, or the
    /// fabric is disconnected.
    pub fn shortest_path(fabric: &FabricSpec, shortcuts: &[Shortcut]) -> Self {
        let dist = GridGraph::from_fabric(fabric, shortcuts).distances();
        let n = fabric.nodes();
        let mut shortcut_of = vec![None; n];
        for s in shortcuts {
            let previous = shortcut_of[s.src].replace(s.dst);
            assert!(previous.is_none(), "router {} sources more than one shortcut", s.src);
        }
        let slots = NeighborSlots::new(fabric);
        let mut ports = vec![0u8; n * n];
        let mut links: Vec<(&[u32], u8)> = Vec::with_capacity(fabric.max_base_slots());
        for (r, row) in ports.chunks_exact_mut(n).enumerate() {
            let local = fabric.base_slot_count(r) as u8;
            let from_r = dist.row(r);
            // Candidates in preference order: the shortcut, then the base
            // links by ascending neighbour id.
            let shortcut =
                shortcut_of[r].map(|s| (dist.row(s), slots.slot(r, s).unwrap_or(local + 1)));
            links.clear();
            links.extend(slots.links(r).iter().map(|&(nb, slot)| (dist.row(nb), slot)));
            for (dest, port) in row.iter_mut().enumerate() {
                let d = from_r[dest];
                if dest == r {
                    *port = local;
                    continue;
                }
                assert_ne!(d, UNREACHABLE, "fabric must be connected");
                *port = match shortcut {
                    Some((from_s, slot)) if from_s[dest] == d - 1 => slot,
                    _ => {
                        links
                            .iter()
                            .find(|(from_nb, _)| from_nb[dest] == d - 1)
                            .expect("some neighbour must lie on a shortest path")
                            .1
                    }
                };
            }
        }
        Self { fabric: *fabric, shortcut_of, ports, dist }
    }

    /// Number of routers covered by the tables.
    pub fn node_count(&self) -> usize {
        self.shortcut_of.len()
    }

    /// The out-port slot from `router` toward `dest` (the local slot when
    /// `router == dest`).
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn port(&self, router: NodeId, dest: NodeId) -> u8 {
        let n = self.node_count();
        assert!(router < n && dest < n, "node index out of range");
        self.ports[router * n + dest]
    }

    /// The shortest-path distances the tables were built from.
    pub fn distances(&self) -> &DistanceMatrix {
        &self.dist
    }

    /// The next node on the route from `router` toward `dest` (`router`
    /// itself when already at the destination).
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn next_hop(&self, router: NodeId, dest: NodeId) -> NodeId {
        let slot = self.port(router, dest);
        let local = self.fabric.base_slot_count(router) as u8;
        if slot == local {
            router
        } else if slot == local + 1 {
            self.shortcut_of[router].expect("shortcut slot without a shortcut")
        } else {
            self.fabric.port_neighbor(router, slot).expect("base slot faces a neighbour")
        }
    }

    /// The full route from `src` to `dst` (inclusive of both endpoints).
    pub fn route(&self, src: NodeId, dst: NodeId) -> Vec<NodeId> {
        let mut path = vec![src];
        let mut cur = src;
        while cur != dst {
            cur = self.next_hop(cur, dst);
            path.push(cur);
            assert!(path.len() <= self.node_count(), "routing loop detected");
        }
        path
    }

    /// The flattened `V×V` port table and distances (row = router), moved
    /// out without a copy.
    pub fn into_parts(self) -> (Vec<u8>, Vec<u32>) {
        (self.ports, self.dist.into_vec())
    }
}

/// Node-level next-hop tables: the reference implementation of
/// [`PortTables`], kept only as the oracle it is tested against.
///
/// `next_hop(router, dest)` is the neighbour (base or shortcut) to forward
/// to on a shortest path, with [`PortTables`]' tie-break.
#[derive(Debug, Clone)]
pub struct RoutingTables {
    n: usize,
    /// `table[router * n + dest]` = next node, or `router` itself when
    /// `dest == router`.
    table: Vec<NodeId>,
}

impl RoutingTables {
    /// Builds shortest-path next-hop tables for `graph`.
    pub fn shortest_path(graph: &GridGraph) -> Self {
        let dist = graph.distances();
        Self::from_distances(graph, &dist)
    }

    /// Builds the tables from a pre-computed distance matrix for `graph`.
    ///
    /// # Panics
    ///
    /// Panics if the matrix does not match the graph, or if any pair is
    /// unreachable (cannot happen for a connected mesh).
    pub fn from_distances(graph: &GridGraph, dist: &DistanceMatrix) -> Self {
        let n = graph.node_count();
        assert_eq!(dist.node_count(), n, "distance matrix mismatch");
        let mut table = vec![0usize; n * n];
        for router in 0..n {
            for dest in 0..n {
                if router == dest {
                    table[router * n + dest] = router;
                    continue;
                }
                let d = dist.get(router, dest);
                assert_ne!(d, UNREACHABLE, "mesh must be connected");
                // Choose the neighbour strictly decreasing distance; prefer
                // shortcut neighbours (listed after the ≤4 mesh neighbours).
                let neighbors = graph.neighbors(router);
                let mut chosen: Option<(bool, NodeId)> = None;
                for (idx, &nb) in neighbors.iter().enumerate() {
                    if dist.get(nb, dest) + 1 == d {
                        let is_shortcut = idx >= mesh_degree(graph, router);
                        let better = match chosen {
                            None => true,
                            Some((cs, cn)) => {
                                (is_shortcut && !cs) || (is_shortcut == cs && nb < cn)
                            }
                        };
                        if better {
                            chosen = Some((is_shortcut, nb));
                        }
                    }
                }
                table[router * n + dest] =
                    chosen.expect("some neighbour must lie on a shortest path").1;
            }
        }
        Self { n, table }
    }

    /// The next node on the route from `router` toward `dest` (`router`
    /// itself when already at the destination).
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn next_hop(&self, router: NodeId, dest: NodeId) -> NodeId {
        assert!(router < self.n && dest < self.n, "node index out of range");
        self.table[router * self.n + dest]
    }

    /// The out-port table these next hops give on `fabric`: the local slot
    /// on the diagonal, the base slot toward an adjacent next hop, else
    /// the shortcut slot.
    pub fn port_table(&self, fabric: &FabricSpec) -> Vec<u8> {
        let n = self.n;
        let mut ports = vec![0u8; n * n];
        for r in 0..n {
            let local = fabric.base_slot_count(r) as u8;
            for d in 0..n {
                ports[r * n + d] = if r == d {
                    local
                } else {
                    fabric.port_between(r, self.next_hop(r, d)).unwrap_or(local + 1)
                };
            }
        }
        ports
    }
}

fn mesh_degree(graph: &GridGraph, router: NodeId) -> usize {
    graph.neighbors(router).len() - graph.shortcuts().iter().filter(|s| s.src == router).count()
}

/// The XY (dimension-order) next hop on a pure mesh: route in X first, then
/// Y. Deadlock-free; used by the escape virtual channels.
///
/// Returns `dest` itself when `router == dest`.
///
/// # Panics
///
/// Panics if an index is out of range for `dims`.
pub fn xy_next_hop(dims: GridDims, router: NodeId, dest: NodeId) -> NodeId {
    let rc = dims.coord_of(router);
    let dc = dims.coord_of(dest);
    if rc.x < dc.x {
        dims.index_of((rc.x + 1, rc.y).into())
    } else if rc.x > dc.x {
        dims.index_of((rc.x - 1, rc.y).into())
    } else if rc.y < dc.y {
        dims.index_of((rc.x, rc.y + 1).into())
    } else if rc.y > dc.y {
        dims.index_of((rc.x, rc.y - 1).into())
    } else {
        dest
    }
}

/// The full XY route from `src` to `dst` (inclusive of both endpoints).
pub fn xy_route(dims: GridDims, src: NodeId, dst: NodeId) -> Vec<NodeId> {
    let mut path = vec![src];
    let mut cur = src;
    while cur != dst {
        cur = xy_next_hop(dims, cur, dst);
        path.push(cur);
    }
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xy_route_length_is_manhattan() {
        let dims = GridDims::new(10, 10);
        for (a, b) in [(0, 99), (5, 87), (33, 33), (90, 9)] {
            let route = xy_route(dims, a, b);
            assert_eq!(route.len() as u32 - 1, dims.manhattan(a, b));
        }
    }

    #[test]
    fn xy_goes_x_first() {
        let dims = GridDims::new(10, 10);
        let route = xy_route(dims, 0, 22);
        assert_eq!(route, vec![0, 1, 2, 12, 22]);
    }

    fn mesh_tables(dims: GridDims, shortcuts: &[Shortcut]) -> PortTables {
        PortTables::shortest_path(&FabricSpec::mesh(dims), shortcuts)
    }

    #[test]
    fn shortest_path_tables_match_distances() {
        let dims = GridDims::new(8, 8);
        let shortcuts = [Shortcut::new(0, 63), Shortcut::new(56, 7)];
        let dist = GridGraph::with_shortcuts(dims, &shortcuts).distances();
        let tables = mesh_tables(dims, &shortcuts);
        for src in 0..64 {
            for dst in 0..64 {
                let route = tables.route(src, dst);
                assert_eq!(route.len() as u32 - 1, dist.get(src, dst), "{src}->{dst}");
            }
        }
    }

    #[test]
    fn route_uses_shortcut_when_profitable() {
        let tables = mesh_tables(GridDims::new(10, 10), &[Shortcut::new(11, 88)]);
        let route = tables.route(11, 88);
        assert_eq!(route, vec![11, 88]);
        // A neighbour of 11 routes through the shortcut too.
        let route2 = tables.route(1, 88);
        assert!(route2.windows(2).any(|w| w == [11, 88]));
    }

    #[test]
    fn shortcut_preferred_on_tie() {
        // shortcut of length equal to one mesh hop progress: from 0 to 2 is
        // distance 2; a shortcut 0->2 makes next_hop(0,2) the shortcut.
        let tables = mesh_tables(GridDims::new(10, 10), &[Shortcut::new(0, 2)]);
        assert_eq!(tables.next_hop(0, 2), 2);
        assert_eq!(tables.port(0, 2), 5, "the shortcut slot follows the local slot");
    }

    #[test]
    fn next_hop_self_is_identity() {
        let tables = mesh_tables(GridDims::new(4, 4), &[]);
        for i in 0..16 {
            assert_eq!(tables.next_hop(i, i), i);
            assert_eq!(tables.port(i, i), 4, "the local slot");
        }
    }
}
