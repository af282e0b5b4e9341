//! Live RF-I reconfiguration (paper §3.2 steps 1–3): drain the
//! channels, retune transmitters/receivers, rewrite the routing tables.
//! Fault-driven shortcut teardowns reuse the same drain → retune →
//! rewrite machinery, so graceful degradation and planned retuning share
//! one code path.

#[allow(clippy::wildcard_imports)]
use super::*;

impl Network {

    /// Requests a live reconfiguration to a new shortcut set (paper §3.2):
    /// the RF-I ports stop accepting traffic, drain, the transmitters and
    /// receivers retune, and the routing tables are rewritten (stalling
    /// injection for [`SimConfig::reconfig_cycles`]). Traffic in the mesh
    /// keeps flowing throughout. Shortcuts whose transmitter has failed
    /// (and not been repaired) are skipped at retune time.
    ///
    /// # Errors
    ///
    /// Returns a [`ReconfigError`] if the network uses XY routing (no
    /// tables to rewrite), a reconfiguration is already in progress, or
    /// the new set violates the one-in/one-out port constraint (including
    /// self-loop shortcuts, which the constraint implies).
    pub fn reconfigure(&mut self, shortcuts: Vec<Shortcut>) -> Result<(), ReconfigError> {
        if self.port_table.is_none() {
            return Err(ReconfigError::XyRouting);
        }
        if self.reconfig != ReconfigState::Idle || self.pending_target.is_some() {
            return Err(ReconfigError::InProgress);
        }
        check_shortcut_set(&shortcuts, self.dims.nodes())?;
        self.reconfig = ReconfigState::Draining(shortcuts);
        Ok(())
    }

    /// Completed reconfigurations so far (planned retunes and fault-driven
    /// degradations both count).
    pub fn reconfigurations(&self) -> u64 {
        self.reconfigurations
    }

    /// Whether every RF-I port in the network is idle (no owners, full
    /// credits, empty buffers and link queues).
    pub(super) fn rf_idle(&self) -> bool {
        let depth = self.config.buffer_depth as u32;
        self.routers.iter().all(|r| {
            // The RF port is always the last slot on every router.
            let rf = r.outputs.len() - 1;
            let out_ok = !r.outputs[rf].exists
                || r.outputs[rf]
                    .vcs
                    .iter()
                    .all(|v| v.owner.is_none() && v.credits == depth);
            let in_ok = !r.inputs[rf].exists
                || (r.inputs[rf].arrivals.is_empty()
                    && r.inputs[rf].vcs.iter().all(|v| v.len == 0));
            out_ok && in_ok
        })
    }

    /// Retunes the RF ports to `shortcuts` (minus failed transmitters) and
    /// rebuilds the routing tables.
    pub(super) fn apply_retuning(&mut self, shortcuts: &[Shortcut]) {
        let vcs = self.config.total_vcs();
        let depth = self.config.buffer_depth as u32;
        let installed: Vec<Shortcut> = shortcuts
            .iter()
            .filter(|s| !self.failed_rf_tx[s.src])
            .copied()
            .collect();
        // Tear down all RF ports (drained by construction).
        for r in self.routers.iter_mut() {
            let rf = r.inputs.len() - 1;
            r.inputs[rf] = InputPort::default();
            r.outputs[rf] = OutputPort::default();
        }
        for s in &installed {
            let hops = self.fabric.base_route_len(s.src, s.dst);
            let rf_src = self.rf_port(s.src);
            let rf_dst = self.rf_port(s.dst);
            let out = &mut self.routers[s.src].outputs[rf_src];
            out.exists = true;
            out.target = Some((s.dst, rf_dst as u8));
            out.capacity = self.config.rf_flits_per_cycle();
            out.shortcut_hops = hops;
            out.vcs = vec![Default::default(); vcs];
            for v in &mut out.vcs {
                v.credits = depth;
            }
            self.routers[s.dst].inputs[rf_dst] =
                InputPort::new(vcs, depth, Some((s.src, rf_src as u8)));
        }
        self.active_shortcuts = installed;
        self.rebuild_unicast_tables();
        self.tel_event(telemetry::TimelineEventKind::RetuneApplied {
            installed: self.active_shortcuts.len(),
        });
        // Retuning rewrites the routing tables; wake everyone so any
        // packet whose route just changed is revisited promptly.
        self.mark_all_active();
    }

    /// Rebuilds the shortest-path tables over the current topology: the
    /// surviving mesh plus the active shortcuts. While the mesh is intact
    /// this is the same [`PortTables`] build as construction (so a
    /// fault-free retune behaves exactly as it always did); with failed
    /// mesh links it switches to a per-destination BFS over the surviving
    /// links.
    pub(super) fn rebuild_unicast_tables(&mut self) {
        self.route_epoch += 1;
        if self.mesh_link_failures > 0 {
            let shortcuts = self.active_shortcuts.clone();
            let (pt, dm, td) = self.detour_tables(&shortcuts);
            self.port_table = Some(pt);
            self.sp_dist = Some(dm);
            self.detour_dist = Some(td);
            return;
        }
        self.detour_dist = None;
        let (pt, dm) = PortTables::shortest_path(&self.fabric, &self.active_shortcuts).into_parts();
        self.port_table = Some(pt);
        self.sp_dist = Some(dm);
    }

    /// Advances the reconfiguration state machine by one cycle.
    pub(super) fn step_reconfig(&mut self) {
        match std::mem::replace(&mut self.reconfig, ReconfigState::Idle) {
            ReconfigState::Idle => {}
            ReconfigState::Draining(shortcuts) => {
                if self.rf_idle() {
                    self.apply_retuning(&shortcuts);
                    self.reconfig =
                        ReconfigState::Updating(self.cycle + self.config.reconfig_cycles);
                } else {
                    self.reconfig = ReconfigState::Draining(shortcuts);
                }
            }
            ReconfigState::Updating(until) => {
                if self.cycle >= until {
                    self.reconfigurations += 1;
                    self.tel_event(telemetry::TimelineEventKind::TablesRewritten);
                    // A fault that struck mid-rewrite queued a fresh target;
                    // start draining toward it now.
                    if let Some(target) = self.pending_target.take() {
                        self.reconfig = ReconfigState::Draining(target);
                    }
                } else {
                    self.reconfig = ReconfigState::Updating(until);
                }
            }
        }
    }

    /// Whether injection is stalled by a routing-table rewrite.
    pub(super) fn injection_stalled(&self) -> bool {
        matches!(self.reconfig, ReconfigState::Updating(_))
    }

    /// Whether RF output ports may accept new packets.
    pub(super) fn rf_accepting(&self) -> bool {
        !matches!(self.reconfig, ReconfigState::Draining(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfnoc_topology::routing::RoutingTables;
    use rfnoc_topology::GridGraph;

    /// The node-level reference tables mapped to ports, and their
    /// distances.
    fn reference(fabric: &FabricSpec, shortcuts: &[Shortcut]) -> (Vec<u8>, Vec<u32>) {
        let graph = GridGraph::from_fabric(fabric, shortcuts);
        let ports = RoutingTables::shortest_path(&graph).port_table(fabric);
        (ports, graph.distances().into_vec())
    }

    /// Construction and a fault-free retune both install exactly the
    /// reference tables, on the mesh and the ring-mesh, including a
    /// shortcut laid along a base link.
    #[test]
    fn retuned_tables_match_the_reference() {
        for fabric in [
            FabricSpec::mesh(GridDims::new(6, 6)),
            FabricSpec::ring_mesh(GridDims::new(8, 8), 4),
        ] {
            let first = vec![Shortcut::new(0, 35), Shortcut::new(30, 5)];
            let parallel = fabric.neighbors(14)[0];
            let second = vec![
                Shortcut::new(14, parallel),
                Shortcut::new(5, 30),
                Shortcut::new(35, 0),
                Shortcut::new(20, 3),
            ];
            let spec = NetworkSpec::with_fabric(fabric, SimConfig::paper_baseline(), first.clone());
            let mut net = Network::new(spec);
            let (ports, dist) = reference(&fabric, &first);
            assert_eq!(net.port_table.as_deref(), Some(ports.as_slice()), "{fabric}");
            assert_eq!(net.sp_dist.as_deref(), Some(dist.as_slice()), "{fabric}");

            net.apply_retuning(&second);
            assert_eq!(net.active_shortcuts(), second.as_slice());
            let (ports, dist) = reference(&fabric, &second);
            assert_eq!(net.port_table.as_deref(), Some(ports.as_slice()), "{fabric}");
            assert_eq!(net.sp_dist.as_deref(), Some(dist.as_slice()), "{fabric}");
            assert!(net.detour_dist.is_none());
        }
    }
}
