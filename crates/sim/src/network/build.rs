//! Network construction: wiring routers, links, and the RF-I overlay.

#[allow(clippy::wildcard_imports)]
use super::*;

impl Network {

    /// Builds a network from its specification.
    ///
    /// # Panics
    ///
    /// Panics if the specification is inconsistent: invalid config,
    /// degenerate fabric, more than one inbound or outbound shortcut per
    /// router (or a self-loop), shortcuts present in XY mode, an invalid
    /// fault plan, or a missing/invalid multicast configuration. Prefer
    /// [`Network::try_new`] where a structured error is wanted.
    pub fn new(spec: NetworkSpec) -> Self {
        Self::try_new(spec).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds a network from its specification, rejecting inconsistent
    /// specs instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] for a degenerate config or fabric, an illegal
    /// shortcut set (out-of-range endpoint, self-loop, or more than one
    /// inbound or outbound shortcut per router), shortcuts on an XY-routed
    /// network, a fault plan naming resources outside the network, RF
    /// multicast without an [`McConfig`], or RF broadcast multicast on a
    /// non-mesh fabric (the broadcast medium spans the mesh only).
    pub fn try_new(spec: NetworkSpec) -> Result<Self, SimError> {
        spec.config.validate()?;
        let fabric = spec.fabric;
        fabric.validate()?;
        let dims = fabric.dims();
        let n = dims.nodes();
        let vcs = spec.config.total_vcs();
        let depth = spec.config.buffer_depth as u32;
        let max_base = fabric.max_base_slots();
        let max_ports = max_base + 2;
        assert!(
            max_ports <= crate::router::MAX_ROUTER_PORTS,
            "fabric {fabric} needs {max_ports} ports per router, \
             above the engine cap of {}",
            crate::router::MAX_ROUTER_PORTS
        );
        let base_ports: Vec<u8> = (0..n).map(|r| fabric.base_slot_count(r) as u8).collect();

        if spec.routing == RoutingKind::Xy && !spec.shortcuts.is_empty() {
            return Err(SimError::ShortcutsOnXy);
        }
        check_shortcut_set(&spec.shortcuts, n)?;
        if !spec.shortcuts.is_empty() && spec.config.vcs_adaptive == 0 {
            // Escape VCs never ride RF, so a shortcut-bearing network needs
            // at least one adaptive VC (vcs_escape < total_vcs).
            return Err(SimError::Config(crate::error::ConfigError::NoAdaptiveVcs));
        }
        validate_fault_plan(&spec.faults, &fabric)?;
        if matches!(spec.multicast, MulticastMode::Rf) {
            if spec.mc.is_none() {
                return Err(SimError::MissingMcConfig);
            }
            if !fabric.is_mesh() {
                return Err(SimError::RfMulticastNeedsMesh);
            }
        }
        let mut rf_out: Vec<Option<NodeId>> = vec![None; n];
        let mut rf_in: Vec<Option<NodeId>> = vec![None; n];
        for s in &spec.shortcuts {
            rf_out[s.src] = Some(s.dst);
            rf_in[s.dst] = Some(s.src);
        }

        // Precompute the base-route port table for non-mesh fabrics; the
        // mesh keeps deriving its base route with the literal XY
        // computation (no table lookup on the escape path).
        let base_table = (!fabric.is_mesh()).then(|| fabric.base_port_table());

        let (port_table, sp_dist) = match spec.routing {
            RoutingKind::Xy => (None, None),
            RoutingKind::ShortestPath => {
                let (pt, dm) = PortTables::shortest_path(&fabric, &spec.shortcuts).into_parts();
                (Some(pt), Some(dm))
            }
        };

        // Wire up routers, sized to each router's own degree.
        let mut routers = Vec::with_capacity(n);
        for r in 0..n {
            let base = base_ports[r] as usize;
            let mut inputs = vec![InputPort::default(); base + 2];
            let mut outputs = vec![OutputPort::default(); base + 2];
            for slot in 0..base {
                if let Some(nb) = fabric.port_neighbor(r, slot as u8) {
                    let back = fabric
                        .port_between(nb, r)
                        .expect("base fabric links are bidirectional");
                    inputs[slot] = InputPort::new(vcs, depth, Some((nb, back)));
                    outputs[slot].exists = true;
                    outputs[slot].target = Some((nb, back));
                    outputs[slot].capacity = 1;
                    outputs[slot].vcs = vec![Default::default(); vcs];
                    for v in &mut outputs[slot].vcs {
                        v.credits = depth;
                    }
                }
            }
            // Local port: injection in, ejection out.
            let local = base;
            inputs[local] = InputPort::new(vcs, depth, None);
            outputs[local].exists = true;
            outputs[local].target = None;
            outputs[local].capacity = spec.config.local_port_speedup;
            outputs[local].vcs = vec![Default::default(); vcs];
            // RF port.
            let rf = base + 1;
            if let Some(dst) = rf_out[r] {
                let hops = fabric.base_route_len(r, dst);
                outputs[rf].exists = true;
                outputs[rf].target = Some((dst, base_ports[dst] + 1));
                outputs[rf].shortcut_hops = hops;
                match spec.wire_shortcut_cycles_per_hop {
                    Some(cph) => {
                        // Conventional buffered wire: multi-cycle traversal,
                        // same width as the mesh links it replaces.
                        outputs[rf].capacity = 1;
                        outputs[rf].is_wire = true;
                        outputs[rf].extra_latency =
                            ((cph * hops as f64).ceil() as u64).saturating_sub(1);
                    }
                    None => {
                        outputs[rf].capacity = spec.config.rf_flits_per_cycle();
                    }
                }
                outputs[rf].vcs = vec![Default::default(); vcs];
                for v in &mut outputs[rf].vcs {
                    v.credits = depth;
                }
            }
            if let Some(src) = rf_in[r] {
                inputs[rf] = InputPort::new(vcs, depth, Some((src, base_ports[src] + 1)));
            }
            routers.push(Router {
                inputs,
                outputs,
                injector: Injector::new(vcs, depth),
            });
        }

        let (mc_queues, vct_table) = match &spec.multicast {
            MulticastMode::Rf => {
                let mc = spec.mc.as_ref().expect("checked above");
                mc.validate(n);
                (vec![VecDeque::new(); mc.transmitters.len()], None)
            }
            MulticastMode::Vct(cfg) => (Vec::new(), Some(VctTable::new(*cfg))),
            MulticastMode::AsUnicasts => (Vec::new(), None),
        };

        let max_dist = fabric.max_route_len().max(1) as usize;
        let mut stats = RunStats::with_ports(n, max_dist, max_ports);
        if spec.config.collect_pair_counts {
            stats.pair_counts = vec![0; n * n];
        }
        // The sharded sweep: VCT multicast allocates tree-child packets
        // mid-sweep, which needs exclusive packet-table access, so it
        // falls back to the serial engine.
        let sweep_threads = if matches!(spec.multicast, MulticastMode::Vct(_)) {
            1
        } else {
            spec.config.threads.clamp(1, n)
        };
        let pool = (sweep_threads > 1).then(|| rfnoc_parallel::WorkerPool::new(sweep_threads));
        // Per-shard sweep timing is only worth the clock reads when the run
        // ledger will consume it, and only the sharded engine reports it.
        let time_sweeps = spec.config.ledger.is_some() && sweep_threads > 1;
        let shard_bufs = (0..sweep_threads)
            .map(|_| {
                let mut b = sweep::ShardBuf::new(max_ports);
                b.timed = time_sweeps;
                b
            })
            .collect();
        Ok(Self {
            dims,
            fabric,
            base_ports,
            max_ports,
            base_table,
            routing: spec.routing,
            port_table,
            routers,
            packets: Vec::new(),
            parents: Vec::new(),
            multicast: spec.multicast,
            mc: spec.mc,
            mc_queues,
            mc_current: None,
            vct_table,
            stats,
            cycle: 0,
            measured_outstanding: 0,
            counting: false,
            mc_enqueues: Vec::new(),
            pending_inj: Vec::new(),
            sweep_threads,
            shard_bufs,
            pool,
            sp_dist,
            detour_dist: None,
            telemetry: spec
                .config
                .telemetry
                .map(|t| Box::new(telemetry::TelemetryState::new(t, n, max_ports))),
            recovery: spec.config.recovery.map(|r| Box::new(faults::RecoveryState::new(r))),
            ledger: spec
                .config
                .ledger
                .map(|c| Box::new(ledger::LedgerState::new(c, sweep_threads))),
            reconfig: ReconfigState::Idle,
            reconfigurations: 0,
            active_shortcuts: spec.shortcuts,
            pending_target: None,
            failed_rf_tx: vec![false; n],
            link_failed: vec![false; n * max_base],
            mesh_link_failures: 0,
            escape_table: None,
            escape_dist: None,
            faults: spec.faults,
            last_progress: 0,
            last_completion: 0,
            active_epoch: 1,
            active_stamp: vec![0; n],
            route_epoch: 1,
            config: spec.config,
        })
    }
}

/// Checks every scheduled fault event against the network's topology.
fn validate_fault_plan(plan: &FaultPlan, fabric: &FabricSpec) -> Result<(), SimError> {
    let n = fabric.nodes();
    let invalid = |cycle: u64, reason: String| SimError::InvalidFault { cycle, reason };
    for &(cycle, event) in plan.events() {
        match event {
            FaultEvent::ShortcutDown { src } => {
                if src >= n {
                    return Err(invalid(cycle, format!("router {src} out of range")));
                }
            }
            FaultEvent::BandDown => {}
            FaultEvent::ShortcutUp { src, dst } => {
                if src >= n || dst >= n {
                    return Err(invalid(cycle, format!("shortcut {src} -> {dst} out of range")));
                }
                if src == dst {
                    return Err(invalid(cycle, format!("shortcut at router {src} is a self-loop")));
                }
            }
            FaultEvent::MeshLinkDown { a, b } | FaultEvent::MeshLinkUp { a, b } => {
                if a >= n || b >= n || fabric.port_between(a, b).is_none() {
                    return Err(invalid(cycle, format!("no base link between {a} and {b}")));
                }
            }
            FaultEvent::LinkGlitch { a, b } => {
                if a >= n || b >= n || a == b {
                    return Err(invalid(cycle, format!("no link from {a} to {b}")));
                }
            }
        }
    }
    Ok(())
}
