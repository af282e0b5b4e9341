//! The cycle engine: arrivals, route computation / VC allocation,
//! switch allocation, flit movement, and completion bookkeeping.
//!
//! The per-router pipeline stages live on [`Sweep`] — one shard's view of
//! the network — so the same code serves the serial engine (one shard,
//! direct telemetry) and the sharded engine (`SimConfig::threads` worker
//! shards, buffered side effects replayed in shard order). `Network`
//! keeps the orchestration: shard construction, worker dispatch, the
//! deterministic replay, and the outbox application.

#[allow(clippy::wildcard_imports)]
use super::*;
use std::sync::atomic::Ordering::Relaxed;
use sweep::{Completion, PacketAccess, Sweep, SweepShared, TelSink};

impl Network {

    /// Runs the workload for the configured warmup + measurement window,
    /// then drains measured packets (up to the drain limit), and returns
    /// the collected statistics.
    ///
    /// While measured packets are outstanding a forward-progress watchdog
    /// ([`SimConfig::watchdog_cycles`]) monitors the run: if no switch
    /// grant happens anywhere for a full watchdog window (deadlock), or no
    /// measured message completes for four windows despite grants
    /// (livelock), the run stops early with a structured
    /// [`crate::HealthReport`] in [`RunStats::health`] instead of spinning
    /// silently to the drain limit.
    pub fn run(&mut self, workload: &mut dyn Workload) -> RunStats {
        let horizon = self.config.warmup_cycles + self.config.measure_cycles;
        let limit = horizon + self.config.drain_cycles;
        let watchdog = self.config.watchdog_cycles;
        let mut buf = Vec::new();
        while self.cycle < horizon || (self.measured_outstanding > 0 && self.cycle < limit) {
            buf.clear();
            workload.messages_at(self.cycle, &mut buf);
            for spec in buf.drain(..) {
                self.inject_message(spec);
            }
            self.step();
            if watchdog > 0 && self.measured_outstanding > 0 {
                let stalled = self.cycle.saturating_sub(self.last_progress);
                let starved = self.cycle.saturating_sub(self.last_completion);
                if stalled >= watchdog || starved >= watchdog.saturating_mul(4) {
                    self.stats.health =
                        Some(self.health_report(stalled, starved, stalled >= watchdog));
                    self.tel_event(telemetry::TimelineEventKind::WatchdogFired);
                    break;
                }
            }
        }
        self.stats.saturated = self.measured_outstanding > 0;
        self.stats.end_cycle = self.cycle;
        self.stats.activity.cycles =
            self.cycle.saturating_sub(self.config.warmup_cycles).max(1);
        self.stats.finalize();
        // Telemetry closes its partial final interval and hands the report
        // to the outgoing stats before the move below; recovery tracking
        // drains its per-fault records the same way.
        self.finish_telemetry();
        self.finish_recovery();
        self.finish_ledger();
        // Return the accumulated statistics by move — the per-message
        // latency and per-router activity vectors can run to megabytes
        // and were previously cloned once per experiment. The network
        // keeps a fresh (zeroed) collector, so a subsequent `run` starts
        // a new measurement instead of accumulating; the watchdog report
        // stays readable through [`Network::health`].
        let n = self.routers.len();
        let max_dist = self.stats.distance_histogram.len().saturating_sub(1);
        let mut fresh = RunStats::with_ports(n, max_dist, self.max_ports);
        if self.config.collect_pair_counts {
            fresh.pair_counts = vec![0; n * n];
        }
        fresh.health = self.stats.health;
        std::mem::replace(&mut self.stats, fresh)
    }

    /// Records the completion of one measured message from source `src`
    /// created at `created` whose final flit landed at `at` — the single
    /// site for the latency push, per-source count, outstanding-count
    /// decrement, and watchdog completion stamp.
    fn record_completion(&mut self, src: u32, created: u64, at: u64) {
        let latency = at.saturating_sub(created);
        self.stats.completed_messages += 1;
        self.stats.message_latency_sum += latency;
        self.stats.message_latencies.push(latency.min(u32::MAX as u64) as u32);
        self.stats.per_source[src as usize] += 1;
        self.measured_outstanding -= 1;
        self.last_completion = at;
        if self.recovery.is_some() {
            self.recovery_note_completion(latency, at);
        }
    }

    pub(super) fn complete_parent_part(&mut self, parent: u32, covered: u32, at: u64) {
        let p = &mut self.parents[parent as usize];
        assert!(p.remaining >= covered, "multicast over-completion");
        p.remaining -= covered;
        if p.remaining == 0 && p.measured {
            let (src, created) = (p.src, p.created);
            self.record_completion(src, created, at);
        }
    }

    /// Advances the simulation by one cycle.
    pub fn step(&mut self) {
        self.counting = self.cycle >= self.config.warmup_cycles;
        self.step_faults();
        self.step_reconfig();
        self.apply_pending_injections();
        self.step_mc_engine();
        self.step_routers();
        self.apply_outboxes();
        self.cycle += 1;
        self.step_telemetry();
        self.step_ledger();
    }

    pub(super) fn step_routers(&mut self) {
        // Active-router scheduling: visit only routers with (possible)
        // work. `active_stamp[r] == e` means "visit r in sweep e"; each
        // shard scans its slice of the stamp vector in ascending router id
        // (the push order into the delivery/credit outboxes depends on
        // visit order, and downstream arrival interleaving is
        // order-sensitive) and a visited router re-stamps itself for the
        // next sweep while it is non-quiescent. Skipping a quiescent
        // router is bit-identical to visiting it because a visit to one is
        // a pure no-op (the VA round-robin pointer is derived from the
        // cycle count, not stored and rotated). The O(n) stamp scan is
        // deliberate: it is a dense sequential read, far cheaper than
        // maintaining a sorted worklist.
        let e = self.active_epoch;
        self.active_epoch = e + 1;
        let n = self.routers.len();
        let shared = SweepShared {
            cycle: self.cycle,
            counting: self.counting,
            epoch: e,
            config: &self.config,
            dims: self.dims,
            fabric: self.fabric,
            base_ports: &self.base_ports,
            max_ports: self.max_ports,
            base_table: self.base_table.as_deref(),
            port_table: self.port_table.as_deref(),
            sp_dist: self.sp_dist.as_deref(),
            escape_table: self.escape_table.as_deref(),
            cluster_of: self.mc.as_ref().map(|mc| mc.cluster_of.as_slice()),
            rf_accepting: self.rf_accepting(),
            injection_stalled: self.injection_stalled(),
            route_epoch: self.route_epoch,
        };
        // Sharded sweep-phase wall time, for the ledger's barrier-wait
        // attribution; stays `None` on the serial path and when the
        // ledger is off.
        let mut sweep_wall_ns: Option<u64> = None;
        if self.sweep_threads <= 1 {
            // Serial engine: one shard with exclusive packet access (tree
            // multicast may allocate children mid-sweep) and a direct
            // telemetry sink — the pre-sharding cost profile.
            let mut shard = Sweep {
                sh: &shared,
                base: 0,
                routers: &mut self.routers,
                stamps: &mut self.active_stamp,
                router_bytes: &mut self.stats.activity.router_bytes,
                port_flits: &mut self.stats.port_flits,
                per_dest: &mut self.stats.per_dest,
                packets: PacketAccess::Owned(&mut self.packets),
                tel: match self.telemetry.as_deref_mut() {
                    Some(t) => TelSink::Direct(t),
                    None => TelSink::Off,
                },
                buf: &mut self.shard_bufs[0],
            };
            shard.run_shard();
        } else {
            // Sharded engine: split the router array (and every
            // router-indexed slice) into contiguous per-shard views, hand
            // one to each pool worker behind a take-once mutex, and run
            // the sweep between the pool's cycle-boundary barriers. All
            // side effects land in the shard buffers for ordered replay.
            let tel_on = self.telemetry.is_some();
            let mut tasks: Vec<std::sync::Mutex<Option<Sweep<'_>>>> =
                Vec::with_capacity(self.sweep_threads);
            let mut routers = &mut self.routers[..];
            let mut stamps = &mut self.active_stamp[..];
            let mut rbytes = &mut self.stats.activity.router_bytes[..];
            let mut pflits = &mut self.stats.port_flits[..];
            let mut pdest = &mut self.stats.per_dest[..];
            let mut bufs = &mut self.shard_bufs[..];
            let packets = &self.packets[..];
            for (start, end) in sweep::shard_ranges(n, self.sweep_threads) {
                let len = end - start;
                let (r0, r1) = routers.split_at_mut(len);
                routers = r1;
                let (s0, s1) = stamps.split_at_mut(len);
                stamps = s1;
                let (rb0, rb1) = rbytes.split_at_mut(len);
                rbytes = rb1;
                let (pf0, pf1) = pflits.split_at_mut(len * self.max_ports);
                pflits = pf1;
                let (pd0, pd1) = pdest.split_at_mut(len);
                pdest = pd1;
                let (b0, b1) = bufs.split_at_mut(1);
                bufs = b1;
                tasks.push(std::sync::Mutex::new(Some(Sweep {
                    sh: &shared,
                    base: start,
                    routers: r0,
                    stamps: s0,
                    router_bytes: rb0,
                    port_flits: pf0,
                    per_dest: pd0,
                    packets: PacketAccess::Shared(packets),
                    tel: if tel_on { TelSink::Buffer } else { TelSink::Off },
                    buf: &mut b0[0],
                })));
            }
            let tasks = &tasks;
            // Wall-clock the whole sweep phase only when the ledger will
            // consume it (per-shard barrier wait = this total minus the
            // shard's own sweep time).
            let t0 = self.ledger.is_some().then(std::time::Instant::now);
            self.pool
                .as_ref()
                .expect("sharded engine builds its worker pool")
                .scoped_run(&|i| {
                    let mut shard = tasks[i]
                        .lock()
                        .expect("shard task mutex")
                        .take()
                        .expect("one shard task per worker");
                    shard.run_shard();
                });
            sweep_wall_ns = t0.map(|t| t.elapsed().as_nanos() as u64);
        }
        if self.ledger.is_some() {
            self.ledger_note_sweep(sweep_wall_ns);
        }
        self.replay_shards();
    }

    /// Replays every shard buffer in shard order — ascending router order,
    /// the serial engine's visit order — so telemetry records,
    /// statistics, and message completions land in the bit-identical
    /// sequence the single-threaded engine produces. The serial path uses
    /// the same replay for its statistics deltas and completions (its
    /// telemetry applied directly during the sweep), keeping the two
    /// engines on one code path.
    fn replay_shards(&mut self) {
        let now = self.cycle;
        for si in 0..self.shard_bufs.len() {
            if let Some(t) = self.telemetry.as_deref_mut() {
                for op in self.shard_bufs[si].tel_ops.drain(..) {
                    t.apply_op(now, op);
                }
            } else {
                self.shard_bufs[si].tel_ops.clear();
            }
            {
                let b = &mut self.shard_bufs[si];
                self.stats.ejected_flits += std::mem::take(&mut b.ejected_flits);
                self.stats.flit_latency_sum += std::mem::take(&mut b.flit_latency_sum);
                self.stats.hops_sum += std::mem::take(&mut b.hops_sum);
                self.stats.hop_packets += std::mem::take(&mut b.hop_packets);
                self.stats.activity.link_byte_hops += std::mem::take(&mut b.link_byte_hops);
                self.stats.activity.rf_bytes += std::mem::take(&mut b.rf_bytes);
            }
            if std::mem::take(&mut self.shard_bufs[si].progress) {
                self.last_progress = now;
            }
            for i in 0..self.shard_bufs[si].completions.len() {
                match self.shard_bufs[si].completions[i] {
                    Completion::Unicast { src, created, at } => {
                        self.record_completion(src, created, at);
                    }
                    Completion::ParentPart { parent, covered, at } => {
                        self.complete_parent_part(parent, covered, at);
                    }
                }
            }
            self.shard_bufs[si].completions.clear();
        }
    }

    /// Marks router `r` for a visit on the next `step_routers` sweep.
    /// Call sites are the points where work can appear at a quiescent
    /// router: flit deliveries and message injections. Credit returns
    /// alone never require a mark — VA/SA only act on occupied VCs, and
    /// any packet waiting for those credits keeps its holder non-quiescent.
    #[inline]
    pub(super) fn mark_active(&mut self, r: usize) {
        self.active_stamp[r] = self.active_epoch;
    }

    /// Marks every router active — cheap insurance around rare global
    /// events (fault arrivals, RF retuning) whose reach is hard to bound
    /// locally. Visits to routers that turn out to be idle are no-ops.
    pub(super) fn mark_all_active(&mut self) {
        for r in 0..self.routers.len() {
            self.mark_active(r);
        }
    }

    pub(super) fn apply_outboxes(&mut self) {
        // Indexed drains instead of `mem::take`: the outbox vectors keep
        // their capacity across cycles, so the steady state allocates
        // nothing here. A delivered flit is new work for the target
        // router, so it is marked active; credit returns and multicast
        // enqueues never wake a quiescent router on their own.
        //
        // The network-level `mc_enqueues` (pushed by the serial injection
        // phase) drain before the shard buffers' sweep-time pushes,
        // preserving the serial engine's append order.
        for i in 0..self.mc_enqueues.len() {
            let (cluster, parent) = self.mc_enqueues[i];
            self.mc_queues[cluster].push_back(parent);
        }
        self.mc_enqueues.clear();
        for si in 0..self.shard_bufs.len() {
            for i in 0..self.shard_bufs[si].deliveries.len() {
                let (router, port, vc, flit, arrival) = self.shard_bufs[si].deliveries[i];
                self.routers[router].inputs[port as usize]
                    .arrivals
                    .push_back((arrival, vc, flit));
                self.mark_active(router);
            }
            self.shard_bufs[si].deliveries.clear();
            for i in 0..self.shard_bufs[si].credit_returns.len() {
                let (router, port, vc) = self.shard_bufs[si].credit_returns[i];
                self.routers[router].outputs[port as usize].vcs[vc as usize].credits += 1;
            }
            self.shard_bufs[si].credit_returns.clear();
            for i in 0..self.shard_bufs[si].mc_enqueues.len() {
                let (cluster, parent) = self.shard_bufs[si].mc_enqueues[i];
                self.mc_queues[cluster].push_back(parent);
            }
            self.shard_bufs[si].mc_enqueues.clear();
        }
    }
}

impl Sweep<'_> {

    pub(super) fn deliver_arrivals(&mut self, r: usize) {
        let rl = r - self.base;
        let now = self.sh.cycle;
        for port in 0..self.sh.num_ports(r) {
            loop {
                let front = self.routers[rl].inputs[port].arrivals.front().copied();
                match front {
                    Some((at, vc, flit)) if at <= now => {
                        self.routers[rl].inputs[port].arrivals.pop_front();
                        if flit.is_head() {
                            self.routers[rl].claim_vc(port, vc, flit.packet);
                        }
                        self.routers[rl].inputs[port].push(vc as usize, flit);
                        if self.tel_on() {
                            self.tel(sweep::TelOp::BufferPush(r as u32));
                            // Tree-multicast packets fork mid-network;
                            // only unicast packets (RF-multicast carriers
                            // included) get hop chains.
                            if flit.is_head()
                                && matches!(
                                    self.packets.get(flit.packet).dest,
                                    PacketDest::Unicast(_)
                                )
                            {
                                self.tel(sweep::TelOp::HopArrived {
                                    packet: flit.packet,
                                    r: r as u32,
                                    port: port as u8,
                                    at,
                                });
                            }
                        }
                    }
                    _ => break,
                }
            }
        }
    }

    /// Route computation + VC allocation for head flits.
    pub(super) fn step_va(&mut self, r: usize) {
        let rl = r - self.base;
        let now = self.sh.cycle;
        let escape_vcs = self.sh.config.vcs_escape;
        let depth = self.sh.config.buffer_depth as u32;
        // The VA port round-robin pointer advances once per cycle on every
        // router from an initial offset of `r`, so it is a pure function
        // of (router, cycle). Deriving it here instead of storing and
        // rotating a field keeps idle-router visits side-effect free.
        let np = self.sh.num_ports(r);
        let rr_base = ((r as u64 + now) % np as u64) as usize;
        // Failed attempts this visit, reported to telemetry as one sum.
        let mut stalls = 0u64;
        for port_off in 0..np {
            let port = (rr_base + port_off) % np;
            if !self.routers[rl].inputs[port].exists {
                continue;
            }
            // VA never claims or releases VCs, so `occupied` is stable
            // across this loop and can be walked by index without cloning.
            let occ_len = self.routers[rl].inputs[port].occupied.len();
            for oi in 0..occ_len {
                let vci = self.routers[rl].inputs[port].occupied[oi] as usize;
                let (needs_va, front, packet_id, cached) = {
                    let p = &self.routers[rl].inputs[port];
                    let v = &p.vcs[vci];
                    let needs = !v.allocated
                        && (!v.mc_routed || v.mc_branches.iter().any(|b| b.out_vc.is_none()));
                    let cached = v.route_epoch == self.sh.route_epoch;
                    (needs, p.front(vci).copied(), v.cur_packet, cached)
                };
                if !needs_va {
                    continue;
                }
                let Some(flit) = front else { continue };
                if !flit.is_head() || flit.eligible > now {
                    continue;
                }
                let packet_id = packet_id.expect("claimed VC has a packet");
                if !cached {
                    match self.packets.get(packet_id).dest {
                        PacketDest::Unicast(dest) => self.fill_route(r, port, vci, packet_id, dest),
                        PacketDest::Tree(set) => {
                            let stalled =
                                self.va_tree(r, port, vci, packet_id, set, escape_vcs, depth, now);
                            stalls += u64::from(stalled);
                            continue;
                        }
                    }
                }
                let stalled = self.va_unicast(r, port, vci, packet_id, escape_vcs, depth, now);
                stalls += u64::from(stalled);
            }
        }
        if stalls > 0 && self.tel_on() {
            self.tel(sweep::TelOp::VaStalls(stalls));
        }
    }

    /// Fills the route cache of the unicast head at `(port, vci)` (see
    /// `VcState::route_epoch`): its destination, its escape port, and the
    /// port its adaptive-class attempts target. A `mesh_only` packet keeps
    /// to the escape route; without a port table the two ports coincide.
    fn fill_route(&mut self, r: usize, port: usize, vci: usize, packet: u32, dest: NodeId) {
        let escape = self.sh.escape_port(r, dest);
        let routed = if self.sh.port_table.is_none()
            || self.packets.get(packet).mesh_only.load(Relaxed)
        {
            escape
        } else {
            self.sh.route_port(r, dest)
        };
        let v = &mut self.routers[r - self.base].inputs[port].vcs[vci];
        v.route_epoch = self.sh.route_epoch;
        v.route_dest = dest as u32;
        v.route_escape = escape;
        v.route_port = routed;
    }

    /// VC allocation for the unicast head at `(port, vci)`, whose route
    /// cache is filled. Returns true when the attempt failed.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn va_unicast(
        &mut self,
        r: usize,
        port: usize,
        vci: usize,
        packet: u32,
        escape_vcs: usize,
        depth: u32,
        now: u64,
    ) -> bool {
        let rl = r - self.base;
        let total = self.sh.config.total_vcs();
        let (dest, esc, routed, blocked) = {
            let v = &self.routers[rl].inputs[port].vcs[vci];
            (v.route_dest as usize, v.route_escape as usize, v.route_port as usize, v.va_blocked)
        };
        let outputs = &mut self.routers[rl].outputs;
        let grant = if vci < escape_vcs {
            alloc_out_vc(outputs, esc, 0..escape_vcs, packet, depth).map(|ov| (esc, ov))
        } else {
            let rf = self.sh.rf_port(r);
            // A draining reconfiguration closes the RF ports to new
            // packets; route over the mesh instead.
            let out = if routed == rf && !self.sh.rf_accepting { esc } else { routed };
            let mut grant =
                alloc_out_vc(outputs, out, escape_vcs..total, packet, depth).map(|ov| (out, ov));
            // HPCA-2008 contention avoidance: a packet blocked on a busy
            // shortcut may adaptively take the mesh route instead, but only
            // once the wait already exceeds the estimated extra cost of the
            // mesh detour (≈3 cycles per extra hop); it then commits to XY
            // so the detour cannot loop back.
            if grant.is_none() && out == rf && self.sh.config.adaptive_shortcut_routing {
                let extra_hops = self
                    .sh
                    .sp_dist
                    .map(|dm| {
                        let n = self.sh.dims.nodes();
                        self.sh.fabric.base_route_len(r, dest).saturating_sub(dm[r * n + dest])
                    })
                    .unwrap_or(0);
                if blocked >= 3 * extra_hops {
                    grant = alloc_out_vc(outputs, esc, escape_vcs..total, packet, depth)
                        .map(|ov| (esc, ov));
                    if grant.is_some() {
                        self.packets.get(packet).mesh_only.store(true, Relaxed);
                    }
                }
            }
            grant.or_else(|| {
                alloc_out_vc(outputs, esc, 0..escape_vcs, packet, depth).map(|ov| (esc, ov))
            })
        };
        let p = &mut self.routers[rl].inputs[port];
        match grant {
            Some((out, ovc)) => {
                let v = &mut p.vcs[vci];
                v.allocated = true;
                v.out_port = out as u8;
                v.out_vc = ovc;
                v.va_blocked = 0;
                if let Some(f) = p.front_mut(vci) {
                    f.eligible = now + 1;
                }
                if self.tel_on() {
                    self.tel(sweep::TelOp::HopVa { packet });
                }
                false
            }
            None => {
                p.vcs[vci].va_blocked += 1;
                true
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub(super) fn va_tree(
        &mut self,
        r: usize,
        port: usize,
        vci: usize,
        packet: u32,
        set: DestSet,
        escape_vcs: usize,
        depth: u32,
        now: u64,
    ) -> bool {
        let rl = r - self.base;
        let total = self.sh.config.total_vcs();
        // Compute the base-route tree partition once.
        if !self.routers[rl].inputs[port].vcs[vci].mc_routed {
            let (groups, glen) = partition_tree(
                r,
                self.sh.local_port(r) as u8,
                |d| self.sh.base_port_toward(r, d),
                &set,
            );
            debug_assert!(glen > 0, "tree packet with no progress");
            // Child packets first (needs `&mut self`), then the branch
            // list is rebuilt in place so its capacity is reused. A
            // single-group tree keeps forwarding the original packet.
            let mut children: [u32; MAX_ROUTER_PORTS] = [packet; MAX_ROUTER_PORTS];
            if glen > 1 {
                let (created, measured, flits, bytes, parent, src) = {
                    let p = self.packets.get(packet);
                    (p.created, p.measured, p.flits, p.bytes, p.parent, p.src)
                };
                for (g, child) in children.iter_mut().enumerate().take(glen) {
                    *child = self.new_packet(PacketInfo::new(
                        PacketDest::Tree(groups[g].1),
                        src,
                        flits,
                        bytes,
                        created,
                        measured,
                        parent,
                        false,
                    ));
                }
            }
            let v = &mut self.routers[rl].inputs[port].vcs[vci];
            v.mc_branches.clear();
            for g in 0..glen {
                v.mc_branches.push(McBranch {
                    port: groups[g].0,
                    out_vc: None,
                    packet: children[g],
                });
            }
            v.mc_routed = true;
        }
        // Allocate remaining branches (adaptive class first, escape
        // fallback — tree hops follow the base route so escape semantics
        // hold).
        let branch_count = self.routers[rl].inputs[port].vcs[vci].mc_branches.len();
        let had_allocation = self.routers[rl].inputs[port].vcs[vci]
            .mc_branches
            .iter()
            .any(|b| b.out_vc.is_some());
        let mut any_allocated = false;
        for b in 0..branch_count {
            let branch = self.routers[rl].inputs[port].vcs[vci].mc_branches[b];
            if branch.out_vc.is_some() {
                continue;
            }
            let out = branch.port as usize;
            let grant =
                alloc_out_vc(&mut self.routers[rl].outputs, out, escape_vcs..total, branch.packet, depth)
                    .or_else(|| {
                        alloc_out_vc(&mut self.routers[rl].outputs, out, 0..escape_vcs, branch.packet, depth)
                    });
            if let Some(ovc) = grant {
                self.routers[rl].inputs[port].vcs[vci].mc_branches[b].out_vc = Some(ovc);
                any_allocated = true;
            }
        }
        // Release the head flit into switch allocation on the *first*
        // successful branch allocation only.
        if any_allocated && !had_allocation {
            if let Some(f) = self.routers[rl].inputs[port].front_mut(vci) {
                if f.is_head() && f.eligible <= now {
                    f.eligible = now + 1;
                }
            }
        }
        !any_allocated && !had_allocation
    }

    /// Switch allocation + traversal: grant flits to output ports.
    pub(super) fn step_sa(&mut self, r: usize) {
        let rl = r - self.base;
        let now = self.sh.cycle;
        let depth_flits = self.sh.config.link_width.bytes() as u64;
        // Collect requests per output port.
        for reqs in &mut self.buf.sa_requests {
            reqs.clear();
        }
        let np = self.sh.num_ports(r);
        for port in 0..np {
            if !self.routers[rl].inputs[port].exists {
                continue;
            }
            // Request collection only reads router state; `occupied` is
            // stable here (grants, which release VCs, come afterwards).
            let occ_len = self.routers[rl].inputs[port].occupied.len();
            for oi in 0..occ_len {
                let vc = self.routers[rl].inputs[port].occupied[oi];
                let p = &self.routers[rl].inputs[port];
                let Some(front) = p.front(vc as usize) else { continue };
                let v = &p.vcs[vc as usize];
                if front.eligible > now {
                    continue;
                }
                if v.allocated {
                    self.buf.sa_requests[v.out_port as usize].push((port as u8, vc, -1));
                } else {
                    for (bi, b) in v.mc_branches.iter().enumerate() {
                        if b.out_vc.is_some() && v.mc_front_sent & (1 << bi) == 0 {
                            self.buf.sa_requests[b.port as usize].push((port as u8, vc, bi as i8));
                        }
                    }
                }
            }
        }
        let mut used_input: [Option<(u8, u16)>; MAX_ROUTER_PORTS] = [None; MAX_ROUTER_PORTS];
        for out in 0..np {
            if !self.routers[rl].outputs[out].exists {
                continue;
            }
            // `try_grant` never touches `sa_requests`, so the request list
            // can be walked by index — no take/put-back churn.
            let reqs_len = self.buf.sa_requests[out].len();
            if reqs_len == 0 {
                continue;
            }
            let mut budget = self.routers[rl].outputs[out].capacity;
            let start = self.routers[rl].outputs[out].rr % reqs_len;
            for i in 0..reqs_len {
                if budget == 0 {
                    break;
                }
                let (in_port, vc, branch) = self.buf.sa_requests[out][(start + i) % reqs_len];
                let ip = in_port as usize;
                // One buffer read per input port per cycle, except multicast
                // fanout of the same front flit.
                if let Some(used) = used_input[ip] {
                    if used != (in_port, vc) || branch < 0 {
                        continue;
                    }
                }
                if self.try_grant(r, ip, vc as usize, out, branch, now, depth_flits) {
                    used_input[ip] = Some((in_port, vc));
                    budget -= 1;
                    self.routers[rl].outputs[out].rr =
                        self.routers[rl].outputs[out].rr.wrapping_add(1);
                    // A 16B RF channel drains several buffered narrow flits
                    // of the same packet in one cycle (burst drain).
                    while budget > 0
                        && branch < 0
                        && self.try_grant(r, ip, vc as usize, out, branch, now, depth_flits)
                    {
                        budget -= 1;
                    }
                }
            }
            if self.tel_on() {
                // Requests left ungranted this cycle lost switch
                // arbitration (to competition, capacity, or credits).
                let granted = (self.routers[rl].outputs[out].capacity - budget) as u64;
                self.tel(sweep::TelOp::SaStalls((reqs_len as u64).saturating_sub(granted)));
            }
        }
        // `try_grant` counts credit stalls (telemetry on only); report the
        // visit's sum once.
        if self.buf.credit_stalls > 0 {
            let stalls = std::mem::take(&mut self.buf.credit_stalls);
            self.tel(sweep::TelOp::CreditStalls(stalls));
        }
    }

    /// Attempts one switch-allocation grant. Returns true on success.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn try_grant(
        &mut self,
        r: usize,
        port: usize,
        vci: usize,
        out: usize,
        branch: i8,
        now: u64,
        width_bytes: u64,
    ) -> bool {
        let rl = r - self.base;
        let is_ejection = self.routers[rl].outputs[out].target.is_none();
        let (flit, out_vc, sent_packet, is_mc, pop) = {
            let p = &self.routers[rl].inputs[port];
            let Some(&front) = p.front(vci) else { return false };
            let v = &p.vcs[vci];
            if front.eligible > now {
                return false;
            }
            if branch < 0 {
                (front, v.out_vc, front.packet, false, true)
            } else {
                let b = v.mc_branches[branch as usize];
                let Some(ovc) = b.out_vc else { return false };
                (front, ovc, b.packet, true, false)
            }
        };
        // Credit check for non-ejection ports.
        if !is_ejection && self.routers[rl].outputs[out].vcs[out_vc as usize].credits == 0 {
            if self.tel_on() {
                self.buf.credit_stalls += 1;
                // Body-flit credit stalls surface in tail serialization;
                // only the head's count toward the hop's credit-wait.
                if !is_mc && flit.is_head() {
                    self.tel(sweep::TelOp::HopCredit { packet: sent_packet });
                }
            }
            return false;
        }
        // Every grant is forward progress for the watchdog.
        self.buf.progress = true;
        let (packet_flits, packet_bytes) = {
            let p = self.packets.get(sent_packet);
            (p.flits, p.bytes)
        };
        let is_tail = flit.is_tail(packet_flits);
        let mut first_grant = false;
        if flit.is_head() {
            let hg = &self.packets.get(sent_packet).head_grants;
            let grants = hg.load(Relaxed);
            first_grant = grants == 0;
            hg.store(grants + 1, Relaxed);
        }
        // Payload bytes carried by this flit (the tail may be partial).
        let flit_bytes = if is_tail {
            (packet_bytes as u64).saturating_sub((packet_flits as u64 - 1) * width_bytes).max(1)
        } else {
            width_bytes
        };

        if self.tel_on() {
            self.tel(sweep::TelOp::Grant {
                r: r as u32,
                out: out as u8,
                is_rf: out == self.sh.rf_port(r),
                packet: sent_packet,
                first: first_grant,
            });
            if !is_mc && flit.is_head() {
                self.tel(sweep::TelOp::HopGranted {
                    packet: sent_packet,
                    r: r as u32,
                    out: out as u8,
                });
            }
        }

        // Statistics (per payload byte; see rfnoc-power's ActivityCounters).
        if self.sh.counting {
            self.router_bytes[rl] += flit_bytes;
            self.port_flits[rl * self.sh.max_ports + out] += 1;
            if !is_ejection {
                if out == self.sh.rf_port(r) {
                    let op = &self.routers[rl].outputs[out];
                    if op.is_wire {
                        // Wire shortcuts burn repeated-wire energy over
                        // their full Manhattan length.
                        self.buf.link_byte_hops += op.shortcut_hops as u64 * flit_bytes;
                    } else {
                        self.buf.rf_bytes += flit_bytes;
                    }
                } else {
                    self.buf.link_byte_hops += flit_bytes;
                }
            }
        }

        // Move the flit.
        if is_ejection {
            if is_tail {
                self.routers[rl].outputs[out].vcs[out_vc as usize].owner = None;
            }
            self.on_flit_ejected(sent_packet, r, now + 2);
        } else {
            let (t_router, t_port) = self.routers[rl].outputs[out].target.expect("non-ejection");
            self.routers[rl].outputs[out].vcs[out_vc as usize].credits -= 1;
            if is_tail {
                self.routers[rl].outputs[out].vcs[out_vc as usize].owner = None;
            }
            let arrival = now + 2 + self.routers[rl].outputs[out].extra_latency;
            let eligible = arrival + if flit.is_head() { 2 } else { 1 };
            self.buf.deliveries.push((
                t_router,
                t_port,
                out_vc,
                Flit { packet: sent_packet, idx: flit.idx, eligible },
                arrival,
            ));
        }

        // Retire the front flit (immediately for unicast; multicast waits
        // for all branches).
        let retire = if is_mc {
            let v = &mut self.routers[rl].inputs[port].vcs[vci];
            v.mc_front_sent |= 1 << (branch as u32);
            let all = v.mc_all_sent();
            if all {
                v.mc_front_sent = 0;
            }
            all
        } else {
            pop
        };
        if retire {
            self.routers[rl].inputs[port].pop(vci);
            if self.tel_on() {
                self.tel(sweep::TelOp::BufferPop(r as u32));
            }
            match self.routers[rl].inputs[port].upstream {
                Some((ur, up)) => self.buf.credit_returns.push((ur, up, vci as u16)),
                None => self.routers[rl].injector.credits[vci] += 1,
            }
            if is_tail {
                self.routers[rl].release_vc(port, vci as u16);
            }
        }
        true
    }
}
