//! Router microarchitecture: virtual channels, input/output ports, and the
//! per-node injection engine.
//!
//! Routers are degree-generic: each allocates `base + 2` port slots, where
//! `base` is the fabric's per-router base-slot count (mesh routers have the
//! four N/S/E/W directions, ring stations two, ring gateways six). Slot
//! `base` is the local port to the attached core/cache/memory element and
//! slot `base + 1` the RF-I transmitter/receiver port (paper §3.2). Absent
//! ports within the base range are marked non-existent and allocate no VC
//! or flit storage.
//!
//! Flit storage is flat: each existing input port owns one `Vec<Flit>` of
//! `vcs × depth` slots, and VC `v` uses slots `v·depth .. (v+1)·depth` as
//! a ring whose `head`/`len` live in its [`VcState`]. Credits cap a VC at
//! `depth` flits, so a ring never grows. A head blocked at VC allocation
//! retries from the route cached in its `VcState` (see
//! [`VcState::route_epoch`]) instead of recomputing it every cycle.

use crate::flit::Flit;
use std::collections::VecDeque;

/// Base slot indices of the plain mesh fabric (matching
/// `rfnoc_topology::fabric::SLOT_*`). Ring-mesh routers use the fabric's
/// own slot numbering instead.
pub(crate) const PORT_N: usize = 0;
pub(crate) const PORT_S: usize = 1;
pub(crate) const PORT_E: usize = 2;
pub(crate) const PORT_W: usize = 3;

/// Compile-time cap on per-router port count, used to size fixed scratch
/// arrays in the allocation loops (multicast partition groups, VA tree
/// children, SA input reservations). Network construction rejects fabrics
/// whose widest router would exceed it.
pub(crate) const MAX_ROUTER_PORTS: usize = 16;

/// A branch of a multicast (VCT) packet at this router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct McBranch {
    /// Output port of this branch.
    pub port: u8,
    /// Allocated downstream VC, when VA has succeeded.
    pub out_vc: Option<u16>,
    /// Packet id carried on this branch (a child packet with the subtree's
    /// destination subset, or the original packet).
    pub packet: u32,
}

/// State of one input virtual channel. Its flits sit in the owning
/// [`InputPort`]'s ring storage: `len` flits from slot `head` onwards,
/// wrapping at the port's depth.
#[derive(Debug, Clone, Default)]
pub(crate) struct VcState {
    /// Ring slot of the front flit (`< depth`).
    pub head: u32,
    /// Buffered flits (`<= depth`).
    pub len: u32,
    /// Packet currently occupying this VC (claimed head → tail).
    pub cur_packet: Option<u32>,
    /// Unicast allocation: output port (valid when `allocated`).
    pub out_port: u8,
    /// Unicast allocation: downstream VC (valid when `allocated`).
    pub out_vc: u16,
    /// Whether VA has completed for the current unicast packet.
    pub allocated: bool,
    /// Multicast branches (empty for unicast packets). When non-empty the
    /// packet replicates: the front flit is copied to every branch before
    /// being retired.
    pub mc_branches: Vec<McBranch>,
    /// Bitmask over `mc_branches` recording which branches the *front* flit
    /// has already been copied to this packet-flit.
    pub mc_front_sent: u32,
    /// Whether the multicast route (partition) has been computed.
    pub mc_routed: bool,
    /// Consecutive cycles the head flit has failed VC allocation (drives
    /// the shortcut contention-avoidance detour).
    pub va_blocked: u32,
    /// Route cache of a unicast head: valid while it equals the network's
    /// route epoch, which every routing-table rewrite bumps; 0 (never a
    /// live epoch) means empty. Filled on the head's first VA attempt at
    /// this hop, so a blocked head's retries read the destination and
    /// both candidate ports from here (`route_port` already reflects the
    /// packet's `mesh_only` flag).
    pub route_epoch: u32,
    /// Cached unicast destination.
    pub route_dest: u32,
    /// Cached escape (base-fabric) output port toward `route_dest`.
    pub route_escape: u8,
    /// Cached adaptive-class output port: the table route, or the escape
    /// port for a `mesh_only` packet or an XY-routed network.
    pub route_port: u8,
}

impl VcState {
    /// Resets allocation state after the tail flit retires.
    pub fn release(&mut self) {
        self.cur_packet = None;
        self.allocated = false;
        self.mc_branches.clear();
        self.mc_front_sent = 0;
        self.mc_routed = false;
        self.va_blocked = 0;
        self.route_epoch = 0;
    }

    /// Whether every multicast branch has received the front flit.
    pub fn mc_all_sent(&self) -> bool {
        !self.mc_branches.is_empty()
            && self.mc_front_sent.count_ones() as usize == self.mc_branches.len()
            && self.mc_branches.iter().all(|b| b.out_vc.is_some())
    }
}

/// One input port: its VCs and their flit rings, pending link
/// deliveries, and the upstream output port to return credits to.
#[derive(Debug, Clone, Default)]
pub(crate) struct InputPort {
    /// Whether this port physically exists on this router.
    pub exists: bool,
    /// Virtual channel state.
    pub vcs: Vec<VcState>,
    /// Ring slots per VC (the VC buffer depth).
    pub depth: u32,
    /// Flit storage: VC `v` owns `flits[v·depth .. (v+1)·depth]`. Empty
    /// on an absent port.
    pub flits: Vec<Flit>,
    /// In-flight flits from the upstream link: `(arrival_cycle, vc, flit)`,
    /// in arrival order.
    pub arrivals: VecDeque<(u64, u16, Flit)>,
    /// Upstream `(router, output port)` to credit on buffer release;
    /// `None` for the local injection port (credited via the injector).
    pub upstream: Option<(usize, u8)>,
    /// Indices of currently claimed VCs (fast scan of active channels).
    pub occupied: Vec<u16>,
}

impl InputPort {
    /// An existing port with `vcs` VCs of `depth` flit slots each, fed by
    /// `upstream` (`None` for the local injection port).
    pub fn new(vcs: usize, depth: u32, upstream: Option<(usize, u8)>) -> Self {
        Self {
            exists: true,
            vcs: vec![VcState::default(); vcs],
            depth,
            flits: vec![Flit { packet: 0, idx: 0, eligible: 0 }; vcs * depth as usize],
            upstream,
            ..Self::default()
        }
    }

    /// The front flit of VC `vc`, if any.
    #[inline]
    pub fn front(&self, vc: usize) -> Option<&Flit> {
        let v = &self.vcs[vc];
        (v.len > 0).then(|| &self.flits[vc * self.depth as usize + v.head as usize])
    }

    /// The front flit of VC `vc`, mutably.
    #[inline]
    pub fn front_mut(&mut self, vc: usize) -> Option<&mut Flit> {
        let v = &self.vcs[vc];
        (v.len > 0).then(|| &mut self.flits[vc * self.depth as usize + v.head as usize])
    }

    /// Appends `flit` to VC `vc`.
    ///
    /// # Panics
    ///
    /// Panics if the VC already holds `depth` flits (credit flow control
    /// makes that unreachable).
    #[inline]
    pub fn push(&mut self, vc: usize, flit: Flit) {
        let depth = self.depth;
        let v = &mut self.vcs[vc];
        assert!(v.len < depth, "flit pushed onto a full VC (credit overrun)");
        let mut slot = v.head + v.len;
        if slot >= depth {
            slot -= depth;
        }
        v.len += 1;
        self.flits[vc * depth as usize + slot as usize] = flit;
    }

    /// Drops the front flit of VC `vc`, which must hold one.
    #[inline]
    pub fn pop(&mut self, vc: usize) {
        let depth = self.depth;
        let v = &mut self.vcs[vc];
        debug_assert!(v.len > 0, "pop from an empty VC");
        v.len -= 1;
        v.head += 1;
        if v.head == depth {
            v.head = 0;
        }
    }
}

/// Per-VC bookkeeping on an output port.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct OutVc {
    /// Packet that owns the downstream VC, until its tail is sent.
    pub owner: Option<u32>,
    /// Remaining downstream buffer credits.
    pub credits: u32,
}

/// One output port: link target, capacity, and downstream VC bookkeeping.
#[derive(Debug, Clone, Default)]
pub(crate) struct OutputPort {
    /// Whether this port physically exists on this router.
    pub exists: bool,
    /// Downstream `(router, input port)`; `None` for the ejection (local)
    /// port, which sinks flits.
    pub target: Option<(usize, u8)>,
    /// Flits this port can accept per cycle (1 for mesh/local; `16B/width`
    /// for RF-I shortcut ports).
    pub capacity: u32,
    /// Extra link-traversal cycles beyond the standard single cycle
    /// (non-zero only for shortcuts realised in buffered RC wire, which
    /// need multiple clock cycles to cross the chip — paper §5.3).
    pub extra_latency: u64,
    /// Manhattan length of the shortcut this port drives (0 for mesh and
    /// local ports); used for wire-shortcut energy accounting.
    pub shortcut_hops: u32,
    /// Whether this shortcut is realised in conventional buffered wire
    /// rather than RF-I (the paper's "Mesh Wire Shortcuts" comparison).
    pub is_wire: bool,
    /// Fail-stop fault flag: a failed port refuses *new* packet
    /// allocations while wormholes already holding a VC drain normally
    /// (credits keep flowing), so teardown is credit-safe.
    pub failed: bool,
    /// Downstream VC states.
    pub vcs: Vec<OutVc>,
    /// Round-robin cursor over `(input port, vc)` switch-allocation
    /// requests.
    pub rr: usize,
}

impl OutputPort {
    /// Whether `vc` is free for a new packet: port healthy, VC unowned and
    /// fully credited (all previously sent flits have left the downstream
    /// buffer).
    pub fn vc_free(&self, vc: usize, full_credits: u32) -> bool {
        if self.failed {
            return false;
        }
        let s = &self.vcs[vc];
        s.owner.is_none() && (self.target.is_none() || s.credits == full_credits)
    }
}

/// A packet waiting to begin injection at a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PendingInjection {
    /// Packet table index.
    pub packet: u32,
    /// Earliest cycle injection may begin (used for VCT setup delays).
    pub ready_at: u64,
}

/// Per-flit streaming state of an injection VC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct InjectStream {
    /// Packet being streamed.
    pub packet: u32,
    /// Total flits of the packet.
    pub total_flits: u32,
    /// Next flit index to send.
    pub next: u32,
}

/// The per-node injection engine: a FIFO of pending packets and per-VC
/// streaming state mirroring an upstream router's output port.
#[derive(Debug, Clone, Default)]
pub(crate) struct Injector {
    /// Waiting packets in creation order.
    pub queue: VecDeque<PendingInjection>,
    /// Streaming state per local-input VC.
    pub streams: Vec<Option<InjectStream>>,
    /// Credits per local-input VC.
    pub credits: Vec<u32>,
    /// Round-robin cursor over streaming VCs.
    pub rr: usize,
}

impl Injector {
    /// Creates an injector for `vcs` local-input virtual channels with
    /// `depth` credits each.
    pub fn new(vcs: usize, depth: u32) -> Self {
        Self {
            queue: VecDeque::new(),
            streams: vec![None; vcs],
            credits: vec![depth; vcs],
            rr: 0,
        }
    }

    /// Whether VC `vc` can accept a new packet.
    pub fn vc_free(&self, vc: usize, full_credits: u32) -> bool {
        self.streams[vc].is_none() && self.credits[vc] == full_credits
    }

    /// Total packets waiting or streaming.
    pub fn backlog(&self) -> usize {
        self.queue.len() + self.streams.iter().filter(|s| s.is_some()).count()
    }
}

/// A complete router.
#[derive(Debug, Clone, Default)]
pub(crate) struct Router {
    /// Input ports (indexed by fabric base slot, then local, then RF).
    pub inputs: Vec<InputPort>,
    /// Output ports.
    pub outputs: Vec<OutputPort>,
    /// Injection engine feeding the local input port.
    pub injector: Injector,
}

impl Router {
    /// Whether this router can make no progress until new work arrives:
    /// no buffered or in-flight flits on any input port, no claimed VCs,
    /// and an idle injector. A quiescent router is dropped from the
    /// engine's active set; deliveries and injections re-activate it.
    ///
    /// Output-side state (missing credits, owned downstream VCs) is
    /// deliberately not consulted: credits returning to an otherwise
    /// empty router update counters but enable no pipeline stage until a
    /// flit arrives, and the waiting flit keeps its *holder* active.
    pub fn quiescent(&self) -> bool {
        self.injector.queue.is_empty()
            && self.injector.streams.iter().all(Option::is_none)
            && self
                .inputs
                .iter()
                .all(|p| p.arrivals.is_empty() && p.occupied.is_empty())
    }
    /// Registers a VC as claimed (head flit arrived).
    pub fn claim_vc(&mut self, port: usize, vc: u16, packet: u32) {
        let p = &mut self.inputs[port];
        debug_assert!(p.vcs[vc as usize].cur_packet.is_none(), "VC double-claim");
        p.vcs[vc as usize].cur_packet = Some(packet);
        p.occupied.push(vc);
    }

    /// Releases a VC after its tail flit retires.
    pub fn release_vc(&mut self, port: usize, vc: u16) {
        let p = &mut self.inputs[port];
        p.vcs[vc as usize].release();
        if let Some(pos) = p.occupied.iter().position(|&v| v == vc) {
            p.occupied.swap_remove(pos);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vc_release_clears_state() {
        let mut vc = VcState {
            cur_packet: Some(7),
            allocated: true,
            out_port: 2,
            out_vc: 3,
            mc_routed: true,
            ..Default::default()
        };
        vc.mc_branches.push(McBranch { port: 1, out_vc: Some(0), packet: 7 });
        vc.release();
        assert!(vc.cur_packet.is_none());
        assert!(!vc.allocated);
        assert!(vc.mc_branches.is_empty());
        assert!(!vc.mc_routed);
    }

    #[test]
    fn mc_all_sent_requires_every_branch() {
        let mut vc = VcState::default();
        vc.mc_branches.push(McBranch { port: 0, out_vc: Some(1), packet: 0 });
        vc.mc_branches.push(McBranch { port: 2, out_vc: None, packet: 1 });
        vc.mc_front_sent = 0b01;
        assert!(!vc.mc_all_sent());
        vc.mc_branches[1].out_vc = Some(0);
        vc.mc_front_sent = 0b11;
        assert!(vc.mc_all_sent());
    }

    #[test]
    fn out_vc_free_checks_credits() {
        let mut port = OutputPort {
            exists: true,
            target: Some((1, 0)),
            capacity: 1,
            vcs: vec![OutVc { owner: None, credits: 4 }],
            ..Default::default()
        };
        assert!(port.vc_free(0, 4));
        port.vcs[0].credits = 3;
        assert!(!port.vc_free(0, 4), "outstanding flit downstream");
        port.vcs[0].credits = 4;
        port.vcs[0].owner = Some(9);
        assert!(!port.vc_free(0, 4), "owned");
        port.vcs[0].owner = None;
        port.failed = true;
        assert!(!port.vc_free(0, 4), "failed ports refuse new packets");
    }

    #[test]
    fn injector_claim_and_backlog() {
        let mut inj = Injector::new(2, 4);
        assert!(inj.vc_free(0, 4));
        inj.streams[0] = Some(InjectStream { packet: 0, total_flits: 3, next: 0 });
        assert!(!inj.vc_free(0, 4));
        inj.queue.push_back(PendingInjection { packet: 1, ready_at: 0 });
        assert_eq!(inj.backlog(), 2);
    }

    #[test]
    fn quiescent_tracks_every_work_source() {
        let mut r = Router {
            inputs: vec![InputPort::new(2, 4, None)],
            injector: Injector::new(2, 4),
            ..Router::default()
        };
        assert!(r.quiescent());
        // A pending injection is work.
        r.injector.queue.push_back(PendingInjection { packet: 0, ready_at: 9 });
        assert!(!r.quiescent());
        r.injector.queue.clear();
        // A streaming injection VC is work.
        r.injector.streams[1] = Some(InjectStream { packet: 0, total_flits: 2, next: 1 });
        assert!(!r.quiescent());
        r.injector.streams[1] = None;
        // An in-flight link delivery is work, even if not yet due.
        r.inputs[0].arrivals.push_back((100, 0, Flit { packet: 0, idx: 0, eligible: 102 }));
        assert!(!r.quiescent());
        r.inputs[0].arrivals.clear();
        // A claimed VC is work (wormhole in progress).
        r.claim_vc(0, 1, 3);
        assert!(!r.quiescent());
        r.release_vc(0, 1);
        assert!(r.quiescent());
    }

    #[test]
    fn claim_release_tracks_occupied() {
        let mut r = Router {
            inputs: vec![InputPort::new(4, 4, None)],
            ..Router::default()
        };
        r.claim_vc(0, 2, 11);
        assert_eq!(r.inputs[0].occupied, vec![2]);
        assert_eq!(r.inputs[0].vcs[2].cur_packet, Some(11));
        r.release_vc(0, 2);
        assert!(r.inputs[0].occupied.is_empty());
        assert!(r.inputs[0].vcs[2].cur_packet.is_none());
    }

    fn flit(idx: u32) -> Flit {
        Flit { packet: 5, idx, eligible: 0 }
    }

    #[test]
    fn ring_wraps_and_keeps_vcs_apart() {
        for depth in [1u32, 3, 4] {
            let mut p = InputPort::new(2, depth, None);
            assert_eq!(p.flits.len(), 2 * depth as usize);
            let mut next = 0;
            let mut expect_front = 0;
            // Keep VC 1 full-ish and cycle VC 0 through several wraps.
            p.push(1, flit(99));
            for _ in 0..3 * depth {
                while p.vcs[0].len < depth {
                    p.push(0, flit(next));
                    next += 1;
                }
                assert_eq!(p.front(0).map(|f| f.idx), Some(expect_front));
                p.pop(0);
                expect_front += 1;
                assert!(p.vcs[0].head < depth);
            }
            while p.vcs[0].len > 0 {
                assert_eq!(p.front(0).map(|f| f.idx), Some(expect_front));
                p.pop(0);
                expect_front += 1;
            }
            assert_eq!(expect_front, next, "depth {depth}: every flit popped in order");
            assert!(p.front(0).is_none());
            assert_eq!(p.front(1).map(|f| f.idx), Some(99), "depth {depth}: VC 1 untouched");
            p.front_mut(1).expect("buffered").eligible = 7;
            assert_eq!(p.front(1).map(|f| f.eligible), Some(7));
        }
    }

    #[test]
    #[should_panic(expected = "full VC")]
    fn ring_push_past_depth_panics() {
        let mut p = InputPort::new(1, 3, None);
        for i in 0..4 {
            p.push(0, flit(i));
        }
    }
}
