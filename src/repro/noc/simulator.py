"""Cycle-accurate NoC simulation loop.

``NocSimulator`` owns the mesh, one NIC per node, and the attached node
models (PEs and memory interfaces).  Each cycle:

1. every node model steps (may enqueue new packets on its NIC);
2. every busy NIC pushes at most one flit into its router's local input;
3. every occupied router plans its switch allocation (two-phase: all
   plans are computed against the cycle-start state, then committed),
   moving one flit per output port — to a neighbor's input buffer, or to
   the local NIC for ejection;
4. credits consumed by forwarded flits are returned upstream.

The loop ends when every node reports idle and no flit is in flight.
Event counts (flit-hops, buffer accesses, per-class payload volumes) are
accumulated in :class:`NocStats` for the energy model.

Fast path
---------

The default stepper does work proportional to *activity*, not mesh
size, and is guaranteed to produce :class:`NocStats` identical
field-by-field to the naive full-scan stepper (kept as
:meth:`NocSimulator.step_reference` and exercised by the differential
tests in ``tests/noc/test_fastpath.py``):

* **active sets** — a set of busy NIC ids and a dict of per-router
  buffered-flit counts mean injection and switch allocation only visit
  components that can actually act; an in-flight flit counter makes the
  quiescence test O(1) instead of a full mesh scan per cycle.
* **cycle skipping** — when no flit occupies any NIC or router, nothing
  can happen until some node acts.  :meth:`Node.next_event_cycle` lets
  node models (DRAM release timers, PE compute timers) publish their
  next wakeup, and :meth:`NocSimulator.run` jumps ``cycle`` straight to
  the earliest one instead of stepping empty cycles.  The base-class
  default ("step me every cycle") keeps arbitrary node subclasses
  correct.

Busy NICs, active routers and due nodes are visited in ascending order
(node id, or attachment index for nodes) — the order of the reference
full scan — so deliveries, and the node callbacks and packets they set
off, happen in the same sequence on either stepper, and the two can be
compared event for event rather than only in their totals.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from heapq import heappop, heappush

from .. import obs
from .flit import Packet
from .mesh import OPPOSITE, Mesh
from .nic import NetworkInterface
from .router import LOCAL, NEVER, PORT_NAMES

__all__ = ["Node", "NocStats", "NocSimulator"]


class Node:
    """Base class for objects attached to mesh positions."""

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self.sim: "NocSimulator | None" = None

    def attach(self, sim: "NocSimulator") -> None:
        self.sim = sim

    def send(self, packet: Packet, cycle: int) -> None:
        sim = self.sim
        if sim is None:
            # an assert would vanish under ``python -O`` and silently
            # drop the packet; losing traffic must always be loud
            raise RuntimeError(
                f"node {self.node_id} is not attached to a simulator"
            )
        sim.nics[self.node_id].enqueue(packet, cycle)
        sim._busy_nics.add(self.node_id)
        sim._inflight_flits += packet.num_flits

    # -- to override -------------------------------------------------------
    def step(self, cycle: int) -> None:  # pragma: no cover - default no-op
        pass

    def on_packet(self, packet: Packet, cycle: int) -> None:  # pragma: no cover
        pass

    @property
    def idle(self) -> bool:
        return True

    def next_event_cycle(self, cycle: int) -> int | None:
        """Earliest cycle >= ``cycle`` at which :meth:`step` may act.

        This is the node-scheduling contract: the simulator steps a
        node only at the cycles its hint announces (plus whenever a
        packet is delivered to it, and after explicit
        ``NocSimulator.wake_node`` calls), and also uses the hints to
        jump the clock over guaranteed-dead stretches.  Return ``None``
        when the node will never act again without external stimulus;
        return a cycle <= ``cycle`` to request stepping every cycle.
        The conservative base-class default keeps subclasses without a
        hint stepped every cycle, so they stay correct.
        """
        return cycle


@dataclass
class NocStats:
    cycles: int = 0
    flit_hops: int = 0  # link traversals (router-to-router)
    #: flits per directed link: (src_router, out_port) -> count
    link_flits: Counter[tuple[int, int]] = field(default_factory=Counter)
    buffer_writes: int = 0
    buffer_reads: int = 0
    packets_delivered: int = 0
    flits_delivered: int = 0
    payload_bytes: Counter[str] = field(default_factory=Counter)
    latency_sum: int = 0
    #: PE datapath cycles hidden under input fetch by streamed decode
    #: (zero unless a PETask runs with ``streamed=True``)
    decode_overlap_cycles: int = 0

    def record_delivery(self, packet: Packet) -> None:
        self.packets_delivered += 1
        self.flits_delivered += packet.num_flits
        self.payload_bytes[str(packet.traffic_class)] += packet.payload_bytes
        self.latency_sum += packet.latency

    @property
    def mean_packet_latency(self) -> float:
        return self.latency_sum / self.packets_delivered if self.packets_delivered else 0.0


class NocSimulator:
    def __init__(self, mesh: Mesh | None = None) -> None:
        self.mesh = mesh or Mesh()
        num_vcs = self.mesh.num_vcs
        self.nics = [
            NetworkInterface(i, num_vcs=num_vcs)
            for i in range(self.mesh.num_nodes)
        ]
        self.nodes: dict[int, Node] = {}
        #: attachment-ordered view of ``nodes`` — the per-cycle stepping
        #: order, shared by both steppers
        self._node_list: list[Node] = []
        self.stats = NocStats()
        self.cycle = 0
        # -- activity tracking (the fast path's whole point) -----------
        #: NIC ids with a non-empty injection queue
        self._busy_nics: set[int] = set()
        #: router id -> buffered flit count (absent means empty)
        self._router_flits: dict[int, int] = {}
        #: total flits alive in NIC queues + router buffers
        self._inflight_flits = 0
        # -- phase accounting (cheap integers; repro.obs export) --------
        #: cycles executed through a stepper (vs fast-forwarded)
        self.cycles_stepped = 0
        #: cycles skipped while the network was empty (node-timer waits)
        self.ff_cycles_idle = 0
        #: cycles skipped while flits sat in router pipeline stages
        self.ff_cycles_stall = 0
        #: occupied routers skipped by their poll hint (obs-gated: only
        #: counted while an observability scope is enabled)
        self.stalled_router_polls = 0
        #: whether run() is exporting to an enabled repro.obs scope —
        #: the zero-overhead-when-disabled guard for in-loop counters
        self._obs_track = False
        # -- node scheduling -------------------------------------------
        # per attached node (by attachment index): the earliest cycle
        # its ``step`` must run, driven by ``next_event_cycle`` hints.
        # ``NEVER`` parks a node until an external event (a packet
        # delivery, or a wake_node call from e.g. PE task assignment)
        # re-arms it.  The base-class hint returns its argument, so
        # node subclasses without a hint are stepped every cycle.
        self._node_wake: list[int] = []
        #: (wake_cycle, attach_idx) min-heap; an entry is stale unless
        #: it equals ``_node_wake[idx]`` (lazy deletion)
        self._node_heap: list[tuple[int, int]] = []
        #: node_id -> attachment index (delivery wakes)
        self._node_idx: dict[int, int] = {}
        # -- static commit tables (the topology never changes) ---------
        # per (router, out_port 0..3): everything the commit loop needs
        # to hand a flit to the neighbor without chained attribute
        # lookups; per (router, in_port 0..3): the upstream credit list
        routers = self.mesh.routers
        neighbor_table = self.mesh.neighbor_table
        self._hop_info: list[list[tuple | None]] = []
        self._feed_info: list[list[tuple | None]] = []
        for rid in range(self.mesh.num_nodes):
            hops: list[tuple | None] = []
            feeds: list[tuple | None] = []
            for port in range(4):
                n = neighbor_table[rid][port]
                if n is None:
                    hops.append(None)
                    feeds.append(None)
                else:
                    nr = routers[n]
                    hops.append(
                        (
                            n,
                            nr,
                            nr.buffers[OPPOSITE[port]],
                            # arrival latency is a property of the
                            # neighbor's *input* port (chiplet-boundary
                            # links cost extra cycles)
                            nr.port_pipeline_depth[OPPOSITE[port]],
                            nr.buffer_depth,
                            nr.stats,
                            (rid, port),  # link_flits key
                        )
                    )
                    feeds.append((nr, nr.credits[OPPOSITE[port]], nr.buffer_depth))
            self._hop_info.append(hops)
            self._feed_info.append(feeds)

    def attach_node(self, node: Node) -> None:
        if node.node_id in self.nodes:
            raise ValueError(f"node {node.node_id} already attached")
        if not 0 <= node.node_id < self.mesh.num_nodes:
            raise ValueError(f"node id {node.node_id} outside the mesh")
        self.nodes[node.node_id] = node
        idx = len(self._node_list)
        self._node_list.append(node)
        self._node_idx[node.node_id] = idx
        self._node_wake.append(self.cycle)
        heappush(self._node_heap, (self.cycle, idx))
        node.attach(self)

    def wake_node(self, node_id: int) -> None:
        """Ensure ``node_id`` is stepped on the next simulated cycle.

        Packet deliveries wake their destination automatically; call
        this after mutating a parked node from outside the simulation
        (assigning a PE task, scheduling a DRAM read mid-run).
        """
        idx = self._node_idx[node_id]
        nxt = self.cycle + 1
        if self._node_wake[idx] > nxt:
            self._node_wake[idx] = nxt
            heappush(self._node_heap, (nxt, idx))

    # -- inner phases ------------------------------------------------------
    def _inject(self) -> None:
        """Feed one flit per busy NIC into its router's local input.

        ``Router.accept`` is inlined (queue peek, depth check, pipeline
        stamp, poll-hint rearm) — injection runs once per busy NIC per
        cycle and the call overhead is measurable.
        """
        busy = self._busy_nics
        if not busy:
            return
        routers = self.mesh.routers
        nics = self.nics
        router_flits = self._router_flits
        cycle = self.cycle
        for nid in sorted(busy):
            queue = nics[nid]._inject_queue
            router = routers[nid]
            flit = queue[0]
            buf = router.buffers[LOCAL][flit.vc]
            if len(buf) < router.buffer_depth:
                queue.popleft()
                ready = cycle + router.port_pipeline_depth[LOCAL]
                flit.ready_cycle = ready
                if not buf:
                    router._occupied_lanes += 1
                buf.append(flit)
                router.stats.buffer_writes += 1
                if ready < router.poll_again_at:
                    router.poll_again_at = ready
                router_flits[nid] = router_flits.get(nid, 0) + 1
                if not queue:
                    busy.discard(nid)

    def _route(self) -> None:
        """Switch-allocate and commit moves for every occupied router.

        Occupied routers whose ``poll_again_at`` hint lies in the future
        are skipped outright — the hint guarantees their ``plan_moves``
        would return no moves and make no observable state change, so
        skipping cannot perturb the move sequence.  The commit path
        inlines ``Router.accept`` / ``return_credit`` and accumulates
        the global counters in locals; both are flat per-flit costs that
        dominate profiles at saturation.
        """
        router_flits = self._router_flits
        if not router_flits:
            return
        cycle = self.cycle
        routers = self.mesh.routers
        # two-phase: plan against cycle-start state (ascending id order,
        # matching the reference scan so deliveries happen in its order) ...
        all_moves = None
        stalled = 0
        for rid in sorted(router_flits):
            router = routers[rid]
            if router.poll_again_at > cycle:
                stalled += 1
                continue
            moves = router._plan_impl(cycle)
            if moves:
                if all_moves is None:
                    all_moves = [(rid, moves)]
                else:
                    all_moves.append((rid, moves))
        if stalled and self._obs_track:
            self.stalled_router_polls += stalled
        if all_moves is None:
            return
        # ... then commit (via the static per-port tables, which bundle
        # every object the inlined accept / credit return touches)
        nics = self.nics
        nodes = self.nodes
        stats = self.stats
        link_flits = stats.link_flits
        hop_table = self._hop_info
        feed_table = self._feed_info
        node_idx = self._node_idx
        node_wake = self._node_wake
        node_heap = self._node_heap
        wake_cycle = cycle + 1
        buffer_reads = 0
        buffer_writes = 0
        flit_hops = 0
        ejected = 0
        for rid, moves in all_moves:
            router = routers[rid]
            hop_info = hop_table[rid]
            feed_info = feed_table[rid]
            router_flits[rid] -= len(moves)
            for in_port, out_port, flit in moves:
                buffer_reads += 1
                vc = flit.vc
                if out_port == LOCAL:
                    # ejection is an unbounded sink: no credit accounting.
                    # nic.eject is inlined; the completeness check uses
                    # ``flit.seq + 1``, which equals ``num_flits`` for a
                    # tail by packetize construction, avoiding the
                    # property's division per delivery
                    nic = nics[rid]
                    pending = nic._pending_flits
                    pid = flit.pid
                    seen = pending.get(pid, 0) + 1
                    router.credits[LOCAL][vc] += 1
                    ejected += 1
                    if flit.is_tail:
                        pending.pop(pid, None)
                        if seen != flit.seq + 1:
                            raise RuntimeError(
                                f"packet {pid}: tail after {seen} flits, "
                                f"expected {flit.seq + 1}"
                            )
                        packet = flit.packet
                        packet.delivered_cycle = cycle
                        nic.delivered_packets += 1
                        stats.record_delivery(packet)
                        node = nodes.get(rid)
                        if node is not None:
                            node.on_packet(packet, cycle)
                            # a delivery may unblock a parked node
                            # (e.g. a PE waiting on its inputs)
                            idx = node_idx[rid]
                            if node_wake[idx] > wake_cycle:
                                node_wake[idx] = wake_cycle
                                heappush(node_heap, (wake_cycle, idx))
                    else:
                        pending[pid] = seen
                else:
                    hop = hop_info[out_port]
                    if hop is None:
                        raise RuntimeError(
                            f"router {rid}: XY route fell off the mesh"
                        )
                    neighbor_id, nrouter, nbufs, pdepth, bdepth, nstats, link_key = hop
                    # inlined Router.accept
                    nbuf = nbufs[vc]
                    if len(nbuf) >= bdepth:
                        raise RuntimeError(
                            f"router {neighbor_id}: buffer overflow on port "
                            f"{PORT_NAMES[OPPOSITE[out_port]]} vc{vc} "
                            "(credit protocol violated)"
                        )
                    ready = cycle + pdepth
                    flit.ready_cycle = ready
                    if not nbuf:
                        nrouter._occupied_lanes += 1
                    nbuf.append(flit)
                    nstats.buffer_writes += 1
                    if ready < nrouter.poll_again_at:
                        nrouter.poll_again_at = ready
                    router_flits[neighbor_id] = (
                        router_flits.get(neighbor_id, 0) + 1
                    )
                    flit_hops += 1
                    link_flits[link_key] += 1
                    buffer_writes += 1
                # return the credit upstream (the feeder of in_port);
                # NIC injection (in_port == LOCAL) is throttled by
                # buffer-depth checks instead
                if in_port != LOCAL:
                    feed = feed_info[in_port]
                    if feed is not None:
                        # inlined Router.return_credit
                        feeder, fcredits, fdepth = feed
                        held = fcredits[vc]
                        if held >= fdepth:
                            raise RuntimeError(
                                f"router {feeder.node_id}: credit overflow "
                                f"on port {PORT_NAMES[OPPOSITE[in_port]]} "
                                f"vc{vc}"
                            )
                        fcredits[vc] = held + 1
                        feeder.poll_again_at = 0
        stats.buffer_reads += buffer_reads
        stats.buffer_writes += buffer_writes
        stats.flit_hops += flit_hops
        self._inflight_flits -= ejected
        for rid, moves in all_moves:
            if not router_flits[rid]:
                del router_flits[rid]

    # -- main loop ---------------------------------------------------------
    @property
    def quiescent(self) -> bool:
        if self._inflight_flits:
            return False
        return all(node.idle for node in self._node_list)

    def step(self) -> None:
        cycle = self.cycle
        heap = self._node_heap
        if heap and heap[0][0] <= cycle:
            nodes = self._node_list
            wake = self._node_wake
            due: list[int] = []
            while heap and heap[0][0] <= cycle:
                w, idx = heappop(heap)
                if w == wake[idx]:
                    # claim the slot so an identical duplicate entry
                    # (delivery wake re-parked onto a cycle that already
                    # had a live entry) cannot step the node twice
                    wake[idx] = -1
                    due.append(idx)
            # attachment order — the reference stepper's order, so
            # packets sent from node steps are created in its sequence
            due.sort()
            for idx in due:
                node = nodes[idx]
                node.step(cycle)
                nxt = node.next_event_cycle(cycle + 1)
                if nxt is None:
                    wake[idx] = NEVER
                else:
                    if nxt <= cycle:
                        nxt = cycle + 1
                    wake[idx] = nxt
                    heappush(heap, (nxt, idx))
        self._inject()
        self._route()
        self.cycle = cycle + 1

    def step_reference(self) -> None:
        """One cycle of the naive O(mesh-size) stepper.

        This is the frozen behavioral specification of :meth:`step`: it
        scans every NIC and every router each cycle exactly as the
        pre-fast-path simulator did.  The differential tests assert that
        both steppers produce identical :class:`NocStats`.  Interleaving
        the two on one simulator is supported — the activity sets are
        resynchronized from scratch after every reference step.
        """
        cycle = self.cycle
        for node in self._node_list:
            node.step(cycle)
        # inject: scan every NIC (the VC was assigned at enqueue)
        for nic in self.nics:
            if not nic.busy:
                continue
            router = self.mesh.routers[nic.node_id]
            flit = nic.next_flit()
            if router.can_accept(LOCAL, flit.vc):
                router.accept(nic.pop_flit(), LOCAL, cycle)
        # route: scan every router
        all_moves = []
        for router in self.mesh.routers:
            if router.occupancy:
                moves = router.plan_moves(cycle)
                if moves:
                    all_moves.append((router, moves))
        for router, moves in all_moves:
            for in_port, out_port, flit in moves:
                self.stats.buffer_reads += 1
                if out_port == LOCAL:
                    packet = self.nics[router.node_id].eject(flit, cycle)
                    router.credits[LOCAL][flit.vc] += 1
                    if packet is not None:
                        self.stats.record_delivery(packet)
                        node = self.nodes.get(router.node_id)
                        if node is not None:
                            node.on_packet(packet, cycle)
                else:
                    neighbor_id = self.mesh.neighbor(router.node_id, out_port)
                    if neighbor_id is None:
                        raise RuntimeError(
                            f"router {router.node_id}: XY route fell off the mesh"
                        )
                    self.mesh.routers[neighbor_id].accept(flit, OPPOSITE[out_port], cycle)
                    self.stats.flit_hops += 1
                    self.stats.link_flits[(router.node_id, out_port)] += 1
                    self.stats.buffer_writes += 1
                if in_port != LOCAL:
                    feeder_id = self.mesh.neighbor(router.node_id, in_port)
                    if feeder_id is not None:
                        self.mesh.routers[feeder_id].return_credit(
                            OPPOSITE[in_port], flit.vc
                        )
        self.cycle = cycle + 1
        self._resync_activity()

    def _resync_activity(self) -> None:
        """Rebuild the active sets from actual component state."""
        self._busy_nics.clear()
        self._busy_nics.update(nic.node_id for nic in self.nics if nic.busy)
        self._router_flits = {
            r.node_id: r.occupancy for r in self.mesh.routers if r.occupancy
        }
        self._inflight_flits = sum(
            nic.queued_flits for nic in self.nics
        ) + sum(self._router_flits.values())
        self._wake_all_nodes()

    def _wake_all_nodes(self) -> None:
        """Mark every node due now (hints re-establish themselves)."""
        cyc = self.cycle
        n = len(self._node_list)
        self._node_wake = [cyc] * n
        # equal keys with ascending indices already satisfy the heap
        # invariant — no heapify needed
        self._node_heap = [(cyc, i) for i in range(n)]

    def _network_wakeup(self, max_cycles: int) -> int:
        """Earliest cycle anything can move while flits sit in routers.

        Only meaningful when every NIC queue is empty: all in-flight
        flits then live in router buffers, so a cycle is dead unless
        some router's poll hint has come due or some node wants to step
        (nodes can only enqueue traffic from inside ``step``).  Routers
        are scanned first — during active drains one of them is almost
        always due, giving a cheap early exit.
        """
        cycle = self.cycle
        wake = max_cycles
        routers = self.mesh.routers
        for rid in self._router_flits:
            nxt = routers[rid].poll_again_at
            if nxt <= cycle:
                return cycle
            if nxt < wake:
                wake = nxt
        for nxt in self._node_wake:
            if nxt <= cycle:
                return cycle
            if nxt < wake:
                wake = nxt
        return wake

    def _next_wakeup(self, max_cycles: int) -> int:
        """Earliest cycle any node may act (network known to be empty).

        Returns the current cycle when some node wants to step now (or
        gave no hint), and ``max_cycles`` when no node will ever act
        again — the run loop then charges the naive stepper's budget in
        one jump and raises its usual liveness error.
        """
        cycle = self.cycle
        wake = max_cycles
        for nxt in self._node_wake:
            if nxt <= cycle:
                return cycle
            if nxt < wake:
                wake = nxt
        return wake

    #: (attribute, metric) pairs exported per run when observability is on
    _OBS_STATS = (
        ("flit_hops", "noc.flits.hops"),
        ("flits_delivered", "noc.flits.delivered"),
        ("packets_delivered", "noc.packets.delivered"),
        ("buffer_reads", "noc.buffer.reads"),
        ("buffer_writes", "noc.buffer.writes"),
        ("decode_overlap_cycles", "noc.decode.overlap_cycles"),
    )

    def _obs_base(self) -> tuple:
        """Snapshot of every exported counter, taken at run() entry so
        repeated runs on one simulator export per-run deltas."""
        stats = self.stats
        return (
            self.cycle,
            self.cycles_stepped,
            self.ff_cycles_idle,
            self.ff_cycles_stall,
            self.stalled_router_polls,
            tuple(getattr(stats, attr) for attr, _ in self._OBS_STATS),
        )

    def _obs_flush(self, o, base: tuple) -> None:
        """Export this run's counter deltas to the ambient obs scope."""
        cycle0, stepped0, idle0, stall0, polls0, stats0 = base
        m = o.metrics
        m.counter("noc.cycles.total").add(self.cycle - cycle0)
        m.counter("noc.cycles.stepped").add(self.cycles_stepped - stepped0)
        m.counter("noc.cycles.fast_forwarded", reason="network_empty").add(
            self.ff_cycles_idle - idle0
        )
        m.counter("noc.cycles.fast_forwarded", reason="pipeline_stall").add(
            self.ff_cycles_stall - stall0
        )
        m.counter("noc.routers.stalled_polls").add(
            self.stalled_router_polls - polls0
        )
        stats = self.stats
        for (attr, metric), before in zip(self._OBS_STATS, stats0):
            m.counter(metric).add(getattr(stats, attr) - before)
        m.gauge("noc.mean_packet_latency").set(stats.mean_packet_latency)

    def run(self, max_cycles: int = 10_000_000, reference: bool = False) -> NocStats:
        """Run until quiescent; raises if ``max_cycles`` is exceeded.

        ``reference=True`` drives the naive :meth:`step_reference` loop
        with no cycle skipping — the oracle for differential tests.

        With an enabled :mod:`repro.obs` scope installed, the run is
        wrapped in a ``noc.run`` span and per-phase counters (cycles
        stepped vs fast-forwarded by reason, stalled router polls, flit
        and buffer activity) are exported on completion.  With the
        default disabled scope this method takes the exact historical
        path — the in-loop stall census stays off (``_obs_track``) and
        no registry is touched.
        """
        o = obs.current()
        if not o.enabled:
            self._obs_track = False
            return self._run(max_cycles, reference)
        self._obs_track = True
        base = self._obs_base()
        try:
            with o.span(
                "noc.run",
                cat="noc",
                reference=reference,
                nodes=len(self._node_list),
            ):
                return self._run(max_cycles, reference)
        finally:
            self._obs_flush(o, base)
            self._obs_track = False

    def _run(self, max_cycles: int, reference: bool) -> NocStats:
        if reference:
            while not self.quiescent:
                if self.cycle >= max_cycles:
                    raise RuntimeError(
                        f"simulation did not quiesce within {max_cycles} cycles "
                        f"(possible deadlock or runaway traffic)"
                    )
                self.step_reference()
                self.cycles_stepped += 1
            self.stats.cycles = self.cycle
            return self.stats

        # anything may have been reprogrammed between runs (new PE
        # tasks, fresh DRAM schedules): start from a clean slate where
        # every node is due, and let the hints re-park them
        self._wake_all_nodes()
        nodes = self._node_list
        while True:
            if not self._inflight_flits:
                if all(node.idle for node in nodes):
                    break  # quiescent
                wake = self._next_wakeup(max_cycles)
                if wake > self.cycle:
                    # nothing can happen before ``wake``: skip the dead
                    # cycles (bounded by the liveness budget)
                    self.ff_cycles_idle += wake - self.cycle
                    self.cycle = wake
            elif not self._busy_nics:
                # flits in flight but all NIC queues drained: if every
                # occupied router is pipeline-stalled and no node wants
                # to step, the intervening cycles are provably dead too
                wake = self._network_wakeup(max_cycles)
                if wake > self.cycle:
                    self.ff_cycles_stall += wake - self.cycle
                    self.cycle = wake
            if self.cycle >= max_cycles:
                raise RuntimeError(
                    f"simulation did not quiesce within {max_cycles} cycles "
                    f"(possible deadlock or runaway traffic)"
                )
            self.step()
            self.cycles_stepped += 1
        self.stats.cycles = self.cycle
        return self.stats
