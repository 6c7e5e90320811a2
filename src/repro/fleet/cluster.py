"""The shared simulated cluster every fleet job runs on.

One :class:`SharedCluster` owns a single :class:`~repro.sim.engine.Engine`,
one fat-tree :class:`~repro.net.fabric.Fabric` and one
:class:`~repro.mpi.world.MPIWorld` spanning all nodes.  Concurrent jobs'
collectives therefore share links under the existing max-min flow model,
share each node's reduce/copy CPU (:class:`~repro.sim.resources.Resource`)
and share the per-``(src, dst)`` NIC send queue — co-location manufactures
genuine stragglers instead of modelled ones.

Fault domains are *nodes*: the slot ledger, liveness, drains and SDC
strikes are the control core's :class:`~repro.fleet.control.Node`
records (:mod:`repro.fleet.control` mutates them; the scheduler turns a
node death into one correlated :class:`~repro.mpi.schedule.RankFailure`
per hosted job).  Racks are the placement-level fault domains (`rack = node // nodes_per_rack`
equals the node's fat-tree leaf), which the ``pack``/``spread`` placement
policies trade off against allreduce locality.

The cluster keeps the utilization integrals, advanced by :meth:`account`
just before every ledger change, and :meth:`leaked_placements` names any
slot still held after the fleet drains — the chaos sweep's "no leaked
placements" invariant reads it directly.
"""

from __future__ import annotations

from repro.fleet.control import Node
from repro.mpi.world import MPIWorld
from repro.net.fabric import Fabric
from repro.net.params import CONNECTX5_DUAL, NetworkParams
from repro.net.topology import fat_tree
from repro.sim.engine import Engine

__all__ = ["Node", "SharedCluster"]


class SharedCluster:
    """All nodes, the shared network and the slot/utilization ledger."""

    def __init__(
        self,
        *,
        n_racks: int = 2,
        nodes_per_rack: int = 4,
        slots_per_node: int = 2,
        network: NetworkParams = CONNECTX5_DUAL,
        reduce_bandwidth: float = 15e9,
        copy_bandwidth: float = 40e9,
    ):
        if n_racks < 1 or nodes_per_rack < 1 or slots_per_node < 1:
            raise ValueError("racks, nodes per rack and slots must be >= 1")
        self.n_racks = n_racks
        self.nodes_per_rack = nodes_per_rack
        self.slots_per_node = slots_per_node
        n_nodes = n_racks * nodes_per_rack
        self.engine = Engine()
        topo = fat_tree(
            n_nodes, network, hosts_per_leaf=nodes_per_rack, name="fleet"
        )
        self.fabric = Fabric(
            self.engine,
            topo,
            software_overhead=network.software_overhead,
            per_flow_cap=network.per_flow_cap,
        )
        self.world = MPIWorld(
            self.engine,
            self.fabric,
            n_nodes,
            reduce_bandwidth=reduce_bandwidth,
            copy_bandwidth=copy_bandwidth,
        )
        self.nodes = [
            Node(i, i // nodes_per_rack, slots_per_node) for i in range(n_nodes)
        ]
        # Utilization ledger: integrals of busy slots and live capacity over
        # simulated time, advanced lazily before every ledger change.
        self._busy_integral = 0.0
        self._capacity_integral = 0.0
        self._last_account = 0.0

    # -- topology helpers ---------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def rack_of(self, node_index: int) -> int:
        return self.nodes[node_index].rack

    def rack_uplinks(self, rack: int) -> list[int]:
        """Indices of both directions of ``rack``'s leaf-to-spine cables."""
        leaf = f"s:leaf{rack}"
        return [
            link.index
            for link in self.fabric.topology.links
            if leaf in (link.src, link.dst)
            and (link.src.startswith("s:spine") or link.dst.startswith("s:spine"))
        ]

    def degrade_rack_uplinks(self, rack: int, factor: float) -> None:
        """Scale ``rack``'s spine uplinks mid-flight (1.0 restores)."""
        self.fabric.scale_links(self.rack_uplinks(rack), factor)

    def degrade_node_links(self, node_index: int, factor: float) -> None:
        """Scale one node's host links mid-flight (a flapping NIC; 1.0
        restores)."""
        self.fabric.scale_host_links(node_index, factor)

    def node_link_factor(self, node_index: int) -> float:
        """Worst residual bandwidth factor on ``node_index``'s data path.

        1.0 when healthy; the minimum over the node's own host links and
        its rack's spine uplinks of (effective / nominal) bandwidth after
        any live :meth:`~repro.net.fabric.Fabric.scale_links` degrades.
        The health monitor's link-degrade-residue signal.
        """
        topo = self.fabric.topology
        host = topo.host(node_index)
        indices = [
            link.index
            for link in topo.links
            if host in (link.src, link.dst)
        ]
        indices += self.rack_uplinks(self.nodes[node_index].rack)
        return min(
            self.fabric.link_bandwidth(i) / topo.links[i].params.bandwidth
            for i in indices
        )

    def leaked_placements(self) -> list[tuple[int, str, int]]:
        """Every slot still held, as ``(node, job_name, count)``."""
        return [
            (node.index, job, count)
            for node in self.nodes
            for job, count in sorted(node.held.items())
        ]

    # -- utilization --------------------------------------------------------
    def account(self, until: float | None = None) -> None:
        """Integrate busy and live slots up to ``until`` (or now)."""
        now = self.engine.now if until is None else min(until, self.engine.now)
        dt = now - self._last_account
        if dt > 0:
            live = [n for n in self.nodes if n.alive]
            self._busy_integral += dt * sum(n.used for n in live)
            self._capacity_integral += dt * sum(n.slots for n in live)
            self._last_account = now

    def utilization(self, until: float | None = None) -> float:
        """Busy node-slot-seconds over live node-slot-seconds.

        ``until`` caps the accounting horizon: stale watchdog timers keep
        the drained engine's clock running past the last real event, and
        that idle tail should not dilute the fleet's utilization.
        """
        self.account(until)
        if self._capacity_integral <= 0:
            return 0.0
        return self._busy_integral / self._capacity_integral

    def capacity_integral_at(self, until: float | None = None) -> float:
        """Live node-slot-seconds accumulated up to ``until`` (or now)."""
        self.account(until)
        return self._capacity_integral
