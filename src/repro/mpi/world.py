"""The simulated MPI world: ranks, messaging and communicators.

One MPI rank per cluster node (the paper runs one MPI process per learner).
Messages travel as fabric flows; delivery is *eager* — a send completes
locally at once and the payload appears in the destination mailbox when the
last byte arrives, so rank programs written as generators never deadlock on
send order.  Receives match on ``(source, tag)`` exactly, FIFO per key, as
in MPI with deterministic tags.

CPU-side reduction arithmetic (the paper sums network buffers with PowerPC
altivec instructions) is modelled by a per-rank CPU resource with a
configurable reduce bandwidth, so pipelined algorithms naturally overlap
compute with communication.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable
from typing import NamedTuple

from repro.mpi.datatypes import Buffer
from repro.net.fabric import Fabric
from repro.sim.engine import Engine, Event
from repro.sim.resources import Resource

__all__ = ["MPIWorld", "Communicator", "Message"]


class Message(NamedTuple):
    """A delivered message: payload plus byte count (for assertions)."""

    source: int
    tag: object
    payload: object
    nbytes: int


class _Send(Event):
    """One message in flight: the event that fires on its delivery, and the
    chain of engine calls that carries it (DESIGN §4o).

    :meth:`start` (one zero-delay hop) -> :meth:`post`, once the pair's
    previous message is delivered -> the fault verdict, maybe a delay ->
    :meth:`transmit` -> :meth:`deliver`, the transfer's waiter.  The record
    drops its predecessor when it starts, and its world, tag and payload
    when it delivers: the pair's channel tail keeps no more alive than a
    plain event, and a finished simulation holds no reference cycle
    through it.
    """

    __slots__ = ("world", "src", "dst", "tag", "payload", "nbytes", "prev", "action")

    def __init__(self, world: MPIWorld, src: int, dst: int, tag: object,
                 payload: object, nbytes: int):
        super().__init__(world.engine)
        self.world = world
        self.src = src
        self.dst = dst
        self.tag = tag
        self.payload = payload
        self.nbytes = nbytes
        self.prev: _Send | None = None  # the pair's previous message
        self.action = "deliver"

    def start(self, _arg: None) -> None:
        prev, self.prev = self.prev, None
        if prev is None:
            self.post(None)
        elif prev.callbacks is None:
            self.engine.call(self.post)  # delivered already: resume one hop later
        else:
            prev.callbacks.append(self.post)

    def post(self, _arg: object) -> None:
        controller = self.world.fault_controller
        if controller is not None:
            action, seconds = controller.on_send(self.src, self.dst, self.tag, self.nbytes)
            self.action = action
            if action == "corrupt":
                self.payload = controller.corrupt_payload(self.payload)
            elif action == "delay" and seconds > 0:
                self.engine.call(self.transmit, None, seconds)
                return
        self.transmit(None)

    def transmit(self, _arg: None) -> None:
        self.world.fabric.transfer(self.src, self.dst, self.nbytes, self.deliver)

    def deliver(self, _flow: object) -> None:
        if self.action != "drop":
            self.world._deposit(
                self.dst, Message(self.src, self.tag, self.payload, self.nbytes)
            )
        self.world = self.tag = self.payload = None
        self.succeed()


class MPIWorld:
    """All ranks plus the network they communicate over.

    The world keeps no record of who sent what: whoever posts a send
    records it (a schedule executor's strands as a step time in its
    :class:`~repro.mpi.schedule.ExecutionProgress`, a shuffle's rank
    programs in its :class:`~repro.data.shuffle.ShuffleProgress`).
    """

    def __init__(
        self,
        engine: Engine,
        fabric: Fabric,
        n_ranks: int,
        *,
        reduce_bandwidth: float = 15e9,
        copy_bandwidth: float = 40e9,
    ):
        """
        Parameters
        ----------
        reduce_bandwidth:
            Bytes/second a rank's CPU can sum (vectorized add of a network
            buffer into a local buffer — altivec on POWER8).
        copy_bandwidth:
            Bytes/second for plain buffer copies (broadcast stores).
        """
        if n_ranks < 1:
            raise ValueError(f"n_ranks must be >= 1, got {n_ranks}")
        if fabric.topology.n_hosts < n_ranks:
            raise ValueError(
                f"topology has {fabric.topology.n_hosts} hosts < {n_ranks} ranks"
            )
        if reduce_bandwidth <= 0 or copy_bandwidth <= 0:
            raise ValueError("bandwidths must be positive")
        self.engine = engine
        self.fabric = fabric
        self.n_ranks = n_ranks
        self.reduce_bandwidth = reduce_bandwidth
        self.copy_bandwidth = copy_bandwidth
        self._mailbox: list[dict[tuple[int, object], deque[Message]]] = [
            {} for _ in range(n_ranks)
        ]
        self._waiting: list[dict[tuple[int, object], deque[Event | Callable]]] = [
            {} for _ in range(n_ranks)
        ]
        self._any_waiting: list[dict[object, deque[Event]]] = [
            {} for _ in range(n_ranks)
        ]
        #: Per-rank reduce/copy CPU and GPU, one slot each: compute steps
        #: serialize on a rank's GPU but overlap freely with its
        #: communication, whose reductions and copies serialize on its CPU.
        self.cpus = [Resource(engine, 1, name=f"cpu{r}") for r in range(n_ranks)]
        self.gpus = [Resource(engine, 1, name=f"gpu{r}") for r in range(n_ranks)]
        self._channel_tail: dict[tuple[int, int], _Send] = {}
        #: Optional message-fault hook (see :mod:`repro.train.injection`).
        #: Must expose ``on_send(src, dst, tag, nbytes) -> (action, seconds)``
        #: where action is ``"deliver"``, ``"delay"``, ``"drop"`` or
        #: ``"corrupt"`` (the latter also requires ``corrupt_payload(data)``,
        #: which returns a bit-flipped copy deposited in place of the
        #: original — size, and hence timing, unchanged).
        self.fault_controller: object | None = None

    def comm_world(self) -> "Communicator":
        return Communicator(self, list(range(self.n_ranks)))

    # -- messaging (world-rank addressed) -----------------------------------
    def isend(self, src: int, dst: int, tag: object, buf: Buffer) -> Event:
        """Start a send; the returned event fires on *delivery*.

        Sends between the same ``(src, dst)`` pair are serialized FIFO, like
        a NIC send queue: message *m+1*'s bytes follow message *m*'s on the
        wire.  This preserves pipelining order (segment *s* arrives before
        segment *s+1*) which a pure fair-share fluid model would destroy.

        A :attr:`fault_controller`, if installed, may delay the message on
        the wire or drop its payload in transit.  A dropped message still
        completes locally (fail-silent network loss: the sender's NIC is
        unaware) — only the deposit at the destination is suppressed, so
        the receiver hangs until a higher-level timeout detects the loss.

        The returned event is the message's one record (:class:`_Send`):
        its methods are the send's chain of engine calls.
        """
        self._check_rank(src)
        self._check_rank(dst)
        send = _Send(self, src, dst, tag, buf.extract(), buf.nbytes)
        tails = self._channel_tail
        send.prev = tails.get((src, dst))
        tails[(src, dst)] = send
        self.engine.call(send.start)
        return send

    def recv(self, rank: int, src: int, tag: object) -> Event:
        """Event that fires with the :class:`Message` from ``(src, tag)``."""
        ev = self.engine.event()
        self.recv_call(rank, src, tag, ev)
        return ev

    def recv_call(
        self, rank: int, src: int, tag: object, waiter: Event | Callable[[Message], object]
    ) -> None:
        """Call-style :meth:`recv`: ``waiter(message)`` runs as an engine
        call where the receive event would fire (an :class:`Event` waiter
        is succeeded instead).  A waiter whose receiver died still consumes
        its message, as an abandoned receive event does.
        """
        self._check_rank(rank)
        self._check_rank(src)
        key = (src, tag)
        queue = self._mailbox[rank].get(key)
        if queue:
            self._wake(waiter, queue.popleft())
            if not queue:
                del self._mailbox[rank][key]
        else:
            self._waiting[rank].setdefault(key, deque()).append(waiter)

    def _wake(self, waiter: Event | Callable[[Message], object], msg: Message) -> None:
        if isinstance(waiter, Event):
            waiter.succeed(msg)
        else:
            self.engine.call(waiter, msg)

    def recv_any(self, rank: int, tag: object) -> Event:
        """Event that fires with the next message carrying ``tag`` from *any*
        source (MPI_ANY_SOURCE).  Used by the parameter-server extension."""
        self._check_rank(rank)
        ev = self.engine.event()
        for key in self._mailbox[rank]:
            if key[1] == tag:
                queue = self._mailbox[rank][key]
                ev.succeed(queue.popleft())
                if not queue:
                    del self._mailbox[rank][key]
                return ev
        self._any_waiting[rank].setdefault(tag, deque()).append(ev)
        return ev

    def _deposit(self, dst: int, msg: Message) -> None:
        key = (msg.source, msg.tag)
        waiters = self._waiting[dst].get(key)
        if waiters:
            self._wake(waiters.popleft(), msg)
            if not waiters:
                del self._waiting[dst][key]
            return
        any_waiters = self._any_waiting[dst].get(msg.tag)
        if any_waiters:
            any_waiters.popleft().succeed(msg)
            if not any_waiters:
                del self._any_waiting[dst][msg.tag]
            return
        self._mailbox[dst].setdefault(key, deque()).append(msg)

    def cpu_queue_depth(self, rank: int) -> int:
        """Requests queued behind ``rank``'s reduce/copy CPU right now.

        A live straggler signal: a degraded or oversubscribed node's CPU
        backs up, stalling every collective it hosts (the fleet health
        monitor polls this to decide proactive drains).
        """
        return self.cpus[rank].queue_length

    # -- local compute --------------------------------------------------------
    def copy_cpu(self, rank: int, nbytes: float):
        """Generator: occupy ``rank``'s CPU for a copy of ``nbytes``."""
        yield from self.cpus[rank].use(nbytes / self.copy_bandwidth)

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.n_ranks:
            raise ValueError(f"rank {rank} out of range [0, {self.n_ranks})")

    def assert_quiescent(self) -> None:
        """Raise if any mailbox holds undelivered messages (test helper)."""
        for rank, box in enumerate(self._mailbox):
            if box:
                leftovers = {k: len(v) for k, v in box.items()}
                raise AssertionError(f"rank {rank} has unconsumed messages: {leftovers}")
        for rank, waits in enumerate(self._waiting):
            if waits:
                raise AssertionError(f"rank {rank} has receives still pending: {list(waits)}")


class Communicator:
    """An ordered group of world ranks, MPI-communicator style.

    Group rank ``i`` maps to world rank ``members[i]``.  All collective
    algorithms address peers by *group* rank, so they work unchanged on
    sub-communicators (used for the paper's group-restricted shuffles).
    """

    def __init__(self, world: MPIWorld, members: list[int]):
        if not members:
            raise ValueError("communicator needs at least one member")
        if len(set(members)) != len(members):
            raise ValueError(f"duplicate members in communicator: {members}")
        for m in members:
            world._check_rank(m)
        self.world = world
        self.members = list(members)
        self._index = {m: i for i, m in enumerate(self.members)}

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def engine(self) -> Engine:
        return self.world.engine

    def world_rank(self, group_rank: int) -> int:
        return self.members[group_rank]

    def group_rank(self, world_rank: int) -> int:
        try:
            return self._index[world_rank]
        except KeyError:
            raise ValueError(f"world rank {world_rank} not in communicator") from None

    def contains(self, world_rank: int) -> bool:
        return world_rank in self._index

    # -- messaging (group-rank addressed) -----------------------------------
    def isend(self, src: int, dst: int, tag: object, buf: Buffer) -> Event:
        return self.world.isend(self.members[src], self.members[dst], tag, buf)

    def recv(self, rank: int, src: int, tag: object) -> Event:
        return self.world.recv(self.members[rank], self.members[src], tag)

    def copy_cpu(self, rank: int, nbytes: float):
        yield from self.world.copy_cpu(self.members[rank], nbytes)

    # -- topology-ish helpers -------------------------------------------------
    def split(self, n_groups: int) -> list["Communicator"]:
        """Partition into ``n_groups`` contiguous sub-communicators.

        Mirrors ``MPI_Comm_split`` with ``color = rank // group_size``; the
        paper uses this to restrict shuffles to learner groups.
        """
        if n_groups < 1 or n_groups > self.size:
            raise ValueError(
                f"n_groups must be in [1, {self.size}], got {n_groups}"
            )
        if self.size % n_groups != 0:
            raise ValueError(
                f"communicator of size {self.size} not divisible into "
                f"{n_groups} equal groups"
            )
        per = self.size // n_groups
        return [
            Communicator(self.world, self.members[g * per : (g + 1) * per])
            for g in range(n_groups)
        ]

    def __repr__(self) -> str:  # pragma: no cover
        return f"Communicator(size={self.size}, members={self.members})"
