"""Coroutine message path: the differential reference for the send chain.

Every :meth:`MPIWorld.isend` used to start a ``channel_program`` process,
and every :meth:`Fabric.transfer` a ``_delayed_activate`` or
``_delayed_complete`` process that slept through the start-up latency.
:mod:`repro` now runs both as chains of engine calls that keep every heap
entry with an effect at the same time and in the same order.  The classes
here keep the generator versions, so a test can run the same sends both
ways and compare delivery times, payloads and fabric counters bit for bit.
The only difference allowed is the two process-completion entries per
transfer that nothing waits on.
"""

from __future__ import annotations

import math

from repro.mpi.datatypes import Buffer
from repro.mpi.world import Message, MPIWorld
from repro.net.fabric import _BYTES_EPS, Fabric, Flow
from repro.sim.engine import Event


class ReferenceFabric(Fabric):
    """A :class:`Fabric` whose transfers start through coroutines."""

    def transfer(self, src: int, dst: int, nbytes: float) -> Event:
        if not 0 <= nbytes < math.inf:
            raise ValueError(f"nbytes must be finite and >= 0, got {nbytes}")
        if src == dst:
            self.topology.host(src)
        else:
            path = self.topology.route(src, dst)
            path_id = self._path_ids.get(path)
            if path_id is None:
                path_id = self._add_path(path)
        ev = self.engine.event()
        self.stats.transfers_started += 1
        fid = self._next_fid
        self._next_fid += 1
        if src == dst:
            duration = self.software_overhead + nbytes / self.loopback_bandwidth
            flow = Flow(fid, src, dst, (), float(nbytes), 0.0, ev)
            self.engine.process(self._delayed_complete(flow, duration))
            return ev
        delay = self.software_overhead + self.topology.path_latency(path)
        flow = Flow(fid, src, dst, path, float(nbytes), float(nbytes), ev)
        if nbytes <= _BYTES_EPS:
            self.engine.process(self._delayed_complete(flow, delay))
            return ev
        self.engine.process(self._delayed_activate(flow, path_id, delay))
        return ev

    def _delayed_complete(self, flow: Flow, delay: float):
        yield self.engine.timeout(delay)
        self._finish(flow)

    def _delayed_activate(self, flow: Flow, path_id: int, delay: float):
        yield self.engine.timeout(delay)
        self._activate((flow, path_id))


class ReferenceWorld(MPIWorld):
    """An :class:`MPIWorld` whose sends each run as a channel process."""

    def isend(self, src: int, dst: int, tag: object, buf: Buffer) -> Event:
        self._check_rank(src)
        self._check_rank(dst)
        payload = buf.extract()
        nbytes = buf.nbytes
        done = self.engine.event()
        prev_tail = self._channel_tail.get((src, dst))
        self._channel_tail[(src, dst)] = done

        def channel_program():
            if prev_tail is not None:
                yield prev_tail
            action = "deliver"
            data = payload
            if self.fault_controller is not None:
                action, seconds = self.fault_controller.on_send(
                    src, dst, tag, nbytes
                )
                if action == "delay" and seconds > 0:
                    yield self.engine.timeout(seconds)
                elif action == "corrupt":
                    data = self.fault_controller.corrupt_payload(data)
            yield self.fabric.transfer(src, dst, nbytes)
            if action != "drop":
                self._deposit(dst, Message(src, tag, data, nbytes))
            done.succeed()

        self.engine.process(channel_program(), name=f"send{src}->{dst}")
        return done
