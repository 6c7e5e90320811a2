"""Generator strands: the differential reference for the call-driven strand.

:class:`~repro.mpi.schedule.ScheduleExecutor` used to run every dependency
strand as a :class:`~repro.sim.engine.Process` over a generator that yielded
the producing steps' ``done`` events, receive events and
:meth:`Resource.use <repro.sim.resources.Resource.use>` holds.  It now runs
each strand as a chain of engine calls that keeps every heap entry at the
same time and in the same order.  :class:`ReferenceExecutor` keeps the
generator version, so a test can run the same schedule both ways and compare
clocks, progress, stats, buffers and engine step counts exactly; only the
number of processes differs.
"""

from __future__ import annotations

from repro.mpi.datatypes import SizeBuffer
from repro.mpi.schedule import (
    ComputeStep,
    CopyStep,
    OptimStep,
    RecvReduceStep,
    ReduceLocalStep,
    ScheduleError,
    ScheduleExecutor,
    SendStep,
    _bind,
    _partition_strands,
)


def _wire_key(tag: object, key: object) -> tuple:
    """Namespace a schedule-level message key into a world wire tag."""
    return ("sx", tag, key)


def _perform_step(comm, step, bufmap, tag, stats):
    """Generator performing one step's operation (deps already satisfied)."""
    world = comm.world
    cpu = world.cpus[comm.members[step.rank]]
    gpu = world.gpus[comm.members[step.rank]]
    if isinstance(step, SendStep):
        view = _bind(bufmap, step.buf, step.lo, step.hi)
        payload = view if view is not None else SizeBuffer(0)
        comm.isend(step.rank, step.dst, _wire_key(tag, step.key), payload)
        stats.per_rank_sent[step.rank] += payload.nbytes
        stats.n_messages += 1
    elif isinstance(step, RecvReduceStep):
        msg = yield comm.recv(step.rank, step.src, _wire_key(tag, step.key))
        view = _bind(bufmap, step.buf, step.lo, step.hi)
        view.add_(msg.payload)
        yield from cpu.use(view.nbytes / world.reduce_bandwidth)
        stats.reduced_bytes += view.nbytes
    elif isinstance(step, CopyStep):
        msg = yield comm.recv(step.rank, step.src, _wire_key(tag, step.key))
        view = _bind(bufmap, step.buf, step.lo, step.hi)
        if view is not None:
            view.copy_(msg.payload)
            yield from cpu.use(view.nbytes / world.copy_bandwidth)
            stats.copied_bytes += view.nbytes
    elif isinstance(step, ReduceLocalStep):
        dst = _bind(bufmap, step.buf, step.lo, step.hi)
        src = _bind(bufmap, step.src_buf, step.src_lo, step.src_hi)
        dst.add_(src.extract())
        yield from cpu.use(dst.nbytes / world.reduce_bandwidth)
        stats.reduced_bytes += dst.nbytes
    elif isinstance(step, ComputeStep):
        yield from gpu.use(step.seconds)
        if step.buf is not None and step.src_buf is not None:
            view = _bind(bufmap, step.buf, step.lo, step.hi)
            src = _bind(bufmap, step.src_buf, step.lo, step.hi)
            view.copy_(src.extract())
        stats.compute_seconds += step.seconds
    elif isinstance(step, OptimStep):
        grad = _bind(bufmap, step.buf, step.lo, step.hi)
        data = grad.extract()
        yield from gpu.use(step.seconds)
        if step.dst_buf is not None:
            dst = _bind(bufmap, step.dst_buf, step.lo, step.hi)
            dst.copy_(data)
        stats.compute_seconds += step.seconds
    else:  # pragma: no cover
        raise ScheduleError(f"unknown step type {type(step).__name__}")


def _strand_program(comm, entries, bufmap, tag, stats, done, progress):
    """One process per strand: wait on cross-strand deps, run each step."""
    engine = comm.engine
    for step, cross in entries:
        for d in cross:
            yield done[d]  # already-processed events resume one hop later
        progress.begin(step, engine.now)
        yield from _perform_step(comm, step, bufmap, tag, stats)
        progress.finish(step, engine.now)
        ev = done.get(step.sid)
        if ev is not None:
            ev.succeed()


class ReferenceExecutor(ScheduleExecutor):
    """A :class:`ScheduleExecutor` whose strands are generator processes."""

    def _start_strands(self, rank):
        engine = self.comm.engine
        chains = _partition_strands(self.schedule.rank_steps(rank))
        done = {}
        for entries in chains:
            for _step, cross in entries:
                for d in cross:
                    done.setdefault(d, engine.event())
        return [
            engine.process(
                _strand_program(
                    self.comm, entries, self.bufmaps[rank], self.tag,
                    self.stats, done, self.progress,
                ),
                name=f"sx{entries[0][0].sid}-r{rank}",
            )
            for entries in chains
        ]
