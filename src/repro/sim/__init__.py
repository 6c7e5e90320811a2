"""Deterministic discrete-event simulation engine.

A minimal SimPy-style kernel: an :class:`Engine` owns a FIFO of the calls
due now and a heap of future ones; :class:`Process` objects are Python
generators that yield events (timeouts, other processes, resource requests)
and are resumed when those events trigger.  Everything in the
cluster/network/training simulators is built on this substrate.

Determinism: ties at equal times are broken by insertion order, so a
simulation with the same inputs always produces the same trace.
"""

from repro.sim.engine import (
    AllOf,
    AnyOf,
    Engine,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Timeout,
)
from repro.sim.resources import Resource

__all__ = [
    "AllOf",
    "AnyOf",
    "Engine",
    "Event",
    "Interrupt",
    "Process",
    "Resource",
    "SimulationError",
    "Timeout",
]
