"""Simulated MPI: an executable, network-timed message-passing layer.

Rank programs are Python generators scheduled on the discrete-event engine;
messages travel as flows on a :class:`~repro.net.Fabric`, optionally
carrying real NumPy payloads so collective *results* are checked against
ground truth with the very same code that produces collective *timings*.
"""

from repro.mpi.collectives import ALLREDUCE_COMPILERS, ALLREDUCE_FAMILIES
from repro.mpi.datatypes import ArrayBuffer, Buffer, SizeBuffer, chunk_ranges
from repro.mpi.guard import RetryPolicy
from repro.mpi.runner import (
    CollectiveOutcome,
    allreduce_throughput,
    build_world,
    run_rank_programs,
    simulate_allreduce,
)
from repro.mpi.schedule import (
    CollectiveTelemetry,
    CollectiveTimeout,
    CopyStep,
    ExecutionProgress,
    FailureDiagnosis,
    RankFailure,
    RecvReduceStep,
    ReduceLocalStep,
    Schedule,
    ScheduleBuilder,
    ScheduleError,
    ScheduleExecutor,
    SendStep,
    StalledStep,
    diagnose_execution,
    format_schedule,
    memoize_compiler,
    run_guarded,
    validate_schedule,
)
from repro.mpi.world import Communicator, Message, MPIWorld

__all__ = [
    "ALLREDUCE_COMPILERS",
    "ALLREDUCE_FAMILIES",
    "ArrayBuffer",
    "Buffer",
    "CollectiveOutcome",
    "CollectiveTelemetry",
    "CollectiveTimeout",
    "Communicator",
    "CopyStep",
    "ExecutionProgress",
    "FailureDiagnosis",
    "Message",
    "MPIWorld",
    "RankFailure",
    "RecvReduceStep",
    "ReduceLocalStep",
    "RetryPolicy",
    "Schedule",
    "ScheduleBuilder",
    "ScheduleError",
    "ScheduleExecutor",
    "SendStep",
    "SizeBuffer",
    "StalledStep",
    "allreduce_throughput",
    "build_world",
    "chunk_ranges",
    "diagnose_execution",
    "format_schedule",
    "memoize_compiler",
    "run_guarded",
    "run_rank_programs",
    "simulate_allreduce",
    "validate_schedule",
]
