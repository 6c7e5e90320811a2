"""The executor's strand partition against its comprehension-based reference.

Every rank of every registered allreduce schedule, and of bucketed training
steps in both memory modes, must split into the same strands: the same
steps in the same order, with the same cross-strand dependencies.
"""

import pytest

from repro.mpi import ALLREDUCE_COMPILERS
from repro.mpi.schedule import _partition_strands
from repro.train.stepdag import compile_bucketed_step

from tests.mpi.partition_reference import reference_partition_strands


def shape(strands):
    # The executor's cross deps are tuples, the reference's lists.
    return [[(step.sid, tuple(cross)) for step, cross in strand] for strand in strands]


def assert_same_partition(schedule):
    for rank in range(schedule.n_ranks):
        steps = schedule.rank_steps(rank)
        strands = _partition_strands(steps)
        assert all(type(cross) is tuple for strand in strands for _, cross in strand)
        assert shape(strands) == shape(reference_partition_strands(steps)), rank


@pytest.mark.parametrize("name", sorted(ALLREDUCE_COMPILERS))
def test_allreduce_schedules_partition_as_the_reference(name):
    compiler = ALLREDUCE_COMPILERS[name]
    for n_ranks in (2, 3, 4, 8, 16):
        assert_same_partition(compiler(n_ranks, 4096, 4))
        assert_same_partition(compiler(n_ranks, 4096, 4, segment_bytes=1024))


@pytest.mark.parametrize("memory", ["data", "staged"])
@pytest.mark.parametrize("algorithm", ["multicolor", "ring", "rsag"])
def test_bucketed_steps_partition_as_the_reference(memory, algorithm):
    for n_ranks, serialize, audit in [(2, True, False), (4, True, True), (8, False, False)]:
        schedule = compile_bucketed_step(
            n_ranks, 4096, 4, forward_time=1e-3, backward_time=2e-3, optim_time=1e-4,
            n_buckets=3, algorithm=algorithm, serialize_buckets=serialize,
            memory=memory, audit=audit,
        )
        assert any(len(step.deps) > 1 for step in schedule.steps)
        assert_same_partition(schedule)
