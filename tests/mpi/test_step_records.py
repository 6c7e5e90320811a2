"""The slotted step records against the frozen dataclasses they replaced.

The six IR step types are ``@dataclass(frozen=True, slots=True)`` records
whose ``__init__`` writes each slot directly.  ``tests/mpi/step_reference.py``
keeps the old definitions.  For hypothesis-drawn field values of every step
type, both must agree on ``repr``, ``astuple``, ``dataclasses.fields``,
construction, ``==`` and ``hash``, ``replace``, ``deepcopy``, pickling and the
``FrozenInstanceError`` on assignment and deletion.  Every step that the
allreduce compilers and ``compile_bucketed_step`` emit must print as the
reference record rebuilt from its fields.
"""

from __future__ import annotations

import copy
import dataclasses
import inspect
import pickle
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi import ALLREDUCE_COMPILERS
from repro.mpi import schedule as ir
from repro.train.stepdag import compile_bucketed_step

from tests.mpi import step_reference as ref

NAMES = [cls.__name__ for cls in ref.STEP_TYPES]
PAIRS = [(getattr(ir, name), getattr(ref, name)) for name in NAMES]

_INTS = st.integers(-5, 1 << 20)
_BUFS = st.one_of(st.none(), st.sampled_from(["data", "grad", "stage"]), st.text(max_size=4))
FIELD_VALUES = {
    "deps": st.lists(_INTS, max_size=4).map(tuple),
    "note": st.text(max_size=8),
    "key": st.one_of(
        st.none(), _INTS, st.text(max_size=4), st.tuples(st.text(max_size=3), _INTS)
    ),
    "buf": _BUFS,
    "src_buf": _BUFS,
    "dst_buf": _BUFS,
    "seconds": st.floats(allow_nan=False),
}


def field_values(cls):
    """A strategy for a ``{name: value}`` dict covering every field of ``cls``."""
    return st.fixed_dictionaries(
        {f.name: FIELD_VALUES.get(f.name, _INTS) for f in dataclasses.fields(cls)}
    )


def setattr_one(record, name):
    setattr(record, name, 1)


def _frozen_error(action, record, name):
    with pytest.raises(FrozenInstanceError) as err:
        action(record, name)
    return str(err.value)


def test_records_keep_the_reference_shape():
    for new, old in PAIRS:
        assert [
            (f.name, f.type, f.default, f.default_factory, f.init, f.repr, f.compare)
            for f in dataclasses.fields(new)
        ] == [
            (f.name, f.type, f.default, f.default_factory, f.init, f.repr, f.compare)
            for f in dataclasses.fields(old)
        ]
        assert [
            (p.name, p.default, p.kind) for p in inspect.signature(new).parameters.values()
        ] == [
            (p.name, p.default, p.kind) for p in inspect.signature(old).parameters.values()
        ]
        assert new.__match_args__ == old.__match_args__
        assert issubclass(new, ir._Step) and new.__name__ == old.__name__


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_records_behave_as_the_reference(data):
    new_cls, old_cls = data.draw(st.sampled_from(PAIRS))
    values = data.draw(field_values(old_cls))
    names = [f.name for f in dataclasses.fields(old_cls)]
    positional = [values[name] for name in names]
    new, old = new_cls(**values), old_cls(**values)
    assert not hasattr(new, "__dict__")

    assert repr(new) == repr(old)
    assert dataclasses.astuple(new) == dataclasses.astuple(old)
    assert dataclasses.asdict(new) == dataclasses.asdict(old)
    assert new_cls(*positional) == new

    twin = new_cls(**values)
    assert twin == new and twin is not new
    assert hash(twin) == hash(new) == hash(old)
    # Records of another type with the same values in the same positions
    # (a SendStep and a CopyStep, say) are unequal, as in the reference.
    for other_new, other_old in PAIRS:
        if other_new is not new_cls and len(dataclasses.fields(other_new)) == len(names):
            assert other_new(*positional) != new
            assert other_old(*positional) != old

    changed = data.draw(st.lists(st.sampled_from(names), unique=True, max_size=3))
    changes = data.draw(field_values(old_cls))
    changes = {name: changes[name] for name in changed}
    replaced = dataclasses.replace(new, **changes)
    assert type(replaced) is new_cls
    assert repr(replaced) == repr(dataclasses.replace(old, **changes))

    clone = copy.deepcopy(new)
    assert type(clone) is new_cls and clone == new and repr(clone) == repr(old)
    assert copy.copy(new) == new
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        loaded = pickle.loads(pickle.dumps(new, protocol))
        assert type(loaded) is new_cls and loaded == new and repr(loaded) == repr(old)

    for name in [*names, "extra"]:
        assert _frozen_error(setattr_one, new, name) == _frozen_error(setattr_one, old, name)
        assert _frozen_error(delattr, new, name) == _frozen_error(delattr, old, name)
    assert repr(new) == repr(old)


REFERENCE = dict(zip(NAMES, ref.STEP_TYPES))


def assert_steps_match_reference(schedule):
    for step in schedule.steps:
        values = {f.name: getattr(step, f.name) for f in dataclasses.fields(step)}
        assert repr(step) == repr(REFERENCE[type(step).__name__](**values))


@pytest.mark.parametrize("name", sorted(ALLREDUCE_COMPILERS))
def test_compiled_allreduce_steps_match_the_reference(name):
    compiler = ALLREDUCE_COMPILERS[name]
    for n_ranks in (1, 2, 3, 4, 8):
        assert_steps_match_reference(compiler(n_ranks, 4096, 4))
        assert_steps_match_reference(compiler(n_ranks, 4096, 4, segment_bytes=1024))


@pytest.mark.parametrize("memory", ["data", "staged"])
def test_bucketed_steps_match_the_reference(memory):
    for algorithm in ("multicolor", "ring"):
        schedule = compile_bucketed_step(
            4, 4096, 4, forward_time=1e-3, backward_time=2e-3, optim_time=1e-4,
            n_buckets=3, algorithm=algorithm, memory=memory, audit=True,
        )
        assert {type(s).__name__ for s in schedule.steps} >= {
            "SendStep", "ComputeStep", "OptimStep"
        }
        assert_steps_match_reference(schedule)
