"""The send chain against the coroutine reference it replaced (hypothesis).

Random sends — repeated same-pair sends (channel chaining), loopbacks,
0-byte and sub-``1e-6``-byte messages, staggered and tied issue times, and
a fault controller answering deliver / delay / drop / corrupt — run once
through :class:`MPIWorld` + :class:`Fabric` and once through the generator
reference in ``channel_reference``.  Delivery times (as ``float.hex``),
payloads, fault-controller calls, :class:`FabricStats` and the final clock
must agree exactly, and the call chain must take exactly two engine steps
fewer per transfer (the two unwaited process completions).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi.datatypes import Buffer
from repro.mpi.world import MPIWorld
from repro.net import Fabric, LinkParams, NetworkParams, fat_tree
from repro.sim import Engine

from tests.mpi.channel_reference import ReferenceFabric, ReferenceWorld

N_RANKS = 6
NET = NetworkParams(
    host_link=LinkParams(bandwidth=1000.0, latency=0.25),
    fabric_link=LinkParams(bandwidth=1500.0, latency=0.125),
    software_overhead=0.0625,
    switch_latency=0.03125,
)
TOPOLOGY = fat_tree(N_RANKS, NET, hosts_per_leaf=2)


class StepCountingEngine(Engine):
    def __init__(self):
        super().__init__()
        self.steps = 0

    def step(self):
        self.steps += 1
        super().step()


class Payload(Buffer):
    """A labelled message of any (float) size."""

    def __init__(self, label: str, nbytes: float):
        self.label = label
        self._nbytes = nbytes

    @property
    def nbytes(self):
        return self._nbytes

    def extract(self):
        return self.label


class ScriptedFaults:
    """Answers ``on_send`` from a per-tag script and logs every question."""

    def __init__(self, engine, script):
        self.engine = engine
        self.script = script
        self.calls = []

    def on_send(self, src, dst, tag, nbytes):
        self.calls.append((self.engine.now.hex(), src, dst, tag, nbytes))
        return self.script[tag]

    def corrupt_payload(self, payload):
        return payload + "~flipped"


def simulate(world_cls, fabric_cls, sends, faulty):
    engine = StepCountingEngine()
    fabric = fabric_cls(engine, TOPOLOGY, software_overhead=NET.software_overhead)
    world = world_cls(engine, fabric, N_RANKS)
    faults = None
    if faulty:
        faults = world.fault_controller = ScriptedFaults(
            engine, {tag: verdict for tag, (*_, verdict) in enumerate(sends)}
        )
    log = []
    deposit = world._deposit

    def logged_deposit(dst, msg):
        log.append(("deposit", engine.now.hex(), dst, msg.source, msg.tag, msg.payload))
        deposit(dst, msg)

    world._deposit = logged_deposit

    def issue(send):
        tag, (src, dst, nbytes, _at, _verdict) = send
        done = world.isend(src, dst, tag, Payload(f"m{tag}", nbytes))
        done.callbacks.append(lambda _ev: log.append(("done", engine.now.hex(), tag)))

    for tag, send in enumerate(sends):
        engine.call(issue, (tag, send), send[3])
    engine.run()
    assert not fabric.active_flows
    return {
        "log": log,
        "stats": fabric.stats,
        "now": engine.now.hex(),
        "faults": faults.calls if faults else None,
    }, engine.steps


sizes = st.one_of(
    st.sampled_from([0.0, 1e-9, 5e-7, 1e-6, 2e-6, 1.0]),
    st.floats(0.0, 4000.0, allow_nan=False),
)
issue_times = st.one_of(st.sampled_from([0.0, 0.25, 1.0]), st.floats(0.0, 6.0))
verdicts = st.one_of(
    st.just(("deliver", 0.0)),
    st.tuples(st.just("delay"), st.sampled_from([0.0, 0.25, 1.5])),
    st.tuples(st.just("delay"), st.floats(0.0, 3.0)),
    st.just(("drop", 0.0)),
    st.just(("corrupt", 0.0)),
)
# Few ranks and a bias towards pair (0, 1): same-pair sends chain often.
pairs = st.one_of(
    st.just((0, 1)),
    st.tuples(st.integers(0, N_RANKS - 1), st.integers(0, N_RANKS - 1)),
)
sends_strategy = st.lists(
    st.tuples(pairs, sizes, issue_times, verdicts).map(
        lambda s: (s[0][0], s[0][1], s[1], s[2], s[3])
    ),
    min_size=1,
    max_size=24,
)


@settings(max_examples=60, deadline=None)
@given(sends=sends_strategy, faulty=st.booleans())
def test_call_chain_matches_the_coroutine_reference(sends, faulty):
    new, new_steps = simulate(MPIWorld, Fabric, sends, faulty)
    ref, ref_steps = simulate(ReferenceWorld, ReferenceFabric, sends, faulty)
    assert new == ref
    transfers = new["stats"].transfers_started
    assert transfers == len(sends)
    assert ref_steps - new_steps == 2 * transfers


def test_reference_exercises_every_branch():
    # One fixed case through each path: chained pair (both pending and
    # already-delivered predecessor), loopback, 0-byte, sub-eps, and all
    # four fault verdicts.
    sends = [
        (0, 1, 100.0, 0.0, ("deliver", 0.0)),
        (0, 1, 50.0, 0.0, ("delay", 0.5)),
        (0, 1, 10.0, 9.0, ("corrupt", 0.0)),  # predecessor long delivered
        (2, 2, 64.0, 0.0, ("drop", 0.0)),
        (3, 4, 0.0, 1.0, ("deliver", 0.0)),
        (4, 3, 1e-7, 1.0, ("corrupt", 0.0)),
    ]
    new, new_steps = simulate(MPIWorld, Fabric, sends, True)
    ref, ref_steps = simulate(ReferenceWorld, ReferenceFabric, sends, True)
    assert new == ref
    assert ref_steps - new_steps == 2 * len(sends)
    deposits = {entry[4]: entry[5] for entry in new["log"] if entry[0] == "deposit"}
    assert deposits == {0: "m0", 1: "m1", 2: "m2~flipped", 4: "m4", 5: "m5~flipped"}
