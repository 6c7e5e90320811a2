"""What-if: bucketed comm/compute overlap on top of the paper's allreduce.

Goyal et al. (the paper's strongest Table 2 rival) hide the allreduce
behind backpropagation; the paper instead makes the allreduce itself
faster.  This bench combines both: bucket-count sweep with the multicolor
collective at the 32-node ResNet-50 operating point.  The whole
iteration is one unified training-step DAG
(:func:`repro.train.overlap.simulate_bucketed_overlap` lowering through
:func:`repro.train.stepdag.compile_bucketed_step`), so bucket allreduces
are real pipelined collectives gated by gradient-ready dependency edges,
not a closed-form cost sum — and fp16 composes with bucketing and the
algorithm choice inside the *same* schedule
(:func:`test_whatif_fp16_overlap_composed`).
"""

from conftest import emit

from repro.cluster import MINSKY_NODE, ClusterSpec
from repro.core.calibration import compute_model_for
from repro.data import IMAGENET_1K
from repro.models import build_resnet50
from repro.train import EpochTimeModel
from repro.train.overlap import simulate_bucketed_overlap
from repro.utils.ascii import render_table
from tests.train.overlap_reference import legacy_simulate_bucketed_overlap

MODEL = build_resnet50()
N_NODES = 32


def run_overlap_sweep():
    pipeline = EpochTimeModel(
        model=MODEL,
        cluster=ClusterSpec(name="w", n_nodes=N_NODES, node=MINSKY_NODE),
        dataset=IMAGENET_1K,
        compute=compute_model_for("resnet50"),
    )
    gpu = pipeline.iteration_breakdown().gpu_compute
    fwd, bwd = gpu / 3.0, gpu * 2.0 / 3.0
    results = {}
    for n_buckets in (1, 2, 4, 8, 32):
        results[n_buckets] = simulate_bucketed_overlap(
            n_ranks=N_NODES,
            forward_time=fwd,
            backward_time=bwd,
            gradient_bytes=MODEL.gradient_bytes,
            n_buckets=n_buckets,
            algorithm="multicolor",
        )
    return results


def test_whatif_overlap(benchmark):
    results = benchmark.pedantic(run_overlap_sweep, rounds=1, iterations=1)
    table = render_table(
        ["buckets", "iter (ms)", "exposed comm (ms)", "gain vs serial"],
        [
            [n, f"{r.iteration_time * 1e3:.1f}",
             f"{r.exposed_comm * 1e3:.2f}", f"{r.overlap_gain:.1%}"]
            for n, r in results.items()
        ],
        title="What-if — bucketed overlap + multicolor allreduce "
        "(ResNet-50, 32 nodes, schedule-executed buckets)",
    )
    emit("whatif_overlap", table)

    serial = results[1]
    best = min(results.values(), key=lambda r: r.iteration_time)
    # Overlap helps, and a moderate bucket count is at or near the best.
    assert best.iteration_time < serial.iteration_time
    assert results[8].iteration_time <= serial.iteration_time
    # Iteration can never drop below pure compute.
    for r in results.values():
        assert r.iteration_time >= r.compute_time
        # Bucket collectives really executed on the fabric.
        assert len(r.bucket_spans) == r.n_buckets


def run_composition():
    pipeline = EpochTimeModel(
        model=MODEL,
        cluster=ClusterSpec(name="w", n_nodes=N_NODES, node=MINSKY_NODE),
        dataset=IMAGENET_1K,
        compute=compute_model_for("resnet50"),
    )
    gpu = pipeline.iteration_breakdown().gpu_compute
    kw = dict(
        n_ranks=N_NODES,
        forward_time=gpu / 3.0,
        backward_time=gpu * 2.0 / 3.0,
        n_buckets=8,
        algorithm="multicolor",
    )
    results = {
        "fp32": simulate_bucketed_overlap(
            gradient_bytes=MODEL.gradient_bytes, itemsize=4, **kw
        ),
        "fp16": simulate_bucketed_overlap(
            gradient_bytes=MODEL.gradient_bytes // 2, itemsize=2, **kw
        ),
    }
    legacy = legacy_simulate_bucketed_overlap(
        gradient_bytes=MODEL.gradient_bytes // 2, itemsize=2, **kw
    )
    return results, legacy


def test_whatif_fp16_overlap_composed(benchmark):
    """fp16 x bucketed overlap x multicolor, all in ONE schedule.

    The unified step DAG composes the three knobs directly; the retired
    bucket-release driver manually composed over the fp16 payload is the
    independent estimate it must reproduce within 1%.
    """
    (results, legacy) = benchmark.pedantic(run_composition, rounds=1, iterations=1)
    table = render_table(
        ["precision", "iter (ms)", "exposed comm (ms)", "gain vs serial"],
        [
            [name, f"{r.iteration_time * 1e3:.1f}",
             f"{r.exposed_comm * 1e3:.2f}", f"{r.overlap_gain:.1%}"]
            for name, r in results.items()
        ],
        title="What-if — fp16 + overlap + multicolor in one step DAG "
        "(ResNet-50, 32 nodes)",
    )
    emit("whatif_fp16_overlap_composed", table)

    fp16, fp32 = results["fp16"], results["fp32"]
    # Unified DAG within 1% of the manually-composed legacy estimate.
    assert abs(fp16.iteration_time - legacy.iteration_time) <= (
        0.01 * legacy.iteration_time
    )
    # Half the wire bytes can only help, and compute still floors it.
    assert fp16.iteration_time <= fp32.iteration_time
    assert fp16.iteration_time >= fp16.compute_time
