"""The benchmark's own calls into ddforge, run as the benchmark makes them.

perfbench/ is imported read-only: the simulate-deep scan path (measure.run_deep),
its checks against the closed-form pulse counts and the stored F_e references
(measure.check_deep), the order-d4 and order-extended scan paths
(measure.run_order, measure.check_order), and the tracer's sites and work
counters.
"""

import sys
from pathlib import Path

import pytest

pytest.importorskip("mpmath")

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import measure  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402

from ddforge import evolution, sequences  # noqa: E402


@pytest.fixture(scope="module")
def inputs():
    return measure.Inputs("simulate-deep")


@pytest.mark.parametrize("family", W.SIMULATE_DEEP, ids=lambda f: f.label)
def test_simulate_deep_scans(inputs, family):
    for seed in W.POOL_DEEP:
        scan = W.DeepScan(family, seed)
        result = measure.run_deep(inputs.deep_call(scan))
        out = measure.Outcome(scan.label, 0.0)
        measure.check_deep(scan, result, None, inputs, out)
        assert out.status == "ok", out.detail
        assert out.oracle_ok == out.oracle_checked == len(W.DEEP_ALPHA_T)
        assert [pulses for pulses, _ in result] == [measure.expected_pulses(family)] * len(W.DEEP_ALPHA_T)


def test_order_scans():
    # Every order-d4 and order-extended scan, called as the timed passes call it (order-d64 is left out for time).
    for workload in ("order-d4", "order-extended"):
        order_inputs = measure.Inputs(workload)
        for scan in W.order_scans(workload):
            call = order_inputs.order_call(scan)
            result = measure.run_order(call, scan.precision)
            out = measure.Outcome(scan.label, 0.0)
            measure.check_order(scan, call, result, None, order_inputs, out)
            assert out.status == "ok", (scan.label, out.detail)


@pytest.mark.parametrize("family", W.SIMULATE_DEEP, ids=lambda f: f.label)
def test_tracer_work_counters(inputs, family):
    ops = inputs.models[(4, W.POOL_DEEP[0], "generic")]
    seq = sequences.build_sequence(family.name, 0.01, **dict(family.params))
    u = evolution.sequence_unitary(seq, ops)
    assert tracing._sequence_work((family.name, 0.01), dict(family.params), seq) == {"pulses": seq.pulse_count}
    work = tracing._evolution_work((seq, ops), {}, u)
    assert work == {"pulses": seq.pulse_count, "segments": evolution.segment_count(seq), "n": 2 * ops.dim}


def test_tracer_resolves_every_site():
    # Installing the tracer looks up every traced function where the benchmark
    # rebinds it, so a renamed or deleted one fails here, not only in traced runs.
    originals = [getattr(mod, attr) for mod, attr, _ in tracing.SITES]
    with tracing.Tracer().installed():
        assert all(getattr(mod, attr) is not fn for (mod, attr, _), fn in zip(tracing.SITES, originals))
    assert [getattr(mod, attr) for mod, attr, _ in tracing.SITES] == originals
