"""Self-test of the benchmark: its checks must catch seeded defects.

Run with ``python3 -m pytest bench -q``.  Each defect is patched in at
every module attribute that holds the original, as the tracer does, and
must make fail_frac positive on a tiny input; without a defect fail_frac
must be zero.
"""

from __future__ import annotations

import gc
import itertools
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference as ref  # noqa: E402
import speed  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, package_modules, rebind  # noqa: E402

fw = worker.import_freeword()


def tiny_inputs(name):
    if name == "sweep":
        return workloads.sweep_inputs(7, 1, template=((1, 1), (3, 2), (6, 3), (12, 4)))
    if name == "graph-large":
        return workloads.graph_inputs(7, 1, template=(270,))
    return workloads.library_inputs(7, 1, pairs=(8, 12))


def fail_frac(name) -> float:
    record = worker.drive(workloads.WORKLOADS[name], fw, tiny_inputs(name), round_count=1)
    return record["failed"] / record["attempted"]


@contextmanager
def patched(original, replacement):
    assert rebind(fw, original, replacement)
    try:
        yield
    finally:
        rebind(fw, replacement, original)


def truncated_transform_to(r, s):
    return ORIGINALS["transform_to"](r, s)[:-1]


def normal_form_leaving_a_redex(w):
    for p in range(len(w) - 1):
        if w[p + 1] == fw.invert(w[p]):
            return w[p:p + 2] + ORIGINALS["normal_form"](w[:p] + w[p + 2:])
    return ORIGINALS["normal_form"](w)


def enumeration_dropping_a_sequence(w, cap=fw.DEFAULT_CAP):
    return ORIGINALS["enumerate_sequences"](w, cap)[1:]


ORIGINALS = {
    "transform_to": fw.transform_to,
    "normal_form": fw.normal_form,
    "enumerate_sequences": fw.enumerate_sequences,
}

DEFECTS = {
    "transform_to": truncated_transform_to,
    "normal_form": normal_form_leaving_a_redex,
    "enumerate_sequences": enumeration_dropping_a_sequence,
}

# library-long never enumerates, by design
CASES = [(defect, name) for defect, name in itertools.product(DEFECTS, workloads.WORKLOADS)
         if (defect, name) != ("enumerate_sequences", "library-long")]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_no_defect_no_failure(name):
    assert fail_frac(name) == 0


@pytest.mark.parametrize("defect,name", CASES)
def test_seeded_defect_is_caught(defect, name):
    with patched(ORIGINALS[defect], DEFECTS[defect]):
        assert fail_frac(name) > 0
    assert fail_frac(name) == 0


def test_sequence_counter_matches_enumeration():
    for length in range(7):
        for w in fw.all_words(("a", "b"), length):
            assert ref.count_sequences(w) == len(fw.enumerate_sequences(w))


def test_naive_group_references():
    assert ref.naive_normal_form("abBAcaAC") == ""
    assert ref.naive_normal_form("aAa") == "a"
    assert ref.naive_inverse("abC") == "cBA"
    assert ref.exponent_sums("abAbc") == {"b": 2, "c": 1}


def test_step_validator():
    w = ref.from_chars("aAbcCB")
    assert ref.is_complete_reduction(w, (3, 0, 0))
    assert not ref.is_complete_reduction(w, (3, 0))
    assert not ref.is_complete_reduction(w, (1, 0, 0))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_inputs_follow_the_seed(name):
    make = workloads.WORKLOADS[name].inputs
    assert workloads.digest(make(3, 2)) == workloads.digest(make(3, 2))
    assert workloads.digest(make(3, 2)) != workloads.digest(make(4, 2))


def test_speed_probe_scales_and_restores_the_collector():
    ref_s = speed.REFERENCE_S
    assert speed.scale(0.5, [ref_s, ref_s]) == pytest.approx(0.5)
    assert speed.scale(0.5, [ref_s, 3 * ref_s]) == pytest.approx(0.25)
    assert speed.sample() > 0 and gc.isenabled()
    gc.disable()
    try:
        assert speed.sample() > 0 and not gc.isenabled()
    finally:
        gc.enable()


def test_meter_samples_while_a_request_runs():
    with speed.Meter() as meter:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 10 * speed.INTERVAL_S:
            pass
    assert len(meter.samples) >= 5
    assert 0 < meter.paused_s < time.perf_counter() - t0
    with speed.Meter(inner=False) as meter:
        time.sleep(3 * speed.INTERVAL_S)
    assert meter.samples == [] and meter.paused_s == 0


def test_tracer_counts_calls_and_restores():
    tracer = Tracer(fw)
    tracer.install()
    try:
        record = worker.drive(workloads.WORKLOADS["library-long"], fw,
                              tiny_inputs("library-long"), round_count=1)
    finally:
        for module in package_modules(fw):
            for attr, value in list(vars(module).items()):
                if hasattr(value, "__wrapped__") and value.__name__ == "traced":
                    setattr(module, attr, value.__wrapped__)
    totals = tracer.totals()
    assert record["failed"] == 0
    assert totals["transform.transform_to.calls"] == record["attempted"]
    assert totals["core.parse_word.calls"] == 3 * record["attempted"]
    assert totals["transform.chain_moves"] > 0
    assert totals.get("errors.raised", 0) == 0
    assert len(tracer.span_start) == sum(tracer.calls)
    assert fw.transform_to is ORIGINALS["transform_to"]
