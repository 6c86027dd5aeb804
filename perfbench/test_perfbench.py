"""Tests of the benchmark itself: python3 -m pytest -q perfbench"""

import gc
import importlib.util
import json
import re
import sys
from pathlib import Path

import pytest

from harness import (
    COUNTED_CASES, NULL, ROOT, SRC, Stratum, Tracer, calibration_loop_s, case_rng, run_cases,
    scaled_durations, write_bytecode,
)

sys.path.insert(0, str(SRC))

import workloads  # noqa: E402
from run import EXPECTED_SPLIT, layer_values, split_report  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
COUNTERS = ["groupoidstack.points_built", "eulerlab.tuples_counted", "exactlinalg.entries",
            "cyclonum.max_conductor", "cli.report_bytes"]


def first_round_counters(name, seed):
    workload = workloads.WORKLOADS[name](seed, NULL)
    tracer = Tracer()
    loop = run_cases(workload, tracer, 0, min_cases=len(workload.round(1)))
    assert loop.failures == []
    return {k: v for k, v in tracer.counters.items() if k in COUNTERS}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_counters_repeat_for_the_same_seed(name):
    first = first_round_counters(name, 7)
    assert first, "the workload records no counter"
    assert first == first_round_counters(name, 7)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_another_seed_changes_the_inputs(name):
    def labels(seed):
        workload = workloads.WORKLOADS[name](seed, NULL)
        return [case.label for r in range(1, 5) for case in workload.round(r)]

    assert labels(3) == labels(3)
    assert labels(3) != labels(4)


def test_metric_names():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names + COUNTERS:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name
    assert set(COUNTERS) <= {m["name"] for m in SPEC["per_layer"]}
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)
    assert set(EXPECTED_SPLIT) <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("seed", range(20))
def test_stratum_spreads_a_run_of_rounds_over_the_sorted_candidates(seed):
    stratum = Stratum(list(range(100)), lambda c: c, case_rng(seed, "t"))
    deciles = [0] * 10
    for r in range(100):
        deciles[stratum.pick(r) // 10] += 1
    # i.i.d. draws would leave some decile with 4 or fewer, or 16 or more
    assert 8 <= min(deciles) and max(deciles) <= 12


def test_split_report_names_each_miss():
    shares = {"groupoidstack": 0.4, "eulerlab": 0.6, "exactlinalg": 0.0}
    misses = split_report("ladder", shares)
    assert len(misses) == 1 and misses[0].startswith("groupoidstack share 0.400")
    assert split_report("ladder", {"groupoidstack": 0.9}) == []


def test_a_wrong_result_counts_as_failed():
    class Broken:
        def round(self, r):
            return [workloads.Case("broken", str(r), lambda t: workloads.check(False, "no"))]

    loop = run_cases(Broken(), NULL, 0, min_cases=3)
    assert len(loop.durations) == 3 and len(loop.failures) == 3


def test_layer_times_cover_fixed_work_only():
    tracer = Tracer()
    tracer.add_span("smallgroups.group_catalog", 0.0, 1.0, None)  # set-up
    for n in range(COUNTED_CASES + 50):
        tracer.case_id = n
        tracer.add_span("cyclonum.add", 0.0, 1.0, None)
    tracer.case_id = "calibration"
    tracer.add_span("cyclonum.add", 0.0, 1.0, None)
    assert tracer.layer_totals() == {"smallgroups.group_catalog": 1.0,
                                     "cyclonum.add": COUNTED_CASES + 1.0}


def test_calibration_loop_allocates_nothing_the_collector_would_see():
    passes = []

    def record(phase, info):
        passes.append(phase)

    gc.collect()
    gc.callbacks.append(record)
    try:
        before = gc.get_count()[0]
        assert calibration_loop_s() > 0
        after = gc.get_count()[0]
    finally:
        gc.callbacks.remove(record)
    assert passes == [] and after - before < 10


def test_calibration_pass_makes_every_layer_metric_non_zero():
    tracer = Tracer()
    workloads.calibrate(tracer)
    values = layer_values(SPEC, tracer.layer_totals(), tracer.counters, interpreter_s=1.0)
    assert [name for name, value in values.items() if not value > 0] == []


def test_each_case_is_scaled_by_the_median_scale_around_it():
    scales = [1.0] * 5 + [0.5] * 5
    assert scaled_durations([1.0] * 10, scales) == [1.0] * 5 + [0.5] * 5


def test_bytecode_is_written_for_every_package_module():
    write_bytecode()
    for path in sorted((SRC / "stackyrr").glob("*.py")):
        assert Path(importlib.util.cache_from_source(str(path))).is_file(), path.name
