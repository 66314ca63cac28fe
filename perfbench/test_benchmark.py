"""Self-tests of the benchmark itself.

    python3 -m pytest perfbench -q

Tracing must not change a report byte, the exact counters must repeat when
the same trial is traced twice, and BENCHMARK.json must list the metrics
run.py prints.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import EXACT_COUNTERS, LAYER_METRICS, SUITE_NAMES, Tracer  # noqa: E402
from worker import traced_trial  # noqa: E402

SEED = 1234


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tracing_is_transparent_and_exact_counters_repeat(name):
    from planalg import tangles, tower
    workload = workloads.WORKLOADS[name]
    # the warm-up fills the process-global caches, so both traced trials
    # below start from the same state
    reference = workloads.run_trial(workload, workloads.REFERENCE_SEED)
    assert workloads.report_digest([reference]) == workload.digest
    plain = workloads.report_bytes(workloads.run_trial(workload, SEED))
    originals = (tower.sharp, tower.evaluate, tangles.Element.multiply)

    tracer = Tracer()
    first = traced_trial(tracer, 1)(workload, SEED)
    second = traced_trial(tracer, 2)(workload, SEED)

    assert workloads.report_bytes(first) == plain
    assert workloads.report_bytes(second) == plain
    counts = tracer.exact_counters([1])
    assert counts == tracer.exact_counters([2])
    assert set(counts) == set(EXACT_COUNTERS) and counts["tangles.evaluate_calls"] > 0
    assert (tower.sharp, tower.evaluate, tangles.Element.multiply) == originals


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    # span 0 (outer, 0..10) holds span 1 (inner, 2..5), which holds span 2
    # (outer again, 3..4)
    for name, parent, start, end in (("a", -1, 0.0, 10.0), ("b", 0, 2.0, 5.0),
                                      ("a", 1, 3.0, 4.0)):
        tracer.name_of.append(tracer._id(name))
        tracer.parent.append(parent)
        tracer.trial_of.append(1)
        tracer.start.append(start)
        tracer.end.append(end)
    totals = tracer.span_totals([1])
    assert totals["a"]["self_s"] == 7.0 + 1.0
    assert totals["b"]["self_s"] == 2.0
    assert totals["a"]["incl_s"] == 10.0        # the nested "a" is inside
    assert totals["a"]["calls"] == 2


def test_tail_leaves_ten_trials_beyond():
    assert run.tail([float(t) for t in range(1, 31)]) == (20.0, 100 * 20 / 30)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_benchmark_json_lists_what_run_prints():
    from planalg import suites
    assert sorted(SUITE_NAMES) == sorted(suites.SUITE_NAMES)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == LAYER_METRICS
