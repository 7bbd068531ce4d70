"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/tests -q

The failure counter, the self-time arithmetic and the seed windows are
tested on synthetic data; a tiny-size repetition of each workload runs the
real program untraced, records references from it, and must pass against
them when traced.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import golden  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import spawn  # noqa: E402
import workloads  # noqa: E402

DIGEST = "ab" * 32


def _refs():
    return {
        "cmd": {"digests": {"stdout": DIGEST}, "values": {}},
        "float": {"digests": {}, "values": {"C": {"ref": "1/3", **golden.FLOAT_TWIN}}},
        "oracle": {"digests": {}, "values": {"re": {"ref": "-1", **golden.ORACLE}}},
    }


def _rep(**changes):
    ops = {
        "cmd": {"op": "cmd", "rc": 0, "digests": {"stdout": DIGEST}, "values": {}},
        "float": {"op": "float", "rc": 0, "digests": {}, "values": {"C": "0.33333333333333333"}},
        "oracle": {"op": "oracle", "rc": 0, "digests": {}, "values": {"re": "-1.0000000000000000000001"}},
    }
    for name, fields in changes.items():
        ops[name].update(fields)
    return {"ops": list(ops.values()), "error": None}


def test_clean_repetition_passes():
    assert golden.check_rep(_rep(), _refs()) == (3, 0, [])


def test_flipped_digest_fails():
    flipped = "ac" + DIGEST[2:]
    attempted, failed, problems = golden.check_rep(_rep(cmd={"digests": {"stdout": flipped}}), _refs())
    assert (attempted, failed) == (3, 1)
    assert "digest differs" in problems[0]


def test_nonzero_exit_fails():
    attempted, failed, problems = golden.check_rep(_rep(cmd={"rc": 2}), _refs())
    assert (attempted, failed) == (3, 1)
    assert "exit code 2" in problems[0]


@pytest.mark.parametrize(
    "step, value, ok",
    [
        ("float", {"C": "0.3333333333333336"}, True),  # 8e-16 relative
        ("float", {"C": "0.333333333333334"}, False),  # 2e-15 relative
        ("oracle", {"re": "-1.00000000000000000002"}, False),  # 2e-20 absolute
        ("oracle", {"re": "nan"}, False),
        ("float", {}, False),
    ],
)
def test_float_tolerance(step, value, ok):
    _, failed, _ = golden.check_rep(_rep(**{step: {"values": value}}), _refs())
    assert failed == (0 if ok else 1)


def test_missing_step_and_child_error_fail():
    rep = _rep()
    rep["ops"].pop()
    rep["error"] = "Traceback ...\nZeroDivisionError: boom"
    attempted, failed, problems = golden.check_rep(rep, _refs())
    assert (attempted, failed) == (4, 2)
    assert any("did not run" in p for p in problems)


def test_self_times_on_synthetic_tree():
    tree = [
        ["bench.step", 0.0, 10.0, None],  # 0
        ["report.build_rows", 1.0, 6.0, 0],  # 1
        ["exact.coefficient_range", 2.0, 3.0, 1],  # 2
        ["exact.coefficient_range", 4.0, 5.5, 1],  # 3: second resumption
        ["contour.integral_approx_C", 7.0, 9.0, 0],  # 4 cold
        ["contour.integral_approx_at", 7.5, 8.5, 4],  # 5
        ["contour.integral_approx_C", 9.0, 9.5, 0],  # 6 warm
        ["contour.integral_approx_C", 9.5, 9.75, 0],  # 7 warm
    ]
    assert spans.self_times(tree) == [2.25, 2.5, 1.0, 1.5, 1.0, 1.0, 0.5, 0.25]
    own = spans.summary({"spans": tree})
    assert own["by_layer"] == {"bench": 2.25, "report": 2.5, "exact": 2.5, "contour": 2.75}
    metrics = spans.layer_metrics({"spans": tree, "calls": {"exact.coefficient_range": 1},
                                   "counters": {}})
    assert metrics["exact.coefficient_range.s"] == 2.5
    assert metrics["exact.coefficient_range.calls"] == 1
    assert metrics["contour.arc_cold_s"] == 2.0
    assert metrics["contour.arc_warm_s"] == 0.375
    assert metrics["layer.svg.s"] == 0.0


def test_calibration_samples_leave_the_innermost_enclosing_span():
    tree = [
        ["bench.step", 0.0, 10.0, None],
        ["exact.exact_coefficients", 1.0, 6.0, 0],
        ["exact.unit_factor", 2.0, 3.0, 1],
    ]
    # inside unit_factor, inside exact_coefficients after unit_factor, and between steps
    samples = [(2.25, 2.5), (4.0, 4.5), (11.0, 11.5)]
    merged = spans.with_samples(tree, samples)
    assert [s[3] for s in merged[3:]] == [2, 1, None]
    assert spans.self_times(merged)[:3] == [5.0, 3.5, 0.75]
    own = spans.summary({"spans": merged})["by_layer"]
    assert own["exact"] == 4.25 and own["calibration"] == 1.25


def test_overlapping_and_overhanging_children_count_once():
    tree = [["a.x", 0.0, 4.0, None], ["b.y", 1.0, 3.0, 0], ["b.z", 2.0, 5.0, 0]]
    assert spans.self_times(tree)[0] == 1.0


def test_seed_selects_a_window_with_references():
    refs = golden.load()
    for name in workloads.NAMES:
        assert workloads.inputs_for(name, 7) == workloads.inputs_for(name, 7)
        chosen = {golden.key(workloads.inputs_for(name, seed)) for seed in range(-3, 40)}
        assert chosen == {golden.key(w) for w in workloads.windows(name)} == set(refs[name])


def test_sweep_window_keeps_two_periods():
    for w in workloads.windows("sweep"):
        assert w["n_to"] - w["n_from"] >= 64


def test_benchmark_json_lists_what_run_reports():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in bench["workloads"]] == list(workloads.NAMES)


TINY = {
    "sweep": {"n_from": 1, "n_to": 65},
    "pointwise": {"N": 12, "l": 2},
    "quadrature": {"n_to": 6, "oracle_N": [6], "oracle_l": [1, 2]},
}


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_tiny_smoke_run(workload):
    inputs = TINY[workload]
    plain = spawn.run_rep(workload, inputs, trace=False, timeout=120)
    assert plain["error"] is None
    refs = golden.make_reference(workload, inputs, plain["ops"])
    traced = spawn.run_rep(workload, inputs, trace=True, timeout=120)
    assert golden.check_rep(traced, refs) == (len(refs), 0, [])
    metrics = spans.layer_metrics(traced["trace"])
    assert metrics["cli.main.calls"] >= 1
    assert metrics["trace.spans"] > len(refs)
    assert plain["setup_s"] > 0 and plain["cpu_s"] > 0 and plain["peak_rss_mib"] > 0


def test_setup_probe_only_imports_and_calibrates():
    probe = spawn.run_rep("probe", {}, trace=False, timeout=60)
    assert probe["error"] is None and probe["ops"] == []
    assert probe["setup_s"] > 0 and probe["scale"] > 0 and len(probe["samples"]) >= 2
    assert golden.check_rep(probe, {}) == (0, 0, [])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
