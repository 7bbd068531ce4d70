#!/usr/bin/env python3
"""Benchmark of radpfd: end-to-end metrics untraced, per-layer metrics traced.

    python3 perfbench/run.py --workload sweep --seed 3 --seconds 36 --trace 0
    python3 perfbench/run.py                 # every workload, seed 0, untraced

A run repeats the workload in fresh child interpreters, one at a time, for
about --seconds (at least three repetitions), checks every step against
golden.json, and reports the median over repetitions of each metric; the
time left after the last repetition goes to set-up probes, children that
only import radpfd, so that setup_s is a median of many set-ups. With
--trace 1 it alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones, plus the tracing overhead. Each run
writes its manifest, per-repetition values and (traced) spans under
perfbench/out/. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. The exit code is 0 only when
every step of every repetition matched its reference.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time

import golden
import spans
import spawn
import workloads

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
)
MIN_REPS = 3
PROBE_GUESS_S = 0.5
# no repetition starts once a run would pass this, so a run ends within 180 s
LIMIT_S = 150.0


def per_layer_units() -> dict:
    units = {}
    for name in spans.REPORTED:
        units[name + ".s"] = "s"
        units[name + ".calls"] = "count"
    for layer in spans.LAYERS:
        units[f"layer.{layer}.s"] = "s"
    units.update({"contour.arc_cold_s": "s", "contour.arc_warm_s": "s"})
    units.update(dict(spans.COUNTERS))
    units.update({"trace.spans": "count", "trace.wall_s": "s", "trace.overhead_s": "s"})
    return units


def _commit() -> str:
    """The checkout's git commit, read from .git without running git."""
    git = os.path.join(spawn.ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _loadavg() -> str:
    with open("/proc/loadavg") as f:
        return f.read().strip()


def _scaled(rep: dict) -> dict:
    """A repetition's end-to-end values, times at the reference host speed."""
    return {
        "wall_s": rep["wall_s"] * rep["scale"],
        "cpu_s": (rep["cpu_s"] - rep["kernel_s"]) * rep["scale"],
        "setup_s": rep["setup_s"] * rep["scale"],
        "peak_rss_mib": rep["peak_rss_mib"],
    }


def _median(values, low=False):
    """Median of the values present; median_low keeps counts whole."""
    values = [v for v in values if v is not None]
    if not values:
        return 0.0
    return statistics.median_low(values) if low else statistics.median(values)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    inputs = workloads.inputs_for(workload, seed)
    refs = golden.load()[workload][golden.key(inputs)]
    manifest = {
        "workload": workload,
        "seed": seed,
        "inputs": inputs,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": _commit(),
        "loadavg_start": _loadavg(),
    }
    reps = []
    start = time.monotonic()
    while True:
        traced = trace and len(reps) % 2 == 1
        budget = LIMIT_S + 25.0 - (time.monotonic() - start)
        rep = spawn.run_rep(workload, inputs, traced, timeout=max(budget, 1.0))
        rep["traced"] = traced
        rep["attempted"], rep["failed"], rep["problems"] = golden.check_rep(rep, refs)
        reps.append(rep)
        elapsed = time.monotonic() - start
        next_end = elapsed + elapsed / len(reps)
        enough = len(reps) >= (2 if trace else MIN_REPS)
        if (enough and next_end > seconds) or next_end > LIMIT_S:
            break
    # the rest of the run takes more set-up samples, from children that
    # only import radpfd and sample the calibration kernel
    probes = []
    probe_s = PROBE_GUESS_S
    while not trace and time.monotonic() - start + probe_s <= seconds:
        begin = time.monotonic()
        probe = spawn.run_rep("probe", {}, False, timeout=30.0)
        probe_s = time.monotonic() - begin
        attempted, failed, problems = golden.check_rep(probe, {})
        probe.update(traced=False, attempted=attempted, failed=failed, problems=problems)
        probes.append(probe)
    manifest["loadavg_end"] = _loadavg()
    manifest["mpmath_backend"] = sorted({r["backend"] for r in reps if r["backend"]})
    manifest["repetitions"] = len(reps)
    manifest["setup_probes"] = len(probes)
    manifest["measured_s"] = time.monotonic() - start

    plain = [r for r in reps if not r["traced"] and r["scale"]]
    if trace:
        traced = [r for r in reps if r["traced"] and r["scale"] and r["trace"]]
        units = per_layer_units()
        per_rep = []
        for r in traced:
            values = spans.layer_metrics(r["trace"])
            values["trace.wall_s"] = r["wall_s"]
            per_rep.append({k: v * r["scale"] if units[k] == "s" else v for k, v in values.items()})
        values = {
            name: _median([m.get(name) for m in per_rep], low=units[name] != "s")
            for name in units
        }
        values["trace.overhead_s"] = values["trace.wall_s"] - _median(
            [r["wall_s"] * r["scale"] for r in plain]
        )
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    else:
        metrics = {
            name: {"value": _median([_scaled(r)[name] for r in plain]), "unit": unit}
            for name, unit in END_TO_END
        }
        setups = [r["setup_s"] * r["scale"] for r in plain + probes if r["scale"]]
        metrics["setup_s"]["value"] = _median(setups)
    manifest["host_speed"] = _median([r["scale"] for r in plain])
    manifest["raw_median"] = {
        name: _median([r[name] for r in plain]) for name in ("wall_s", "cpu_s", "setup_s")
    }
    attempted = sum(r["attempted"] for r in reps + probes)
    failed = sum(r["failed"] for r in reps + probes)
    result = {
        "manifest": manifest,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "problems": sorted({p for r in reps + probes for p in r["problems"]}),
        "repetitions": [
            {k: r[k] for k in ("traced", "rc", "scale", "setup_s", "wall_s", "cpu_s",
                               "kernel_s", "peak_rss_mib", "attempted", "failed")}
            for r in reps
        ],
        "setup_probes_s": [r["setup_s"] for r in probes],
    }
    _write(result, reps)
    return result


def _write(result: dict, reps: list):
    m = result["manifest"]
    stem = f"{m['workload']}-seed{m['seed']}-trace{int(m['trace'])}"
    os.makedirs(spawn.OUT, exist_ok=True)
    with open(os.path.join(spawn.OUT, f"result-{stem}.json"), "w") as f:
        json.dump(result, f, indent=1)
    traced = [(i, r) for i, r in enumerate(reps) if r["traced"] and r["trace"]]
    if traced:
        runs = [
            {"run_id": f"{stem}-rep{i}", "self_s": spans.summary(r["trace"]), **r["trace"]}
            for i, r in traced
        ]
        with open(os.path.join(spawn.OUT, f"trace-{stem}.json"), "w") as f:
            json.dump({"manifest": m, "span_fields": ["name", "start", "end", "parent"],
                       "runs": runs}, f)


def _print(result: dict):
    m = result["manifest"]
    reps = result["repetitions"]
    share = result["failed"] / max(result["attempted"], 1)
    print(f"workload {m['workload']}  seed {m['seed']}  inputs {json.dumps(m['inputs'])}")
    print(f"  repetitions {len(reps)} ({sum(r['traced'] for r in reps)} traced)  "
          f"steps attempted {result['attempted']}  failed {result['failed']}  "
          f"fail_share {share:.4g}")
    raw = "  ".join(f"{k} {v:.4g} s" for k, v in m["raw_median"].items())
    print(f"  host speed {m['host_speed']:.4g} of reference; raw medians: {raw}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<40} {metric['value']:>14.6g} {metric['unit']}")
    for problem in result["problems"]:
        print(f"  FAIL {problem}")
    print("manifest " + json.dumps(m))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.NAMES + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(spawn.ROOT, "src", "radpfd")):
        print(f"error: no radpfd sources under {spawn.ROOT}/src", file=sys.stderr)
        return 2

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = measure(name, args.seed, args.seconds, bool(args.trace))
        _print(results[name])
    if len(results) == 1:
        (only,) = results.values()
        metrics = only["metrics"]
    else:
        metrics = {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()}
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
