"""Reference outputs, and the check of a repetition's steps against them.

    python3 perfbench/golden.py [workload ...]   # record golden.json from the current program

golden.json holds, for every window a seed can select, what each step must
produce: sha256 digests of exact and byte outputs (the disproof stdout and
the rationals it swept, the compare CSV, the fig3 CSV and SVG, the check
stdout, the exact query's stdout) and float references with their stated
tolerance. The references were recorded from the program at the commit
that introduced the benchmark; two kinds are independent of the recording:
the float twin is held to the exact rational, and the Cauchy oracle to the
rational C(N, l) from exact_coefficients.

A step fails on a nonzero exit, a digest that differs, a float outside its
tolerance, or a missing output; a repetition whose child died counts one
more failed step.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction

import spawn
import workloads

PATH = os.path.join(spawn.HERE, "golden.json")

# The 256-bit float twin, printed to 17 digits, against the exact rational.
FLOAT_TWIN = {"rel_tol": "1e-15"}
# The asymptotic main term, H_l(N) and the arc integral, against the values
# recorded at the reference commit.
FLOAT_RECORDED = {"rel_tol": "1e-12"}
# The Cauchy oracle against the exact rational: the acceptance suite's level.
ORACLE = {"abs_tol": "1e-20"}


def key(inputs: dict) -> str:
    return json.dumps(inputs, sort_keys=True, separators=(",", ":"))


def load() -> dict:
    with open(PATH) as f:
        return json.load(f)


def _within(got, want: dict) -> bool:
    try:
        g, r = Fraction(got), Fraction(want["ref"])
    except (TypeError, ValueError, ZeroDivisionError):
        return False
    if "rel_tol" in want:
        return abs(g - r) <= Fraction(want["rel_tol"]) * abs(r)
    return abs(g - r) <= Fraction(want["abs_tol"])


def check_op(obs, ref: dict) -> list:
    """What is wrong with one step's observation; empty when it passes."""
    if obs is None:
        return ["step did not run"]
    problems = []
    if obs["rc"] != 0:
        problems.append(f"exit code {obs['rc']}")
    for label, want in ref["digests"].items():
        if obs["digests"].get(label) != want:
            problems.append(f"{label} digest differs")
    for label, want in ref["values"].items():
        got = obs["values"].get(label)
        if not _within(got, want):
            problems.append(f"{label} = {got} not within {want}")
    return problems


def check_rep(rep: dict, refs: dict):
    """(attempted, failed, problems) for one repetition against its references."""
    by_name = {obs["op"]: obs for obs in rep["ops"]}
    attempted = failed = 0
    problems = []
    for name in sorted(set(refs) | set(by_name)):
        attempted += 1
        found = check_op(by_name.get(name), refs[name]) if name in refs else ["unexpected step"]
        if found:
            failed += 1
            problems.append(f"{name}: " + "; ".join(found))
    if rep["error"]:
        attempted += 1
        failed += 1
        problems.append("repetition: " + rep["error"].strip().splitlines()[-1])
    return attempted, failed, problems


def make_reference(workload: str, inputs: dict, ops: list) -> dict:
    """References for one window from a clean repetition's observations."""
    refs = {}
    values = {}
    for obs in ops:
        if obs["rc"] != 0:
            raise RuntimeError(f"{workload} {inputs}: step {obs['op']} exited {obs['rc']}")
        refs[obs["op"]] = {"digests": dict(obs["digests"]), "values": {}}
        values[obs["op"]] = obs["values"]
    if workload == "pointwise":
        exact = values["exact"]["C"]
        refs["exact"]["values"]["C"] = {"ref": exact, "abs_tol": "0"}
        refs["exact_float"]["values"]["C"] = {"ref": exact, **FLOAT_TWIN}
        for step, label in (("asymptotic", "C"), ("asymptotic", "H"), ("integral", "C")):
            refs[step]["values"][label] = {"ref": values[step][label], **FLOAT_RECORDED}
    if workload == "quadrature":
        sys.path.insert(0, os.path.join(spawn.ROOT, "src"))
        from radpfd.exact import exact_coefficients

        for N in inputs["oracle_N"]:
            vector = exact_coefficients(N)
            for l in inputs["oracle_l"]:
                q = vector.coeff(l)
                refs[workloads.oracle_step(N, l)]["values"] = {
                    "re": {"ref": f"{q.numerator}/{q.denominator}", **ORACLE},
                    "im": {"ref": "0", **ORACLE},
                }
    return refs


def record(names) -> dict:
    """References for the named workloads, recorded from the current program."""
    golden = {}
    for workload in names:
        golden[workload] = {}
        for inputs in workloads.windows(workload):
            rep = spawn.run_rep(workload, inputs, trace=False, timeout=900)
            if rep["error"]:
                raise RuntimeError(f"{workload} {inputs}: {rep['error']}")
            refs = make_reference(workload, inputs, rep["ops"])
            attempted, failed, problems = check_rep(rep, refs)
            if failed:
                raise RuntimeError(f"{workload} {inputs}: {problems}")
            golden[workload][key(inputs)] = refs
            print(workload, key(inputs), f"{rep['wall_s']:.2f} s", flush=True)
    return golden


if __name__ == "__main__":
    result = load() if os.path.exists(PATH) else {}
    result.update(record(sys.argv[1:] or workloads.NAMES))
    with open(PATH, "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)
        f.write("\n")
