"""Run one repetition in a fresh child interpreter and collect what it used.

The child's CPU time and peak resident set come from wait4() on it, so
they cover the whole child, interpreter start and import included. Wall
time is the sum of the steps' own times, measured in the child. The raw
times are kept; ``scale`` is the factor that converts them to the
reference host speed (see ``REFERENCE_KERNEL_S``).
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
OUT = os.path.join(HERE, "out")

# Mean time of child.calibration_kernel on the machine the baseline was
# measured on (2-core Xeon VM at 2.0 GHz, Python 3.11.7, mpmath 1.3.0 on its
# python backend). A repetition's times are multiplied by this over the
# mean kernel time sampled while its steps ran.
REFERENCE_KERNEL_S = 0.0012


def run_rep(workload: str, inputs: dict, trace: bool, timeout: float) -> dict:
    """Spawn child.py for one repetition; kill it after timeout seconds."""
    scratch = os.path.join(OUT, "scratch")
    os.makedirs(scratch, exist_ok=True)
    spec = json.dumps(
        {"workload": workload, "inputs": inputs, "trace": trace, "scratch": scratch}
    )
    # one backend everywhere, so runs on different hosts compare
    env = dict(os.environ, MPMATH_NOGMPY="1")
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, CHILD, spec],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
    )
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        output = proc.stdout.read().decode(errors="replace")
    except BaseException:
        proc.kill()
        raise
    finally:
        timer.cancel()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    rep = {
        "rc": proc.returncode,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mib": usage.ru_maxrss / 1024,
        "setup_s": None,
        "wall_s": None,
        "scale": None,
        "kernel_s": 0.0,
        "samples": [],
        "backend": None,
        "ops": [],
        "trace": None,
        "error": None,
    }
    lines = output.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        rep["error"] = f"child exited {proc.returncode} without a report:\n" + output[-2000:]
        return rep
    kernel = [end - begin for begin, end in report["calibration"]]
    rep.update(
        setup_s=report["ready"] - start,
        wall_s=sum(op["seconds"] or 0.0 for op in report["ops"]),
        scale=REFERENCE_KERNEL_S / statistics.mean(kernel),
        kernel_s=sum(kernel),
        samples=report["calibration"],
        backend=report["backend"],
        ops=report["ops"],
        trace=report["trace"],
        error=report["error"],
    )
    return rep
