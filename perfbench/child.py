"""One repetition of a benchmark workload, in a fresh interpreter.

    python3 perfbench/child.py '<spec as JSON>'

The spec gives the workload, its inputs, a scratch directory and whether to
trace. Set-up ends when ``import radpfd.cli`` completes, the import the
``radpfd`` command makes; the child reports that monotonic time so that the
parent measures set-up from the moment it spawned the child. Module caches
(the arc-node and Legendre caches) start cold, as they do for a CLI user.

Each step is one CLI call through ``radpfd.cli.main`` or one library call,
timed with its stdout and stderr captured. Its observation holds the exit
code, the seconds the call took, sha256 digests of exact and byte outputs,
and the decimal strings of float outputs; the parent checks them against
the references. The last line of stdout is one JSON object.

The speed of a shared host changes many times a second, by up to a factor
of two (each vCPU's share of its physical core comes and goes), and its
average over seconds drifts by tens of percent. So while the steps run, a
timer interrupts them every SAMPLE_PERIOD_S and times a short calibration
kernel, made of the kinds of arithmetic radpfd spends its time on but owned
by the benchmark. The mean kernel time follows the host's speed over the
same moments as the steps; the parent scales the repetition's times by it.
The kernel's own time is taken out of the steps' times.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import radpfd.cli  # noqa: E402

READY = time.monotonic()

import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import inspect  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import signal  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

import mpmath as mp  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402


def _digest(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def _field(line: str, index: int = -1):
    """The index-th ' = '-separated field of a CLI output line, or None."""
    parts = line.split(" = ")
    return parts[index].strip() if len(parts) > 1 else None


SAMPLE_PERIOD_S = 0.05


def calibration_kernel():
    """Fixed work of the kinds radpfd spends its time on: a Fraction sum with
    growing denominators and a 256-bit mpf iteration. It uses no mpmath
    function that caches constants, so it leaves the program's caches cold,
    and it restores the mpmath precision it changes."""
    total = Fraction(0)
    for k in range(1, 70):
        total += Fraction(1, k)
    with mp.workprec(256):
        x = mp.mpf(1)
        for k in range(1, 120):
            x = (x + mp.mpf(k) / x) / 2
    return total, x


class Calibration:
    """Runs calibration_kernel from a SIGALRM timer while it is entered."""

    def __init__(self):
        self.samples = []  # (start, end) of each kernel run
        self.spent = 0.0

    def sample(self, *_):
        start = time.perf_counter()
        calibration_kernel()
        end = time.perf_counter()
        self.samples.append((start, end))
        self.spent += end - start

    def __enter__(self):
        calibration_kernel()  # the first call pays one-time costs
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


class Steps:
    """Runs the steps of one repetition and keeps their observations."""

    def __init__(self, tracer, calibration):
        self.tracer = tracer
        self.calibration = calibration
        self.observations = []

    def call(self, name, fn):
        """Run fn() timed, output captured; returns (observation, result, stdout)."""
        obs = {"op": name, "rc": None, "seconds": None, "digests": {}, "values": {}}
        self.observations.append(obs)
        out, err = io.StringIO(), io.StringIO()
        span = self.tracer.span("bench." + name) if self.tracer else contextlib.nullcontext()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span:
            start = time.perf_counter()
            spent = self.calibration.spent
            result = fn()
            spent = self.calibration.spent - spent
            obs["seconds"] = time.perf_counter() - start - spent
        obs["rc"] = 0
        return obs, result, out.getvalue()

    def cli(self, name, *argv):
        """One ``radpfd`` command; returns (observation, stdout)."""
        argv = [str(a) for a in argv]
        obs, rc, stdout = self.call(name, lambda: radpfd.cli.main(argv))
        obs["rc"] = rc
        return obs, stdout


def sweep(steps, inputs, scratch):
    n_from, n_to = inputs["n_from"], inputs["n_to"]
    seen = {}
    current = radpfd.exact.coefficient_range

    def recording(*args, **kwargs):
        for vector in current(*args, **kwargs):
            seen[vector.N] = vector
            yield vector

    # keep the rationals the CLI computed, to check them without a second sweep
    restore = spans.rebind({current: recording})
    try:
        obs, out = steps.cli("disproof", "disproof", "--from", n_from, "--to", n_to, "--l", 1)
    finally:
        restore()
    obs["digests"]["stdout"] = _digest(out)
    if not seen:  # the command no longer sweeps through coefficient_range
        seen = {v.N: v for v in radpfd.exact.coefficient_range(n_from, n_to)}
    lines = []
    for N in range(n_from, n_to + 1):
        values = seen[N].values if N in seen else ()
        lines.append(f"{N}: " + " ".join(f"{q.numerator}/{q.denominator}" for q in values))
    obs["digests"]["rationals"] = _digest("\n".join(lines))


def pointwise(steps, inputs, scratch):
    N, l = inputs["N"], inputs["l"]
    obs, out = steps.cli("exact", "exact", "--N", N, "--l", l)
    obs["digests"]["stdout"] = _digest(out)
    obs["values"]["C"] = _field(out, 1)
    obs, out = steps.cli("exact_float", "exact", "--N", N, "--l", l, "--float-exact")
    obs["values"]["C"] = _field(out)
    obs, out = steps.cli("asymptotic", "asymptotic", "--N", N, "--l", l)
    lines = out.splitlines() + ["", ""]
    obs["values"]["C"] = _field(lines[0])
    obs["values"]["H"] = _field(lines[1])
    obs, out = steps.cli("integral", "integral", "--N", N, "--l", l)
    obs["values"]["C"] = _field(out)


def _fig3(n_to, out_dir):
    """fig3's dataset and chart (exact vs arc integral, l = 1) over N = 1..n_to."""
    stem, cfg, nodes = next(c for c in radpfd.report.figure_configs() if c[0] == "fig3")
    cfg = dataclasses.replace(cfg, n_from=1, n_to=n_to)
    write = radpfd.cli.write_figures
    # the output-format argument is unused and slated for removal
    fmt = {"fmt": "svg"} if "fmt" in inspect.signature(write).parameters else {}
    return write([(stem, cfg, nodes)], out_dir, emit_svg=True, **fmt)


def quadrature(steps, inputs, scratch):
    n_to = inputs["n_to"]
    obs, out = steps.cli("compare", "compare", "--from", 1, "--to", n_to,
                         "--modes", "exact,integral")
    obs["digests"]["stdout"] = _digest(out)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        obs, paths, _ = steps.call("fig3", lambda: _fig3(n_to, Path(tmp)))
        for path in paths:
            obs["digests"][path.suffix.lstrip(".")] = _digest(path.read_bytes())
    contour = radpfd.contour
    for N in inputs["oracle_N"]:
        for l in inputs["oracle_l"]:
            obs, oracle, _ = steps.call(
                workloads.oracle_step(N, l),
                lambda: contour.cauchy_oracle(l, N, contour.oracle_spec(N)),
            )
            obs["values"]["re"] = mp.nstr(oracle.value.real, 50)
            obs["values"]["im"] = mp.nstr(oracle.value.imag, 50)
    obs, out = steps.cli("check", "check")
    obs["digests"]["stdout"] = _digest(out)


def probe(steps, inputs, scratch):
    """A set-up probe: no steps, only the calibration samples that scale its set-up time."""
    time.sleep(PROBE_S)


PROBE_S = 0.2
WORKLOADS = {"sweep": sweep, "pointwise": pointwise, "quadrature": quadrature, "probe": probe}


def main() -> int:
    spec = json.loads(sys.argv[1])
    tracer = spans.Tracer() if spec["trace"] else None
    if tracer is not None:
        spans.install(tracer)
    error = None
    with Calibration() as calibration:
        steps = Steps(tracer, calibration)
        try:
            WORKLOADS[spec["workload"]](steps, spec["inputs"], spec["scratch"])
        except Exception:  # reported to the parent, which counts the failure
            error = traceback.format_exc()
    print(json.dumps({
        "ready": READY,
        "backend": mp.libmp.BACKEND,
        "ops": steps.observations,
        "calibration": calibration.samples,
        "error": error,
        "trace": tracer.export(calibration.samples) if tracer is not None else None,
    }))
    return 0 if error is None else 1


if __name__ == "__main__":
    raise SystemExit(main())
