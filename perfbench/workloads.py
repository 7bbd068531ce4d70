"""The three workloads: what a seed selects, and the inputs of each window.

A seed picks one window out of a short list. Within a list every window
costs the same, so the spread between runs with different seeds is the
host's noise and not a change of problem size:

* sweep: ``radpfd disproof --from n_from --to 80``. The incremental exact
  sweep runs j = 1..n_to whatever n_from is, so the seed moves n_from over
  1..16 and keeps n_to, and the span (64..79) covers at least two periods.
* pointwise: one-shot queries at N = 88. The exact and float engines build
  every l at once, so the seed picks l in 1..8 at a fixed N.
* quadrature: the seed shifts the three l values of the Cauchy-oracle grid
  by 0..7; the oracle's cost depends on N and its node count, not on l.

This module imports nothing from radpfd, so the parent process can use it.
"""

from __future__ import annotations

NAMES = ("sweep", "quadrature", "pointwise")

SWEEP_TO = 80
SWEEP_WINDOWS = 16
POINTWISE_N = 88
POINTWISE_WINDOWS = 8
QUADRATURE_TO = 40
ORACLE_NS = (12, 18, 24)
ORACLE_WINDOWS = 8


def windows(workload: str) -> list:
    """Every input set the workload's seeds can select, in seed order."""
    if workload == "sweep":
        return [{"n_from": 1 + k, "n_to": SWEEP_TO} for k in range(SWEEP_WINDOWS)]
    if workload == "pointwise":
        return [{"N": POINTWISE_N, "l": 1 + k} for k in range(POINTWISE_WINDOWS)]
    if workload == "quadrature":
        return [
            {
                "n_to": QUADRATURE_TO,
                "oracle_N": list(ORACLE_NS),
                "oracle_l": [k + 1, k + 2, k + 3],
            }
            for k in range(ORACLE_WINDOWS)
        ]
    raise ValueError(f"unknown workload {workload!r}")


def inputs_for(workload: str, seed: int) -> dict:
    """The inputs one seed selects; the same seed always selects the same."""
    choices = windows(workload)
    return choices[seed % len(choices)]


def oracle_step(N: int, l: int) -> str:
    """Name of the validation step that checks cauchy_oracle(l, N)."""
    return f"oracle_N{N}_l{l}"
