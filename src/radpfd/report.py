"""Comparison tables, peak analysis, and serialization.

Builds per-N rows holding the exact coefficient next to its asymptotic
and integral approximations, finds the peaks of |C(N, l)| that witness
the oscillating exponential growth, and serializes everything as CSV or
JSON deterministically: the same configuration always produces the same
bytes.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import mpmath as mp

from .contour import _integrals
from .exact import _to_mpf, coefficient_range, decimal_str, rational_str
from .saddle import _saddle_precision, asymptotic_C, saddle_constants
from .specfun import _GUARD, _check_precision

__all__ = [
    "ComparisonRow",
    "RunConfig",
    "DisproofReport",
    "CSV_HEADER",
    "build_rows",
    "emit_csv",
    "emit_json",
    "find_peaks",
    "analyze_divergence",
    "magnitude_series",
    "figure_configs",
]

CSV_HEADER = "N,l,exact_rational,exact_decimal,asymptotic,integral,abs_err_asym,rel_err_asym"

_MODES = ("exact", "asymptotic", "integral")


@dataclass(frozen=True)
class ComparisonRow:
    N: int
    l: int
    exact: Optional[Fraction]
    asymptotic: Optional[mp.mpf]
    integral: Optional[mp.mpf]
    abs_err_asym: Optional[mp.mpf]
    rel_err_asym: Optional[mp.mpf]


@dataclass(frozen=True)
class RunConfig:
    precision_bits: int = 256
    n_from: int = 1
    n_to: int = 1
    l: int = 1
    modes: frozenset = frozenset({"exact", "asymptotic"})

    def __post_init__(self):
        if self.n_from < 1:
            raise ValueError("n_from must be a positive integer")
        if self.n_from > self.n_to:
            raise ValueError("empty range: n_from > n_to")
        _check_precision(self.precision_bits)
        if self.l < 1:
            raise ValueError("l must be a positive integer")
        if not self.modes:
            raise ValueError("modes must be nonempty")
        for m in self.modes:
            if m not in _MODES:
                raise ValueError(f"unknown mode {m!r}")


@dataclass(frozen=True)
class DisproofReport:
    peaks: tuple  # (N, magnitude) pairs
    spacings: tuple
    ratios: tuple
    growth: Optional[mp.mpf]  # last peak magnitude / first peak magnitude
    threshold: Optional[mp.mpf]  # expected exponential factor over the same span
    verdict: str


@functools.lru_cache(maxsize=1)
def _exact_window(n_from: int, n_to: int):
    """{N: CoefficientVector of N} over n_from..n_to from one incremental
    sweep.  The latest window is kept, so figures whose configs share an
    exact window (fig1 and fig2) sweep it once; cli.write_figures drops it
    when it is done."""
    return {vec.N: vec for vec in coefficient_range(n_from, n_to)}


def build_rows(cfg: RunConfig):
    """One ComparisonRow per N in [n_from, n_to] for the configured l.

    The rows where l > N come first and leave every cell empty (no such
    coefficient exists, so nothing approximates it).  One pass builds
    the rest: exact values from a single incremental sweep over the
    N >= l of the range, the integral column from contour._integrals,
    which splits the arc integrals of those N across the CPUs, and the
    exact value in mpf only where the two asymptotic error cells read it.
    """
    prec, l = cfg.precision_bits, cfg.l
    Ns = range(max(cfg.n_from, l), cfg.n_to + 1)  # the N >= l only
    rows = [ComparisonRow(N, l, *[None] * 5) for N in range(cfg.n_from, min(l, cfg.n_to + 1))]
    if not Ns:
        return rows
    saddle = functools.cache(saddle_constants)  # one solve per precision
    window = _exact_window(Ns.start, Ns.stop - 1) if "exact" in cfg.modes else None
    integrals = _integrals(l, Ns, prec) if "integral" in cfg.modes else [None] * len(Ns)

    for N, integ in zip(Ns, integrals):
        q = window[N].coeff(l) if window is not None else None
        asym = abs_err = rel_err = None
        if "asymptotic" in cfg.modes:
            asym = asymptotic_C(l, N, saddle(_saddle_precision(prec, N)))
            if q is not None:
                exact_val = _to_mpf(q, prec + _GUARD)
                with mp.workprec(prec + _GUARD):
                    abs_err = abs(exact_val - asym)
                    if exact_val != 0:
                        rel_err = abs_err / abs(exact_val)
        rows.append(ComparisonRow(N, l, q, asym, integ, abs_err, rel_err))
    return rows


def _cell(x) -> str:
    if x is None:
        return ""
    return mp.nstr(x, 17)


def _cells(r) -> list:
    """The six CSV/JSON cells of a row after N and l."""
    return [
        rational_str(r.exact) if r.exact is not None else "",
        decimal_str(r.exact) if r.exact is not None else "",
        _cell(r.asymptotic),
        _cell(r.integral),
        _cell(r.abs_err_asym),
        _cell(r.rel_err_asym),
    ]


def emit_csv(rows) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(",".join([str(r.N), str(r.l)] + _cells(r)))
    return "\n".join(lines) + "\n"


def emit_json(rows) -> str:
    names = CSV_HEADER.split(",")[2:]
    payload = [{"N": r.N, "l": r.l, **dict(zip(names, _cells(r)))} for r in rows]
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def find_peaks(series):
    """Local maxima of a real sequence [(N, value), ...].

    A peak is strictly greater than its left neighbor and at least its
    right neighbor, so a flat run of equal maxima credits its leftmost
    point.  Endpoints never qualify.
    """
    peaks = []
    for i in range(1, len(series) - 1):
        if series[i][1] > series[i - 1][1] and series[i][1] >= series[i + 1][1]:
            peaks.append(series[i])
    return peaks


def analyze_divergence(series, b, p) -> DisproofReport:
    """Peak statistics and a divergence verdict for a series [(N, |C|), ...].

    The asymptotics predicts one extremum pattern repeating every p with
    magnitudes scaled by b^p each period, i.e. growth b per unit N.  The
    verdict is "diverges" when the observed end-to-end peak growth
    exceeds b^(span/2), half the predicted exponent: enough margin for
    the slowly converging amplitude while still rejecting any bounded
    sequence.  Fewer than two peaks, or shrinking peaks, give "no
    divergence detected".  The series must span at least two periods;
    nothing here reads l, so the caller reports l and the range.
    """
    if not series:
        raise ValueError("empty series")
    n_from, n_to = series[0][0], series[-1][0]
    if n_to - n_from < 2 * p:
        raise ValueError("range too short: need at least two oscillation periods")
    peaks = find_peaks(series)
    spacings = tuple(peaks[i + 1][0] - peaks[i][0] for i in range(len(peaks) - 1))
    with mp.workprec(96):
        ratios = tuple(
            mp.mpf(peaks[i + 1][1]) / mp.mpf(peaks[i][1])
            for i in range(len(peaks) - 1)
            if peaks[i][1] != 0
        )
        growth = None
        threshold = None
        verdict = "no divergence detected"
        if len(peaks) >= 2 and peaks[0][1] != 0:
            span = peaks[-1][0] - peaks[0][0]
            growth = mp.mpf(peaks[-1][1]) / mp.mpf(peaks[0][1])
            threshold = mp.mpf(b) ** (mp.mpf(span) / 2)
            if growth > threshold:
                verdict = "diverges"
    return DisproofReport(
        peaks=tuple(peaks),
        spacings=spacings,
        ratios=ratios,
        growth=growth,
        threshold=threshold,
        verdict=verdict,
    )


def magnitude_series(n_from: int, n_to: int, l: int = 1, precision: int = 256):
    """[(N, |C(N, l)|), ...] over max(n_from, l)..n_to, one incremental
    sweep; each magnitude is rounded once, to nearest, at precision bits."""
    vectors = coefficient_range(max(n_from, l), n_to)
    return [(vec.N, _to_mpf(abs(vec.coeff(l)), precision)) for vec in vectors]


def figure_configs(precision: int = 256):
    """The three standard figure datasets as (filename stem, RunConfig, 64)
    triples: l = 1 and l = 2 exact-vs-asymptotic over N = 100..150, and
    l = 1 exact-vs-integral over N = 1..70.  The arc finds its own node
    count, so nothing reads the third field; it stays for callers that
    unpack three fields."""
    overlay = frozenset({"exact", "asymptotic"})
    return (
        ("fig1", RunConfig(precision, 100, 150, 1, overlay), 64),
        ("fig2", RunConfig(precision, 100, 150, 2, overlay), 64),
        ("fig3", RunConfig(precision, 1, 70, 1, frozenset({"exact", "integral"})), 64),
    )
