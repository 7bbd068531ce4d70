"""Exact rational partial-fraction coefficients at the pole x = 1.

The product prod_{j=1}^N (1 - x^j)^{-1} has a pole of order N at x = 1,
and the coefficients C(N, l) of its principal part sum_l C(N, l)/(x-1)^l
are rational.  With x = 1 + t each factor is 1/(1 - (1+t)^j) =
-1/(t a_j(t)), where a_j(t) = ((1+t)^j - 1)/t = sum_{m<j} binom(j, m+1) t^m
has integer coefficients and a_j(0) = j.  Hence

    C(N, l) = (-1)^N [t^{N-l}] prod_{j<=N} 1/a_j(t).

Dividing a truncated series q by a_j in place is the recurrence

    q[m] <- (q[m] - sum_{k=1}^{min(m, j-1)} binom(j, k+1) q[m-k]) / j,

for m = 0, 1, 2, ...; q[m] depends only on q[0..m], so truncation never
corrupts the coefficients that are kept.  As a_j has integer
coefficients, the same code runs over fractions.Fraction (exact values)
and over mpmath floats (the twin for ranges where rationals get heavy).

Dividing by a_1..a_n costs O(order * n^2) steps.  The exact path can
instead start from the product itself, in O(order^2) steps, through
power sums (a log/exp start).  With s = log(1+t) and
lambda(x) = log((e^x - 1)/x) = x/2 + sum_k B_2k x^2k / (2k (2k)!),

    log(a_j/j) = lambda(j s) - lambda(s),

so log(n! prod_{j<=n} 1/a_j) has [s^1] = -(S_1(n) - n)/2 and
[s^2k] = -B_2k (S_2k(n) - n) / (2k (2k)!), with S_k(n) = sum_{j<=n} j^k.
The signed Stirling numbers of the first kind turn s^k into powers of t,
and one series exp (e_m = (1/m) sum_k k g_k e_{m-k}) gives the product.
exact_coefficients(N) is that start alone.  coefficient_range starts
from it where it is cheaper than the divisions it replaces, and divides
for every later j; the float twin always starts from 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import mpmath as mp

from .specfun import _GUARD, _check_precision

__all__ = [
    "CoefficientVector",
    "exact_coefficients",
    "coefficient_range",
    "float_coefficients",
    "rational_str",
    "parse_rational",
    "decimal_str",
]

_ONE = Fraction(1)
_ZERO = Fraction(0)


@dataclass(frozen=True)
class CoefficientVector:
    """All principal-part coefficients C(N, l), l = 1..N, for one N."""

    N: int
    values: tuple  # values[l-1] = C(N, l)

    def __post_init__(self):
        if len(self.values) != self.N:
            raise ValueError("need exactly N coefficients")

    def coeff(self, l: int) -> Fraction:
        if not 1 <= l <= self.N:
            raise ValueError(f"l must be in 1..{self.N}, got {l}")
        return self.values[l - 1]


def _logexp(n: int, order: int) -> list:
    """prod_{j<=n} 1/a_j(t) truncated at t^(order-1), as Fractions, from
    the power sums of 1..n (the log/exp start of the module docstring)."""
    # w[k] = k! [s^k] log(n! prod 1/a_j); zero at odd k >= 3
    w = [_ZERO] * order
    if order > 1:
        w[1] = Fraction(n - n * (n + 1) // 2, 2)
    squares = [j * j for j in range(1, n + 1)]
    powers = squares
    for k in range(2, order, 2):
        w[k] = -Fraction(*mp.bernfrac(k)) * (sum(powers) - n) / k
        powers = [p * sq for p, sq in zip(powers, squares)]
    # s^k = k! sum_m s(m, k) t^m / m!, so m [t^m] = sum_k w[k] s(m, k) / (m-1)!
    kg = [_ZERO] * order
    stirling = [1]  # s(m, k) for k = 0..m
    for m in range(1, order):
        stirling = [0] + stirling
        for k in range(1, m):
            stirling[k] -= (m - 1) * stirling[k + 1]
        terms = (w[k] * stirling[k] for k in range(2, m + 1, 2))
        kg[m] = sum(terms, w[1] * stirling[1]) / math.factorial(m - 1)
    e = [Fraction(1, math.factorial(n))] + [_ZERO] * (order - 1)
    for m in range(1, order):
        e[m] = sum((kg[k] * e[m - k] for k in range(1, m + 1)), _ZERO) / m
    return e


def _sweep(n_from: int, n_to: int, one, start: int = 0):
    """Yield (N, values) with values[l-1] = C(N, l) for N = n_from..n_to.

    q is prod_{i<=j} 1/a_i truncated at order n_to - 1; after the
    division by a_j its entries 0..j-1 are final, which is all that
    N = j reads.  q starts at j = start: as the series 1 for start = 0,
    else (1 <= start <= n_from, Fraction only) as _logexp(start, n_to).
    The arithmetic is that of `one`: Fraction(1) gives exact values,
    mp.mpf(1) floats at the caller's working precision.
    """
    q = _logexp(start, n_to) if start else [one] + [0 * one] * (n_to - 1)
    for j in range(start, n_to + 1):
        if j > start:
            binoms = [math.comb(j, k + 1) for k in range(j)]
            for m in range(n_to):
                acc = q[m]
                for k in range(1, min(m, j - 1) + 1):
                    acc -= binoms[k] * q[m - k]
                q[m] = acc / j
        if j >= n_from:
            yield j, tuple(-q[j - l] if j % 2 else q[j - l] for l in range(1, j + 1))


def _float_sweep(n_from: int, n_to: int, precision: int) -> list:
    """The float twin of _sweep over N = n_from..n_to, as a list."""
    with mp.workprec(precision + _GUARD):
        return list(_sweep(n_from, n_to, mp.mpf(1)))


def exact_coefficients(N: int) -> CoefficientVector:
    """Exact C(N, l) for l = 1..N."""
    if N < 1:
        raise ValueError("undefined: empty product has no pole")
    return CoefficientVector(*next(_sweep(N, N, _ONE, N)))


def coefficient_range(n_from: int, n_to: int) -> Iterator[CoefficientVector]:
    """Yield CoefficientVector for every N in [n_from, n_to], from one
    pass that divides by a_j for each j <= n_to it does not start past.

    Dividing up to n_from costs about n_to * n_from^2 / 2 steps and the
    log/exp start about 3 * n_to^2 / 2, so the pass starts at n_from
    from log/exp when n_from^2 > 3 * n_to, and from 1 otherwise.
    """
    if n_from < 1 or n_to < n_from:
        raise ValueError("need 1 <= n_from <= n_to")
    start = n_from if n_from**2 > 3 * n_to else 0
    for N, values in _sweep(n_from, n_to, _ONE, start):
        yield CoefficientVector(N, values)


def float_coefficients(N: int, precision: int = 256):
    """C(N, l) for l = 1..N by the exact recurrence on floats with 32
    guard bits over precision.  Returns a tuple of mpf, values[l-1] = C(N, l).

    Measured worst relative error over l at 256 bits: 2^-261.8 at N = 70,
    2^-256.6 at N = 88 and 2^-232.1 at N = 150; beyond N ~ 90 the guard
    bits no longer cover the rounding loss.
    """
    if N < 1:
        raise ValueError("undefined: empty product has no pole")
    _check_precision(precision)
    return _float_sweep(N, N, precision)[0][1]


def rational_str(q: Fraction) -> str:
    """Canonical serialization 'p/q' with q > 0 and gcd(|p|, q) = 1."""
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def parse_rational(s: str) -> Fraction:
    """Inverse of rational_str."""
    num, _, den = s.partition("/")
    if not den:
        raise ValueError(f"not a rational string: {s!r}")
    return Fraction(int(num), int(den))


def decimal_str(q: Fraction) -> str:
    """Decimal rendering of a rational to 17 significant digits."""
    q = Fraction(q)
    with mp.workprec(80):  # 17 digits take 57 bits; the rest are guard bits
        v = mp.mpf(q.numerator) / q.denominator
        return mp.nstr(v, 17)
