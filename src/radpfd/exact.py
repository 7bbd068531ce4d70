"""Exact rational partial-fraction coefficients at the pole x = 1.

The product prod_{j=1}^N (1 - x^j)^{-1} has a pole of order N at x = 1,
and the coefficients C(N, l) of its principal part sum_l C(N, l)/(x-1)^l
are rational.  With x = 1 + t each factor is 1/(1 - (1+t)^j) =
-1/(t a_j(t)), where a_j(t) = ((1+t)^j - 1)/t = sum_{m<j} binom(j, m+1) t^m
has integer coefficients and a_j(0) = j.  Hence

    C(N, l) = (-1)^N [t^{N-l}] prod_{j<=N} 1/a_j(t).

Dividing a truncated series q by a_j is the recurrence

    q'[m] = (q[m] - sum_{k=1}^{min(m, j-1)} binom(j, k+1) q'[m-k]) / j,

for m = 0, 1, 2, ...; q'[m] depends only on q[0..m], so truncation never
corrupts the coefficients that are kept.  As a_j has integer
coefficients, coefficient_range runs it on integer numerators over one
common denominator (fraction-free, as in Bareiss's elimination), from
j = 1.

Dividing by a_1..a_N costs O(N^3) steps.  For one N,
exact_coefficients starts from the product itself instead, in O(N^2)
integer steps, through power sums (a log/exp start).  With s = log(1+t)
and lambda(x) = log((e^x - 1)/x) = x/2 + sum_k B_2k x^2k / (2k (2k)!),

    log(a_j/j) = lambda(j s) - lambda(s),

so log(n! prod_{j<=n} 1/a_j) has [s^1] = -(S_1(n) - n)/2 and
[s^2k] = -B_2k (S_2k(n) - n) / (2k (2k)!), with S_k(n) = sum_{j<=n} j^k.
The signed Stirling numbers of the first kind turn s^k into powers of t,
and one series exp gives the product.  This route too is fraction-free:
the log coefficients share one denominator W, so the Stirling sums
A_m = W m! [t^m] log(...) are integers, and f_m = m! [t^m] prod obeys

    f_m = (1/W) sum_{k=1}^m binom(m-1, k-1) A_k f_{m-k},

run on integer numerators over one denominator that grows only where a
division by W is not exact.  The two routes share no arithmetic, so
each checks the other.

Both routes hand over each row as integer numerators over one
denominator, reduced by one gcd, in a CoefficientVector; a Fraction is
built only for a coefficient that is read.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from typing import Iterator

import mpmath as mp
from mpmath.libmp import from_rational

__all__ = [
    "CoefficientVector",
    "exact_coefficients",
    "coefficient_range",
    "rational_str",
    "decimal_str",
]


@dataclass(frozen=True)
class CoefficientVector:
    """All principal-part coefficients C(N, l), l = 1..N, for one N, as
    integer numerators over one positive denominator in lowest terms, so
    that dataclass equality is value equality."""

    N: int
    numerators: tuple  # numerators[l-1] = denominator * C(N, l)
    denominator: int

    def __post_init__(self):
        if len(self.numerators) != self.N:
            raise ValueError("need exactly N coefficients")
        if self.denominator < 1 or math.gcd(self.denominator, *self.numerators) != 1:
            raise ValueError("need a positive denominator in lowest terms")

    @property
    def values(self) -> tuple:
        """(C(N, 1), ..., C(N, N)) as Fractions, built on each read."""
        return tuple(Fraction(p, self.denominator) for p in self.numerators)

    def coeff(self, l: int) -> Fraction:
        if not 1 <= l <= self.N:
            raise ValueError(f"l must be in 1..{self.N}, got {l}")
        return Fraction(self.numerators[l - 1], self.denominator)


def _logexp(n: int) -> tuple:
    """prod_{j<=n} 1/a_j(t) truncated at t^(n-1), as integer numerators
    over one denominator, from the power sums of 1..n (the log/exp start
    of the module docstring)."""
    # w[k] = k! [s^k] log(n! prod 1/a_j); zero at odd k >= 3
    w = [Fraction(0)] * n
    if n > 1:
        w[1] = Fraction(n - n * (n + 1) // 2, 2)
    squares = [j * j for j in range(1, n + 1)]
    powers = squares
    for k in range(2, n, 2):
        w[k] = -Fraction(*mp.bernfrac(k)) * (sum(powers) - n) / k
        powers = [p * sq for p, sq in zip(powers, squares)]
    W = math.lcm(*(x.denominator for x in w))
    w = [x.numerator * (W // x.denominator) for x in w]  # W w[k], integers
    # s^k = k! sum_m s(m, k) t^m / m!, so A[m] = W m! [t^m] log(...)
    # = sum_k W w[k] s(m, k)
    A = [0] * n
    stirling = [1]  # s(m, k) for k = 0..m
    for m in range(1, n):
        stirling = [0] + stirling
        for k in range(1, m):
            stirling[k] -= (m - 1) * stirling[k + 1]
        evens = map(operator.mul, w[2 : m + 1 : 2], stirling[2 : m + 1 : 2])
        A[m] = sum(evens, w[1] * stirling[1])
    # f[m] = m! [t^m] prod = F[m] / D obeys f[m] = (1/W) sum_k binom(m-1, k-1)
    # A[k] f[m-k]; D is raised only where the division by W is not exact
    F, D = [1], math.factorial(n)
    for m in range(1, n):
        terms = map(operator.mul, map(math.comb, repeat(m - 1), range(m)), A[1 : m + 1])
        acc = sum(map(operator.mul, terms, reversed(F)))
        quot, rem = divmod(acc, W)
        if rem:  # the least raise: D times W / g makes F[m] = acc / g whole
            g = math.gcd(acc, W)
            F = [W // g * x for x in F]
            D *= W // g
            quot = acc // g
        F.append(quot)
    # [t^m] prod = F[m] / (D m!) = F[m] ((n-1)!/m!) / (D (n-1)!)
    last = math.factorial(n - 1)
    return [x * (last // math.factorial(m)) for m, x in enumerate(F)], D * last


def _vector(N: int, P, D: int) -> CoefficientVector:
    """The CoefficientVector of N from q = prod_{j<=N} 1/a_j held as
    q[m] = P[m] / D, D > 0, for m = 0..N-1 at least:
    C(N, l) = (-1)^N q[N-l], reduced by one gcd."""
    row = P[N - 1 :: -1]  # P[N-l] for l = 1..N
    g = math.gcd(D, *row)
    sign = -g if N % 2 else g
    return CoefficientVector(N, tuple(p // sign for p in row), D // g)


def exact_coefficients(N: int) -> CoefficientVector:
    """Exact C(N, l) for l = 1..N, from the log/exp start alone."""
    if N < 1:
        raise ValueError("undefined: empty product has no pole")
    return _vector(N, *_logexp(N))


def coefficient_range(n_from: int, n_to: int) -> Iterator[CoefficientVector]:
    """Yield CoefficientVector for every N in [n_from, n_to], from one
    pass that divides by a_j for j = 1..n_to.

    q = prod_{i<=j} 1/a_i, truncated at order n_to, is held as integer
    numerators P over one common denominator D, so that no step pays for
    a Fraction per entry.  The division by a_j sets D' = D j^e and

        P'[m] = (j^e P[m] - sum_{k=1}^{min(m, j-1)} binom(j, k+1) P'[m-k]) / j,

    with e the least exponent for which every division is exact: e starts
    at 0 and grows by one wherever a division leaves a remainder, which
    multiplies the P' already computed by j.  Then gcd(D', P') is divided
    out.  After the division by a_j the entries 0..j-1 are final, which
    is all that N = j reads.
    """
    if n_from < 1 or n_to < n_from:
        raise ValueError("need 1 <= n_from <= n_to")
    P = [1] + [0] * (n_to - 1)
    D = 1
    for j in range(1, n_to + 1):
        rb = [math.comb(j, i) for i in range(j, 1, -1)]  # binom(j, j), ..., binom(j, 2)
        scale = 1  # j^e
        new = []
        for m, p in enumerate(P):
            # P'[m-k] for k = min(m, j-1), ..., 1 against binom(j, k+1)
            tail = map(operator.mul, rb[max(j - 1 - m, 0) :], new[max(m - j + 1, 0) :])
            acc = scale * p - sum(tail)
            quot, rem = divmod(acc, j)
            if rem:  # e + 1 multiplies every P' by j, so P'[m] becomes acc
                new = [j * x for x in new]
                scale *= j
                quot = acc
            new.append(quot)
        D *= scale
        g = math.gcd(D, *new)
        P, D = [p // g for p in new], D // g
        if j >= n_from:
            yield _vector(j, P, D)


def rational_str(q: Fraction) -> str:
    """Canonical serialization 'p/q' with q > 0 and gcd(|p|, q) = 1."""
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def _to_mpf(q: Fraction, precision: int) -> mp.mpf:
    """q rounded once to nearest at precision bits."""
    return mp.mp.make_mpf(from_rational(q.numerator, q.denominator, precision, "n"))


def decimal_str(q: Fraction) -> str:
    """Decimal rendering of a rational to 17 significant digits."""
    # 17 digits take 57 bits; the rest are guard bits
    return mp.nstr(_to_mpf(q, 80), 17)
