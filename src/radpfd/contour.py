"""Contour integration: arc approximation, Cauchy oracle, region checks.

Two independent integral routes to the coefficients live here.  The arc
approximation integrates

    (-z)^{l-1/2} / sqrt(1 - e^z) * exp(z/N + (N/z)(Li2(e^z) - pi^2/6))

over the left half of the circle |z| = 5 (composite Gauss-Legendre),
exploiting conjugate symmetry to halve the arc, and doubles the node
count, from 32 nodes for N <= 80 and l <= (N + 1)/2 and from 64
elsewhere, until two successive counts agree.  The Cauchy oracle recovers the
exact coefficient as (1/2 pi i) times the loop integral of
x^{l-1} prod_{j<=N} (1 - (x+1)^j)^{-1} around a small circle inside the
pole-free annulus (trapezoid rule, spectrally accurate).  Its default
node count is the least that keeps the rule free of aliasing from the
pole at 0 and pushes the Taylor tail below its working precision; a
count that aliases is rejected.  The remaining operations are numeric
witnesses for facts used in the error analysis:
monotonicity of Re((Li2(e^z) - pi^2/6)/z) along a contour leg, a
trigonometric lower bound on a rectangle, and the Euler-summation
constant c with an independent quadrature check.

Three functools caches hold data that does not depend on l.  The
Gauss-Legendre rule (mpf nodes and weights) depends on the precision and
the arc's per-node data (positions, dilogarithm values, branch logs) on
(panel count, precision, half or full arc), never on (l, N); both caches
only grow.  The oracle's nodes k = 0..M of the 2M (the others are their
conjugates) and l-independent products prod_{j<=N} (1 - (1+x)^j) depend
on (N, spec); an lru_cache of size one keeps those of the latest
(N, spec) only (it drops the previous set once the next is built), so
calls that vary l inside N reuse them and memory stays flat across N.
The arc and oracle caches keep each node once, as a tuple of ints: the
signed mantissa and exponent of each real part, which the kernels read
and from_man_exp rebuilds exactly.  Cached values are computed exactly
as uncached ones, so every result is the same bits with or without them.

The node tables (the Gauss-Legendre rule's Newton solves, the arc's
per-node data, the oracle's products and the Li2 samples of the
monotonicity witness) are built by specfun._split_map: on hosts with 2 or
more usable CPUs it forks one child, which computes every other node at
the same working precision (it pipes back the arc and oracle rows as
ints), so the tables are the bits of the serial loop.  The arc integrals
of a sweep over N (_integrals, which report.build_rows uses) run here
the largest N of each ladder start (1 or 2 panels) and working
precision, so every table is built once and split, and then split the
other N the same way; the child inherits the warm tables.

The arc sum runs on fixed-point ints with mpmath's private kernels
exp_basecase, cos_sin_basecase, ln2_fixed and pi_fixed and rounds once,
within the bound _arc_integral states; the full left arc, which only
check reads, and the oracle's products run on plain mpc.  The package
is not thread-safe: fork and mp.workprec are both process-wide, and
every routine sets mpmath's global working precision, so concurrent
calls corrupt each other's arithmetic.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import mpmath as mp
from mpmath.libmp import from_man_exp, mpf_add, mpf_div, mpf_mul, round_nearest
from mpmath.libmp.libelefun import cos_sin_basecase, exp_basecase, ln2_fixed, pi_fixed

from .specfun import (
    _GUARD,
    _check_precision,
    _dilog_value,
    _mantissas,
    _pi2_over_6,
    _split_map,
    dilog,
)

__all__ = [
    "QuadratureSpec",
    "OracleValue",
    "oracle_spec",
    "integral_approx_C",
    "cauchy_oracle",
    "check_monotone_exponent",
    "check_lower_bound_inequality",
    "constant_c",
    "constant_c_euler_check",
]

# The arc is a row of Gauss-Legendre panels of _PANEL nodes each.  Its
# ladder doubles the panel count from _first_panels(l, N), up to
# _MAX_PANELS, until the relative doubling delta is at most _REL_TOL.  It
# starts at one panel up to N = _ONE_PANEL_MAX_N for l <= (N + 1)/2, where
# the 2-panel value it then returns is within 1e-23 of the 4-panel one,
# and at two panels elsewhere (integral_approx_C gives the measurements).
_PANEL = 32
_ONE_PANEL_MAX_N = 80
_MAX_PANELS = 64
_REL_TOL = 1e-6


def _first_panels(l: int, N: int) -> int:
    return 1 if N <= _ONE_PANEL_MAX_N and 2 * l <= N + 1 else 2


@dataclass(frozen=True)
class QuadratureSpec:
    """Node count, precision and circle radius of one Cauchy-oracle
    quadrature (periodic trapezoid rule).  The arc integral takes no
    spec: its circle is |z| = 5 and its rule is fixed in this module."""

    nodes: int
    precision: int
    radius: float

    def __post_init__(self):
        if self.nodes < 8:
            raise ValueError("need at least 8 nodes")
        _check_precision(self.precision)
        if not self.radius > 0:
            raise ValueError("radius must be positive")


@dataclass(frozen=True)
class OracleValue:
    """A Cauchy-oracle value and the gap |fine - coarse| between its
    trapezoid rules on 2M and M nodes.

    node_doubling_delta measures only the rule's quadrature error.  It
    bounds |value - C(N, l)| on the 87 pairs of acceptance test c2 (N up
    to 30; tests/test_contour.py checks it), but not where rounding
    dominates: at N = 200, l = 1 with oracle_spec(200) it reads 1.4e-77
    against an error of 6.9e-76, the rounding of the cancellation that the
    64 + 1.5N bits leave.
    """

    value: mp.mpf
    node_doubling_delta: mp.mpf


def _oracle_precision(N: int) -> int:
    """Least oracle precision at N: 64 + ceil(1.5 N) bits absorb the
    cancellation between huge node values and an O(1) result."""
    return 64 + math.ceil(1.5 * N)


def oracle_spec(N: int) -> QuadratureSpec:
    """Default oracle contour for a given N: radius r = 3/N, inside the
    pole-free annulus, at the least precision _oracle_precision(N), with
    the least node count M that two bounds allow.

    The rule averages x f(x) = x^l / prod_{j<=N} (1 - (1+x)^j) over 2M
    points and returns c_0 plus the aliased Laurent terms c_{±2M} r^{±2M}
    (Trefethen and Weideman, SIAM Rev. 56 (2014)).  x f has a pole of
    order N - l at 0, so the coarse rule on every other node (whose
    difference from the fine rule is the doubling delta) is free of
    aliasing from it when M > N - l, which M >= N + 32 meets for every
    l.  The Taylor tail decays like (r/R)^{2M}, where R = 2 sin(pi/N) is
    the distance to the nearest other pole; M >= (precision + _GUARD) /
    (2 log2(R/r)) pushes it below the working precision.  At N = 1 there
    is no other pole and M = N + 32; from N = 45 on, N + 32 is the larger.
    """
    if N < 1:
        raise ValueError("N must be positive")
    precision, radius = _oracle_precision(N), 3.0 / N
    nodes = N + 32
    if N >= 2:
        decay_bits = 2 * math.log2(2 * math.sin(math.pi / N) / radius)
        nodes = max(nodes, math.ceil((precision + _GUARD) / decay_bits))
    return QuadratureSpec(nodes=nodes, precision=precision, radius=radius)


def _pairwise_sum(values):
    n = len(values)
    if n == 1:
        return values[0]
    half = n // 2
    return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])


def _legendre_p(x):
    """P_n(x) and P_n'(x), n = _PANEL, by the three-term recurrence at the
    caller's working precision.  The loop makes the libmpf calls of the
    mpf expression ((2j-1) x p1 - (j-1) p0) / j, rounded to nearest (the
    product by 1 - j is the negated product by j - 1, since that rounding
    is symmetric), so P_n and n (x p1 - p0) / (x x - 1) are the bits of
    the plain recurrence."""
    prec, rnd = mp.mp.prec, round_nearest
    xv = x._mpf_
    p0, p1 = from_man_exp(1, 0), xv
    for j in range(2, _PANEL + 1):
        t = mpf_mul(mpf_mul(from_man_exp(2 * j - 1, 0), xv, prec, rnd), p1, prec, rnd)
        t = mpf_add(t, mpf_mul(from_man_exp(1 - j, 0), p0, prec, rnd), prec, rnd)
        p0, p1 = p1, mpf_div(t, from_man_exp(j, 0), prec, rnd)
    p0, p1 = mp.mp.make_mpf(p0), mp.mp.make_mpf(p1)
    return p1, _PANEL * (x * p1 - p0) / (x * x - 1)


@functools.cache
def _legendre_rule(precision: int):
    """Nodes and weights of _PANEL-point Gauss-Legendre on [-1, 1], solved in _split_map."""
    n = _PANEL
    with mp.workprec(precision + _GUARD):
        def solve(k):
            x = mp.mpf(math.cos(math.pi * (k + 0.75) / (n + 0.5)))
            for _ in range(precision):
                p, dp = _legendre_p(x)
                dx = p / dp
                x -= dx
                if abs(dx) < mp.mpf(2) ** (-(precision + 8)):
                    break
            dp = _legendre_p(x)[1]
            return x, 2 / ((1 - x * x) * dp * dp)

        return tuple(_split_map(solve, range(n)))


@functools.cache
def _arc_nodes(panels: int, precision: int, full: bool):
    """Per-node data on the arc theta in [pi/2, pi] (or [pi/2, 3pi/2]),
    split into `panels` equal panels of _PANEL nodes each.

    Each row holds the ten real parts of z, wdz, log(-z), 1/sqrt(1 - e^z)
    and (Li2(e^z) - pi^2/6)/z, each as a signed mantissa and an exponent
    (20 ints), with wdz = weight * dz/dtheta * panel scale.  Everything here
    is independent of l and N, which is what makes batch comparison over
    many N cheap.
    """
    rule = _legendre_rule(precision)
    with mp.workprec(precision + _GUARD):
        lo = mp.pi / 2
        hi = 3 * mp.pi / 2 if full else mp.pi
        width = (hi - lo) / panels
        half = width / 2

        def node(item):
            mid, x, w = item
            e = mp.exp(mp.mpc(0, 1) * (mid + half * x))
            z = 5 * e
            ez = mp.exp(z)
            rate = _dilog_value(ez, precision) - _pi2_over_6()
            invsq = 1 / mp.sqrt(1 - ez)
            values = (z, w * half * 5j * e, mp.log(-z), invsq, rate / z)
            return sum(_mantissas(*(p for v in values for p in v._mpc_)), ())

        mids = [lo + panel * width + half for panel in range(panels)]
        return tuple(_split_map(node, [(mid, x, w) for mid in mids for x, w in rule]))


def _arc_integral(l: int, N: int, panels: int, precision: int) -> mp.mpf:
    """Arc sum over `panels` panels of the upper half arc: the real value
    (-1)^(l-1) 2 Im(sum) / (N^(l+1/2) (2 pi)^1.5), by conjugate symmetry.

    The loop runs on ints with F = wp + _GUARD fractional bits (wp =
    precision + _GUARD): it truncates each row's ten parts to F bits, forms
    a = (l - 1/2) log(-z) + z/N + N v, reduces Re a by ln 2 and Im a by
    pi/2 (each constant with as many extra bits as the quotient has, as
    mpmath's wpmod = wp + mag), takes e^t, cos and sin of the remainders
    from exp_basecase and cos_sin_basecase, forms only Im(e^a invsq wdz),
    an int times 2^(n - 2F), sums the terms exactly with the sign and 2,
    and divides by the norm, taken at F bits, rounding once to wp.

    Error bound, u = 2^-F: each part of a is within (l + N + 5) u after the
    truncations and reductions, the kernels and products add under 16 u
    and wdz's truncation u / |wdz|, so the sum errs by less than the sum of
    |term| (2 (l + N) + 32 + 2 / |wdz|) u over the terms; the norm and the
    rounding add under 1 ulp at wp.  The sum of |term| exceeds |sum|
    by the 0.39N + 3 bits of cancellation that _arc_precision pays for."""
    if l < 1 or N < 1:
        raise ValueError("l and N must be positive integers")
    _check_precision(precision)
    wp, F = precision + _GUARD, precision + 2 * _GUARD
    h = 2 * l - 1  # l - 1/2 = h / 2
    terms = []
    for row in _arc_nodes(panels, precision, False):
        zr, zi, wr, wi, gr, gi, sr, si, vr, vi = (
            m << e + F if e + F >= 0 else m >> -e - F for m, e in zip(row[0::2], row[1::2])
        )
        ar = (h * gr >> 1) + zr // N + N * vr
        ai = (h * gi >> 1) + zi // N + N * vi
        k = (abs(ar) >> F).bit_length()  # e^ar = 2^n e^t, t in [0, ln 2)
        n, t = divmod(ar << k, ln2_fixed(F + k))
        ea = exp_basecase(t >> k, F)
        k = (abs(ai) >> F).bit_length()  # ai = q pi/2 + t, t in [0, pi/2)
        q, t = divmod(ai << k, pi_fixed(F + k - 1))
        c, s = cos_sin_basecase(t >> k, F)
        c, s = ((c, s), (-s, c), (-c, -s), (s, -c))[q & 3]
        xr, xi = (c * sr - s * si) >> F, (c * si + s * sr) >> F  # e^(i ai) invsq
        terms.append((ea * (xr * wi + xi * wr) >> F, n))
    low = min(n for _, n in terms)
    total = (-1) ** (l - 1) * sum(m << n - low for m, n in terms)
    with mp.workprec(F):
        norm = mp.mpf(N) ** (l + mp.mpf(1) / 2) * (2 * mp.pi) ** mp.mpf("1.5")
    with mp.workprec(wp):
        return mp.mp.make_mpf(from_man_exp(total, low + 1 - 2 * F)) / norm


def _full_arc_integral(l: int, N: int, panels: int, precision: int) -> mp.mpc:
    """Arc sum over the whole left arc on plain mpc arithmetic: a complex
    value whose imaginary part is quadrature noise.  Only check reads it."""
    with mp.workprec(precision + _GUARD):
        half, terms = l - mp.mpf(1) / 2, []
        for row in _arc_nodes(panels, precision, True):
            parts = [from_man_exp(m, e) for m, e in zip(row[0::2], row[1::2])]
            z, wdz, logmz, invsq, v = map(mp.mp.make_mpc, zip(parts[0::2], parts[1::2]))
            terms.append(mp.exp(half * logmz + z / N + N * v) * invsq * wdz)
        norm = mp.mpf(N) ** (l + mp.mpf(1) / 2) * (2 * mp.pi) ** mp.mpf("1.5")
        return (-1) ** (l - 1) * _pairwise_sum(terms) / (mp.mpc(0, 1) * norm)


def _arc_precision(N: int, precision: int) -> int:
    """precision raised by the least multiple of 64 bits that makes the
    working precision, precision + _GUARD, at least 64 + ceil(0.4 N)."""
    return precision + 64 * max(0, math.ceil((64 + math.ceil(0.4 * N) - _GUARD - precision) / 64))


def integral_approx_C(l: int, N: int, precision: int = 256) -> mp.mpf:
    """Arc approximation at a node count found by doubling.

    Evaluates at 32 and 64 nodes (1 and 2 panels) where N <= 80 and
    l <= (N + 1)/2, and at 64 and 128 nodes (2 and 4 panels) elsewhere,
    and doubles again while the two latest values differ by more than
    1e-6 relative (floor 2^-(precision/2)); returns the finer value of
    the first pair that agrees.  Raises ArithmeticError when 2048 nodes
    still fail the test.

    The start rule is a measured property of the integrand (256 bits).
    At l = 1 the 32- and 64-node values differ by 6.6e-19 relative at
    N = 40, 2.1e-9 at N = 80, 9.9e-8 at N = 82, 1.5e-5 at N = 88 and
    5.6e-3 at N = 94; from N = 85 on by more than 1e-6.  Over N <= 80 and
    l <= (N + 1)/2 they differ by at most 7.8e-9 (l = 1, N = 79), and the
    64-node value is within 7.3e-24 of the 128-node value, which the
    ladder returned before it started at one panel: so these ladders
    stop one level earlier on the same 17 printed digits at 128 and 256
    bits.  Above l = (N + 1)/2 the 1-panel pair is no guide.  Its
    relative delta is 3.7e-6 at (l, N) = (48, 60), 5.6e8 at (64, 70) and
    3.8e2 at (64, 80), but those values lie below the floor, so the pair
    would pass with a 64-node value 6.8e-16, 2.2e-7 and 1.5e-12 off the
    128-node one, and at (80, 80) with the wrong sign.  Where it passes
    on the relative test, as at (20, 21) (1.4e-10), the 64-node value can
    still differ in the 17th digit (1.4e-17).  The 64- and 128-node values
    differ by less than 1e-20 for every l < 0.66N, and by 1.0e-20 at
    (53, 80).  Those ladders and every N > 80 start at 2 panels as
    before, with the same bits.

    The doubling test bounds only the quadrature error, not that of the
    approximation, whose relative error against the exact C(N, l) grows
    with l and at small N (measured at 256 bits; at l = 1 126%, 33% and
    5.5% at N = 1, 2 and 3, at l = 2 16-47% over N = 2..10):

        l   N = 20   N = 60   N = 88   N = 150
        1     3.4%     4.3%     3.0%     0.59%
        2      32%      33%      30%      13%
        3      51%      51%      51%      53%
        5      74%      73%      73%      73%
        8      85%      89%      89%      89%

    The arc sum cancels: against the same sum at 512 bits it loses about
    0.39N + 3 bits (23 at N = 50, 44 at 100, 82 at 200, 156 at 400).  So
    the working precision, precision + _GUARD bits, is raised by the
    least multiple of 64 bits that gives at least 64 + ceil(0.4 N); the
    steps of 64 keep the node tables few.  At 256 bits and above nothing
    is raised for N <= 500 (288 >= 264).  The doubling floor and the
    value follow the raised precision, so integral_approx_C(1, 450, 128)
    is the bits of integral_approx_C(1, 450, 256).
    """
    _check_precision(precision)
    precision = _arc_precision(N, precision)
    panels = _first_panels(l, N)
    coarse = _arc_integral(l, N, panels, precision)
    while True:
        panels *= 2
        fine = _arc_integral(l, N, panels, precision)
        with mp.workprec(precision + _GUARD):
            delta = abs(fine - coarse)
            scale = max(abs(fine), mp.mpf(2) ** (-(precision // 2)))
            if delta <= _REL_TOL * scale:
                return fine
            if panels >= _MAX_PANELS:
                raise ArithmeticError(
                    f"arc quadrature not converged at {_PANEL * panels} nodes: relative "
                    f"doubling delta {mp.nstr(delta / scale, 3)} exceeds {_REL_TOL:g}"
                )
        coarse = fine


def _integrals(l: int, Ns, precision: int):
    """[integral_approx_C(l, N, precision) for N in Ns], Ns nonempty.

    The N of one ladder start and one working precision share their node
    tables.  The largest N of each such group runs here first, largest
    first, so each group's tables are built once, each split across the
    CPUs; specfun._split_map then splits the other N, and a forked child
    inherits the warm tables.  An N whose ladder fails raises here; with
    several failing N, which one the error names may differ from the
    serial loop."""
    Ns = list(Ns)
    heads = {}
    for N in Ns:
        key = _first_panels(l, N), _arc_precision(N, precision)
        heads[key] = max(heads.get(key, N), N)
    here = {N: integral_approx_C(l, N, precision) for N in sorted(heads.values(), reverse=True)}
    rest = iter(_split_map(lambda N: integral_approx_C(l, N, precision), [N for N in Ns if N not in here]))
    return [here[N] if N in here else next(rest) for N in Ns]


@functools.lru_cache(maxsize=1)
def _oracle_nodes(N: int, spec: QuadratureSpec):
    """The trapezoid nodes x = r e^{i pi k / M}, k = 0..M, with
    prod_{j<=N} (1 - (1+x)^j), independent of l, as rows (xr, xre, xi, xie,
    pm, pe, qm, qe) of signed mantissas and exponents of the real and
    imaginary parts of x and of the product; the nodes k and 2M - k are
    conjugates, and so are their products.  Only the latest (N, spec) is
    kept, so a sweep over l at one N computes them once and memory stays
    flat over many N."""
    M = spec.nodes
    with mp.workprec(spec.precision + _GUARD):
        r = mp.mpf(spec.radius)

        def node(k):
            x = r * mp.expjpi(mp.mpf(k) / M)  # 2M-th roots
            y = yj = 1 + x
            prod = mp.mpc(1)
            for _ in range(N):
                prod *= 1 - yj
                yj *= y
            return sum(_mantissas(*x._mpc_, *prod._mpc_), ())

        return tuple(_split_map(node, range(M + 1)))


def _folded_rule(vals, step):
    """The trapezoid rule on the nodes k = 0, step, ... of the 2M, from the
    values at k = 0..M: node 2M - k carries the conjugate of node k's value."""
    M = len(vals) - 1
    reals = [v.real for v in vals[::step]]
    last = reals.pop() if M % step == 0 else 0
    return (reals[0] + last + 2 * _pairwise_sum(reals[1:])) / (2 * M // step)


def cauchy_oracle(l: int, N: int, spec: QuadratureSpec) -> OracleValue:
    """Loop-integral oracle for the exact coefficient C(N, l).

    Trapezoid rule with spec.nodes points, plus the interleaved
    double-count for the convergence delta; the two rules share the
    even-indexed nodes so the doubled run costs one extra sweep.  x f(x)
    has real Taylor coefficients, so each rule folds its nodes onto k <= M
    and is real.  The delta is the quadrature error only, not an error
    bound where the cancellation's rounding dominates (see OracleValue).
    The nodes and their products come from the one-entry (N, spec) cache
    as mantissas and exponents; from_man_exp rebuilds each exactly as an mpc.
    """
    if l < 1 or N < 1:
        raise ValueError("l and N must be positive integers")
    if N >= 2 and not spec.radius < 2 * math.sin(math.pi / N):
        raise ValueError("radius reaches the nearest nonzero pole of the product")
    if spec.precision < _oracle_precision(N):
        raise ValueError("precision too low for the oscillatory cancellation")
    M = spec.nodes
    if M <= N - l:
        raise ValueError("too few nodes: the coarse rule aliases the pole of order N - l at 0")
    nodes = _oracle_nodes(N, spec)
    with mp.workprec(spec.precision + _GUARD):
        mpc = mp.mp.make_mpc
        vals = [  # f(x) * x with f = x^{l-1}/prod, at the nodes k = 0..M
            mpc((from_man_exp(xr, xre), from_man_exp(xi, xie))) ** l
            / mpc((from_man_exp(pm, pe), from_man_exp(qm, qe)))
            for xr, xre, xi, xie, pm, pe, qm, qe in nodes
        ]
        fine, coarse = _folded_rule(vals, 1), _folded_rule(vals, 2)
        return OracleValue(value=fine, node_doubling_delta=abs(fine - coarse))


def _growth_samples(path):
    """Re((Li2(e^z) - pi^2/6)/z) at each point of the path, at 64 bits
    (64 + _GUARD working), from specfun._split_map."""
    precision = 64
    with mp.workprec(precision + _GUARD):
        zs = [mp.mpc(z) for z in path]
        for z in zs:
            if z == 0:
                raise ValueError("path touches z = 0")
            if z.real > 0:
                raise ValueError("path leaves the half-plane Re z <= 0")

        def sample(z):
            return ((_dilog_value(mp.exp(z), precision) - _pi2_over_6()) / z).real

        return _split_map(sample, zs)


def check_monotone_exponent(path) -> bool:
    """Whether Re((Li2(e^z) - pi^2/6)/z) is nondecreasing along the path.

    The quantity is the growth exponent of the integrand along a contour
    leg; the error analysis needs it to increase toward the saddle.  The
    samples are taken at 64 bits, the package floor: on check's leg (5i to
    z0, 200 points) the smallest step between consecutive samples is
    2.28e-6, the largest _relative_bound(sample, 64) is 2.8e-18 and the
    samples differ from 128-bit ones by at most 2.6e-23, so no step
    changes sign.
    """
    samples = _growth_samples(path)
    return not any(b < a for a, b in zip(samples, samples[1:]))


def check_lower_bound_inequality(grid, rhs_scale: float = 1.0) -> bool:
    """Check 1 + e^{2ux} - 2 cos(5u) e^{ux} >= (11 u^2 / 12)(x^2 + 25)
    on grid points (u, x) with u = j/N in (0, 1/10] and x = Re z in [-1, 0].

    rhs_scale is a test hook: inflating the right side must break the
    inequality if the detector works.
    """
    for u, x in grid:
        u = mp.mpf(u)
        x = mp.mpf(x)
        if not (0 < u <= mp.mpf(1) / 10):
            raise ValueError("j/N outside (0, 1/10]")
        if not (-1 <= x <= 0):
            raise ValueError("Re z outside [-1, 0]")
        e = mp.exp(u * x)
        lhs = 1 + e * e - 2 * mp.cos(5 * u) * e
        rhs = rhs_scale * (11 * u * u / 12) * (x * x + 25)
        if lhs < rhs:
            return False
    return True


def constant_c(precision: int = 256) -> mp.mpf:
    """The Euler-summation constant c, about 0.11262, in closed form:

    c = (99i + 8 log(1-e^{i/2}) - 80 log(1-e^{5i}) - 4 log(1-cos(1/2))
         + 40 log(1-cos 5) - 16i Li2(e^{i/2}) + 16i Li2(e^{5i})) / 40

    The expression is real; the imaginary residue is asserted small.
    """
    with mp.workprec(precision + _GUARD):
        i = mp.mpc(0, 1)
        e_half = mp.exp(i / 2)
        e_five = mp.exp(5 * i)
        total = (
            99 * i
            + 8 * mp.log(1 - e_half)
            - 80 * mp.log(1 - e_five)
            - 4 * mp.log(1 - mp.cos(mp.mpf(1) / 2))
            + 40 * mp.log(1 - mp.cos(5))
            - 16 * i * dilog(e_half, precision).value
            + 16 * i * dilog(e_five, precision).value
        ) / 40
        if abs(total.imag) >= mp.mpf(2) ** (-(precision // 2)):
            raise ArithmeticError("closed form failed to be real")
        return mp.mpf(total.real)


def constant_c_euler_check() -> mp.mpf:
    """Relative deviation between the closed-form c and the direct
    quadrature of -log(1 - cos(5x/N)) over [floor(N/10), N+1] at
    N = 10^4, whose value is -cN up to an O(1) remainder, both at 128
    bits.  Small output (under 1e-3) confirms both computations."""
    precision = 128
    with mp.workprec(precision + _GUARD):
        nn = mp.mpf(10**4)

        def integrand(x):
            return -mp.log(1 - mp.cos(5 * x / nn))

        integral = mp.quad(integrand, [mp.floor(nn / 10), nn + 1])
        c = constant_c(precision)
        return mp.mpf(abs(integral - (-c * nn)) / (c * nn))
