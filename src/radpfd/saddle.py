"""Saddle point of phi and the closed-form asymptotic coefficient formula.

The saddle z0 is the root of phi near -1.61 + 7.42i.  From it every
constant of the asymptotic main term is derived:

    a     = pi/2 - arg(e^{z0} / (z0 (1 - e^{z0}))) / 2,   rho = e^{ia}
    b     = 1 / |1 - e^{z0}|
    theta = arg(1 - e^{z0}),   p = 2 pi / |theta|
    alpha = Re( -rho^2 e^{z0} / (z0 (1 - e^{z0})) )

and the approximation to the partial-fraction coefficient C(N, l) is
b^N N^{-l-1} H_l(N) with H_l the bounded periodic amplitude implemented
here.  The growth factor per period is b^p, about 8.81.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import mpmath as mp

from .specfun import _GUARD, _phi_pair, _split_map

__all__ = [
    "SaddleData",
    "saddle_constants",
    "H",
    "asymptotic_C",
    "argument_principle_count",
]

# First displayed decimals of the root; also the uniqueness-disk center.
_INITIAL = complex(-1.61, 7.42)


@dataclass(frozen=True)
class SaddleData:
    """Saddle point and the constants derived from it.

    precision records the bit budget the fields were computed at; every
    downstream evaluation works at that same budget.
    """

    z0: mp.mpc
    rho: mp.mpc
    a: mp.mpf
    b: mp.mpf
    alpha: mp.mpf
    p: mp.mpf
    theta: mp.mpf
    precision: int


def _solve_saddle(precision: int) -> mp.mpc:
    """Newton iteration for the root of phi, started at _INITIAL.

    Plain Newton steps; from 64 to 1024 bits each lowers |phi| and no
    iterate lies farther than 0.006 from the start.  Returns once
    |phi(z)| < 2^-(precision+8), where z carries its precision bits.  The
    root is simple and unique within distance 1 of the start
    (argument_principle_count); fails on an iterate farther out, before
    evaluating phi there, or after 100 steps.
    """
    with mp.workprec(precision + _GUARD):
        z = start = mp.mpc(_INITIAL)
        target = mp.mpf(2) ** -(precision + 8)
        fz, dfz = _phi_pair(z, precision)
        for _ in range(100):
            if abs(fz) < target:
                return z
            z = z - fz / dfz
            if abs(z - start) > 1:
                raise RuntimeError("iterate left the radius-1 disk of the unique root")
            fz, dfz = _phi_pair(z, precision)
        raise RuntimeError("no convergence within 100 iterations")


def saddle_constants(precision: int = 256) -> SaddleData:
    """Solve for the saddle point and derive the full constant set."""
    z0 = _solve_saddle(precision)
    with mp.workprec(precision + _GUARD):
        ez = mp.exp(z0)
        u = 1 - ez
        a = mp.pi / 2 - mp.arg(ez / (z0 * u)) / 2
        rho = mp.exp(mp.mpc(0, 1) * a)
        radicand = -z0 * u / (rho**2 * ez)
        alpha = (1 / radicand).real
        theta = mp.arg(u)
        return SaddleData(
            z0=z0,
            rho=rho,
            a=mp.mpf(a),
            b=1 / abs(u),
            alpha=mp.mpf(alpha),
            p=2 * mp.pi / abs(theta),
            theta=mp.mpf(theta),
            precision=precision,
        )


@functools.cache
def _amplitude(l: int, sd: SaddleData):
    """(scale, K) of H_l: K = rho (-z0)^{l-1/2} / sqrt(1 - e^{z0}) on
    principal branches and scale = +-sqrt(1/alpha)/pi, negative for even
    l.  They depend on (l, sd) only, not on N."""
    with mp.workprec(sd.precision + _GUARD):
        ez = mp.exp(sd.z0)
        K = sd.rho * (-sd.z0) ** (l - mp.mpf(1) / 2) / mp.sqrt(1 - ez)
        scale = mp.sqrt(1 / sd.alpha) / mp.pi
        return (-scale if l % 2 == 0 else scale), K


def H(l: int, N, sd: SaddleData) -> mp.mpf:
    """Bounded periodic amplitude H_l(N), period p in N.

    N may be any real number so the periodicity is directly observable;
    the asymptotics only ever evaluates it at integers.
    """
    if l < 1:
        raise ValueError("l must be a positive integer")
    scale, K = _amplitude(l, sd)
    with mp.workprec(sd.precision + _GUARD):
        cos, sin = mp.cos_sin(mp.mpf(N) * sd.theta)
        return mp.mpf(scale * (K.imag * cos - K.real * sin))


def _saddle_precision(precision: int, N: int) -> int:
    """Saddle precision for H and asymptotic_C at N: N theta and b^N carry
    theta's and b's errors times N, so N's bits beyond 9 are added in steps
    of 64 (few solves per range), keeping every N as accurate as N = 511."""
    return precision + 64 * -(-max(0, N.bit_length() - 9) // 64)


def asymptotic_C(l: int, N: int, sd: SaddleData) -> mp.mpf:
    """Main term b^N N^{-l-1} H_l(N) of the coefficient asymptotics."""
    if l < 1 or N < 1:
        raise ValueError("l and N must be positive integers")
    with mp.workprec(sd.precision + _GUARD):
        return sd.b ** N * mp.mpf(N) ** (-l - 1) * H(l, N, sd)


def _argument_principle_value():
    """(1/2 pi i) times the integral of phi'/phi around the unit circle
    about _INITIAL, by the trapezoid rule with 128 nodes at 64 bits (64 +
    _GUARD working).  The node terms come from specfun._split_map and are
    summed here in node order."""
    nodes = 128
    precision = 64
    with mp.workprec(precision + _GUARD):
        center = mp.mpc(_INITIAL)

        def term(k):
            w = mp.expjpi(mp.mpf(2 * k) / nodes)
            f, df = _phi_pair(center + w, precision)
            return df / f * w

        acc = mp.mpc(0)
        for t in _split_map(term, range(nodes)):
            acc += t
        return acc / nodes


def argument_principle_count() -> int:
    """Number of roots of phi in the unit disk around _INITIAL.

    The trapezoid value of _argument_principle_value rounded to the nearest
    integer; the integrand is analytic and periodic along the circle so
    convergence is spectral.  At 64 bits, the package floor, the value is
    within 3.9e-25 of 1, far inside the 1/2 that rounding allows.
    """
    return int(mp.nint(_argument_principle_value().real))
