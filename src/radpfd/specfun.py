"""High-precision complex special functions on explicit precision budgets.

Everything the analytic side of the package needs: the dilogarithm on the
closed unit disk, the negative-order polylogarithm Li_{1-s}(e^z) through its
Hurwitz-zeta representation (two values of mpmath's zeta(s, q)), and the
saddle function

    phi(z) = log(1 - e^z) + (Li2(e^z) - pi^2/6) / z

together with its derivative.  Precision is always an explicit argument in
mantissa bits, never ambient mpmath state; internally each routine works at
precision + 32 guard bits.  Functions returning an EvalResult report an
upper bound on their error alongside the value.

The private helper _split_map, which the node tables of contour and saddle
and the two halves of cli's check share, forks one child on hosts with 2
or more usable CPUs.  The Li2 series sums on fixed-point ints and rounds
once, within the bound _series_li2 states.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import mpmath as mp

__all__ = [
    "EvalResult",
    "dilog",
    "polylog_jonquiere",
    "phi",
]

_GUARD = 32
_SERIES_GUARD = 20  # extra fractional bits of _series_li2's fixed-point loop
_splitting = False  # set in both processes while a _split_map runs: no split nests


def _split_map(fn, items):
    """[fn(x) for x in items], with the odd-indexed items computed in one
    forked child while this process computes the even-indexed ones.

    Each item runs the same fn at the same working precision in one of
    the two processes, so the results are the bits of the serial list.
    The child pickles its results into a pipe and ends with os._exit; if
    it fails, this process computes its items too, so an exception rises
    here with its usual type.  Serial with fewer than 2 items or 2 usable
    CPUs, without os.fork or os.sched_getaffinity, and in both processes
    while a split runs (the flag is restored however the split ends).
    """
    global _splitting
    items = list(items)
    if (
        len(items) < 2
        or _splitting
        or not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity"))
        or len(os.sched_getaffinity(0)) < 2
    ):
        return [fn(x) for x in items]
    import pickle
    import signal

    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            _splitting = True
            os.close(r)
            with os.fdopen(w, "wb") as pipe:
                pickle.dump([fn(x) for x in items[1::2]], pipe, pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    with os.fdopen(r, "rb") as pipe:
        try:
            _splitting = True
            even = [fn(x) for x in items[0::2]]
            data = pipe.read()
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            _splitting = False
            status = os.waitpid(pid, 0)[1]
    odd = pickle.loads(data) if status == 0 else [fn(x) for x in items[1::2]]
    out = [None] * len(items)
    out[0::2], out[1::2] = even, odd
    return out


@dataclass(frozen=True)
class EvalResult:
    value: mp.mpc
    error_estimate: mp.mpf  # upper bound on the error


def _check_precision(precision):
    if precision < 64:
        raise ValueError("precision must be at least 64 bits")


def _relative_bound(value, precision):
    """Error bound of a value computed at precision + _GUARD bits."""
    return mp.mpf((abs(value) + mp.mpf(2) ** -precision) * mp.mpf(2) ** -(precision - 8))


def _pi2_over_6():
    return mp.pi**2 / 6


def _mantissas(*raw):
    """(signed mantissa, exponent) of each raw mpf tuple."""
    return [(-m if sign else m, e) for sign, m, e, _ in raw]


def _series_li2(u, precision):
    """Direct series sum_{k>=1} u^k / k^2 at the ambient working precision
    wp, summed on fixed-point ints.

    Callers guarantee u != 0 and |u| bounded away from 1 (at most 0.7191
    on every route of _dilog_value), so the tail is geometric.  The loop
    truncates u's parts to F = wp + _SERIES_GUARD + max(0, -mag(u))
    fractional bits (2^(mag - 1) <= max(|Re u|, |Im u|) < 2^mag), so a
    tiny u keeps wp + _SERIES_GUARD bits.  Each step forms the power's
    parts from four int products shifted by F, takes the term as the power
    // k^2, and adds it to the sum exactly.  It stops once
    |term| < 2^-(precision+8) |sum|, tested exactly on the ints as
    (xr^2 + xi^2) 2^(2(precision+8)) < sr^2 + si^2, and rounds the sum once
    to wp.

    Error bound after K terms: u's truncation, each step's truncation of
    the power (carried on with a factor |u|) and each floor division err by
    under 2^-F per part, so the sum errs by under 2 (K + 3/(1 - |u|)) 2^-F
    against the series' first K terms; the tail adds under
    2^-(precision+8) |sum| |u|/(1 - |u|), and the rounding half an ulp at
    wp.  Since |sum| >= |u|/3 and 2^-F <= 2 |u| 2^-(wp + _SERIES_GUARD),
    the first part is under 12 (K + 3/(1 - |u|)) 2^-_SERIES_GUARD
    |sum| 2^-wp, so under 2^-15 (precision + 16) |sum| 2^-wp for the
    K < 2.1 (precision + 8) terms of |u| <= 0.7191; the tail, about
    2^25 |sum| 2^-wp at wp = precision + 32, dominates.
    """
    parts = _mantissas(*u._mpc_)
    F = mp.mp.prec + _SERIES_GUARD + max(0, -max(e + m.bit_length() for m, e in parts if m))
    cr, ci = (m << e + F if e + F >= 0 else m >> -e - F for m, e in parts)
    ar, ai, sr, si = 1 << F, 0, 0, 0  # the power and the sum
    shift = 2 * (precision + 8)
    for k in range(1, 64 * (precision + 64)):
        ar, ai = (ar * cr - ai * ci) >> F, (ar * ci + ai * cr) >> F
        xr, xi = ar // (k * k), ai // (k * k)
        sr += xr
        si += xi
        if (xr * xr + xi * xi) << shift < sr * sr + si * si:
            return mp.mpc(mp.mpf((sr, -F)), mp.mpf((si, -F)))
    raise RuntimeError("dilogarithm series failed to converge")


def _dilog_value(w, precision):
    if w == 0:
        return mp.mpc(0)
    if w == 1:
        return mp.mpc(_pi2_over_6())
    reflect, landen = 1 - w, w / (w - 1)  # each route reuses its argument
    m_direct, m_reflect, m_landen = abs(w), abs(reflect), abs(landen)
    best = min(m_direct, m_reflect, m_landen)
    if best > mp.mpf("0.75"):
        # Near w = e^(+-i pi/3) all three routes degenerate toward modulus
        # 1; the square relation Li2(w) = Li2(w^2)/2 - Li2(-w) sends both
        # children (on this band of |w| <= 1) to a route of modulus at
        # most 0.7191, so it recurses one level only.
        return _dilog_value(w * w, precision) / 2 - _dilog_value(-w, precision)
    if best == m_direct:
        return _series_li2(w, precision)
    if best == m_reflect:
        return _pi2_over_6() - mp.log(w) * mp.log(reflect) - _series_li2(reflect, precision)
    return -_series_li2(landen, precision) - mp.log(reflect) ** 2 / 2


def dilog(w, precision: int = 256) -> EvalResult:
    """Li2(w) on the closed unit disk, |w| <= 1."""
    _check_precision(precision)
    with mp.workprec(precision + _GUARD):
        w = mp.mpc(w)
        # Unit-circle inputs computed as exp(i y) may overshoot |w| = 1
        # by a rounding ulp; only genuine exterior points are rejected.
        if abs(w) > 1 + mp.mpf(2) ** (-(precision - 8)):
            raise ValueError("outside supported domain: |w| > 1")
        value = _dilog_value(w, precision)
        return EvalResult(value=value, error_estimate=_relative_bound(value, precision))


_I_POWERS = (1, 1j, -1, -1j)


def polylog_jonquiere(s, z, precision: int = 256) -> EvalResult:
    """Li_{1-s}(e^z) through the Hurwitz-zeta representation

        Li_{1-s}(e^z) = Gamma(s)/(2 pi)^s * ( i^s  zeta(s, 1/2 + log(-e^z)/(2 pi i))
                                            + i^-s zeta(s, 1/2 - log(-e^z)/(2 pi i)) )

    for integer s >= 2 and z in the strip Re z <= 0, |Im z| < 8, bounded
    away from 0 and +-2 pi i.  Gamma(s) is just (s-1)!; complex order is
    out of scope.
    """
    _check_precision(precision)
    with mp.workprec(precision + _GUARD):
        s_c = mp.mpc(s)
        s_int = int(mp.nint(s_c.real))
        if s_c != s_int or s_int < 2:
            raise ValueError("only integer s >= 2 is supported")
        z = mp.mpc(z)
        if z.real > 0:
            raise ValueError("outside supported strip: Re z > 0")
        if abs(z.imag) >= 8:
            raise ValueError("outside supported strip: |Im z| >= 8")
        margin = mp.mpf(1) / 16
        if abs(z) < margin or abs(z - 2j * mp.pi) < margin or abs(z + 2j * mp.pi) < margin:
            raise ValueError("outside supported strip: too close to a singular point")
        L = mp.log(-mp.exp(z))  # principal branch
        shift = L / (2j * mp.pi)
        # Re(1/2 +- shift) lies in [0, 1] and the margin keeps both shifts off 0
        zp = mp.zeta(s_int, mp.mpf(1) / 2 + shift)
        zm = mp.zeta(s_int, mp.mpf(1) / 2 - shift)
        pref = mp.factorial(s_int - 1) / (2 * mp.pi) ** s_int
        value = pref * (_I_POWERS[s_int % 4] * zp + _I_POWERS[(-s_int) % 4] * zm)
        bound = _relative_bound(zp, precision) + _relative_bound(zm, precision)
        err = pref * bound + abs(value) * mp.mpf(2) ** (-(precision + 8))
        return EvalResult(value=value, error_estimate=err)


def _phi_pair(z, precision):
    """(phi(z), phi'(z)) from one dilogarithm evaluation, using
    d/dz Li2(e^z) = -log(1 - e^z)."""
    _check_precision(precision)
    with mp.workprec(precision + _GUARD):
        z = mp.mpc(z)
        if z == 0:
            raise ValueError("singular at z = 0")
        if z.real > 0:
            raise ValueError("outside domain: Re z > 0")
        ez = mp.exp(z)
        u = 1 - ez
        if u == 0:
            raise ValueError("singular: e^z = 1")
        log_u = mp.log(u)
        rate = _dilog_value(ez, precision) - _pi2_over_6()
        return log_u + rate / z, -ez / u - log_u / z - rate / z**2


def phi(z, precision: int = 256) -> mp.mpc:
    """The saddle function log(1 - e^z) + (Li2(e^z) - pi^2/6)/z."""
    return _phi_pair(z, precision)[0]
