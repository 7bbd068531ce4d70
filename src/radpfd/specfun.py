"""High-precision complex special functions on explicit precision budgets.

Everything the analytic side of the package needs: the dilogarithm on the
closed unit disk, the Hurwitz zeta function for Re s > 1 (mpmath's zeta(s, q)
with the package's domain checks and error bound), the negative-order
polylogarithm Li_{1-s}(e^z) through its Hurwitz-zeta representation, and the
saddle function

    phi(z) = log(1 - e^z) + (Li2(e^z) - pi^2/6) / z

together with its derivative.  Precision is always an explicit argument in
mantissa bits, never ambient mpmath state; internally each routine works at
precision + 32 guard bits.  Functions returning an EvalResult report an
upper bound on their error alongside the value.

The private helper _split_map, which the node tables of contour and saddle
share, forks one child on hosts with 2 or more usable CPUs.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import mpmath as mp
from mpmath.libmp import (
    from_int,
    mpc_abs,
    mpc_add,
    mpc_div_mpf,
    mpc_mul,
    mpc_one,
    mpc_zero,
    mpf_lt,
    mpf_mul,
)

__all__ = [
    "EvalResult",
    "dilog",
    "hurwitz_zeta",
    "polylog_jonquiere",
    "phi",
]

_GUARD = 32
_in_split_child = False  # set in the child of _split_map, which never forks again


def _split_map(fn, items):
    """[fn(x) for x in items], with the odd-indexed items computed in one
    forked child while this process computes the even-indexed ones.

    Each item runs the same fn at the same working precision in one of
    the two processes, so the results are the bits of the serial list.
    The child pickles its results into a pipe and ends with os._exit; if
    it fails, this process computes its items too, so an exception rises
    here with its usual type.  Serial with fewer than 2 items or 2 usable
    CPUs, without os.fork or os.sched_getaffinity, and inside a split child.
    """
    global _in_split_child
    items = list(items)
    if (
        len(items) < 2
        or _in_split_child
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
            _in_split_child = True
            os.close(r)
            with os.fdopen(w, "wb") as pipe:
                pickle.dump([fn(x) for x in items[1::2]], pipe, pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    with os.fdopen(r, "rb") as pipe:
        try:
            even = [fn(x) for x in items[0::2]]
            data = pipe.read()
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
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


def _top(z):
    """An exponent E with max(|Re z|, |Im z|) in [2^(E-1), 2^E) for a raw
    mpc tuple; a zero part counts as -infinity."""
    (_, rm, re, rb), (_, im, ie, ib) = z
    return max(re + rb if rm else -math.inf, ie + ib if im else -math.inf)


def _series_li2(u, precision):
    """Direct series sum_{k>=1} u^k / k^2 at the ambient working precision.

    Stops once a term drops below 2^-(precision+8) of the accumulated
    modulus; callers guarantee u != 0 and |u| bounded away from 1, so the
    tail is geometric.  The loop runs on raw mpc tuples with the rounding of
    mpc arithmetic.  The exact stopping test (two moduli) runs on every
    term that could stop the loop; the others are passed on exponents,
    which prove |term| >= 2^(E_term - 1) > 4 * cutoff * 2^(E_acc + 1)
    > 4 * cutoff * |acc|, a margin no rounding of the exact test erases.
    So the terms summed and the sum are those of the plain mpc loop.
    """
    prec, rnd = mp.mp._prec_rounding
    cutoff = (mp.mpf(2) ** (-(precision + 8)))._mpf_
    gap = 4 - (precision + 8)  # skip the exact test while E_term - E_acc >= gap
    u = u._mpc_
    acc = mpc_zero
    power = mpc_one
    for k in range(1, 64 * (precision + 64)):
        power = mpc_mul(power, u, prec, rnd)
        term = mpc_div_mpf(power, from_int(k * k), prec, rnd)
        acc = mpc_add(acc, term, prec, rnd)
        if _top(term) - _top(acc) < gap and mpf_lt(
            mpc_abs(term, prec, rnd), mpf_mul(cutoff, mpc_abs(acc, prec, rnd), prec, rnd)
        ):
            return mp.mp.make_mpc(acc)
    raise RuntimeError("dilogarithm series failed to converge")


def _dilog_value(w, precision, depth=0):
    if w == 0:
        return mp.mpc(0)
    if w == 1:
        return mp.mpc(_pi2_over_6())
    m_direct = abs(w)
    m_reflect = abs(1 - w)
    m_landen = abs(w / (w - 1))
    best = min(m_direct, m_reflect, m_landen)
    if best > mp.mpf("0.75") and depth < 4:
        # Near w = e^(+-i pi/3) all three routes degenerate toward
        # modulus 1; the square relation Li2(w) = Li2(w^2)/2 - Li2(-w)
        # maps both children to well-conditioned regions.
        return _dilog_value(w * w, precision, depth + 1) / 2 - _dilog_value(
            -w, precision, depth + 1
        )
    if best == m_direct:
        return _series_li2(w, precision)
    if best == m_reflect:
        return (
            _pi2_over_6()
            - mp.log(w) * mp.log(1 - w)
            - _series_li2(1 - w, precision)
        )
    return -_series_li2(w / (w - 1), precision) - mp.log(1 - w) ** 2 / 2


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


def hurwitz_zeta(s, q, precision: int = 256) -> EvalResult:
    """sum_{n>=0} (q + n)^{-s} for Re s > 1, from mpmath's zeta(s, q).

    The shift q may sit on the imaginary axis (Re q >= 0, q != 0), which
    is where the polylogarithm representation puts it for real z.
    """
    _check_precision(precision)
    with mp.workprec(precision + _GUARD):
        s = mp.mpc(s)
        q = mp.mpc(q)
        if s.real <= 1:
            raise ValueError("outside convergence region: Re s <= 1")
        if q == 0 or q.real < 0:
            raise ValueError("shift must satisfy Re q >= 0, q != 0")
        value = mp.zeta(s, q)
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
    work = precision + _GUARD
    with mp.workprec(work):
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
        zp = hurwitz_zeta(s_int, mp.mpf(1) / 2 + shift, precision)
        zm = hurwitz_zeta(s_int, mp.mpf(1) / 2 - shift, precision)
        pref = mp.factorial(s_int - 1) / (2 * mp.pi) ** s_int
        value = pref * (
            _I_POWERS[s_int % 4] * zp.value + _I_POWERS[(-s_int) % 4] * zm.value
        )
        err = pref * (zp.error_estimate + zm.error_estimate) + abs(value) * mp.mpf(
            2
        ) ** (-(precision + 8))
        return EvalResult(value=value, error_estimate=mp.mpf(err))


def _domain_check(z):
    if z == 0:
        raise ValueError("singular at z = 0")
    if z.real > 0:
        raise ValueError("outside domain: Re z > 0")


def _phi_pair(z, precision):
    """(phi(z), phi'(z)) from one dilogarithm evaluation, using
    d/dz Li2(e^z) = -log(1 - e^z)."""
    _check_precision(precision)
    with mp.workprec(precision + _GUARD):
        z = mp.mpc(z)
        _domain_check(z)
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
