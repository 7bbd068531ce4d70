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
from mpmath.libmp import from_man_exp, mpc_abs, mpf_lt, mpf_mul

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


def _round(m, e, prec):
    """m * 2^e rounded to prec bits as mpmath's normalize rounds it: half
    to even on |m|, then trailing zero bits moved into the exponent, so a
    nonzero m comes back odd."""
    n = m.bit_length() - prec
    if n > 0:
        a = -m if m < 0 else m
        t = a >> (n - 1)
        if t & 1 and (t & 2 or a & ((1 << (n - 1)) - 1)):
            a = (t >> 1) + 1
        else:
            a = t >> 1
        m = -a if m < 0 else a
        e += n
    if m and not m & 1:
        z = (m & -m).bit_length() - 1
        m >>= z
        e += z
    return m, e


def _add(am, ae, bm, be, prec):
    """mpf_add of am * 2^ae and bm * 2^be at prec bits: the exact sum,
    rounded, except where the exponents are over 100 apart and the tops
    over prec + 4 apart; there mpf_add shifts the larger operand by
    prec + 4 and adds the sign of the smaller in its last bit."""
    if not am:
        return _round(bm, be, prec)
    if not bm:
        return _round(am, ae, prec)
    if ae < be:
        am, ae, bm, be = bm, be, am, ae
    offset = ae - be
    if offset > 100 and am.bit_length() + offset - bm.bit_length() > prec + 4:
        return _round((am << (prec + 4)) + (1 if bm > 0 else -1), ae - prec - 4, prec)
    return _round((am << offset) + bm, be, prec)


def _div(m, e, d, de, prec):
    """mpf_div of m * 2^e, m of at most prec bits, by the odd d times 2^de
    at prec bits: a quotient with 5 or more extra bits, its last bit set
    when the division leaves a remainder, then rounded."""
    a = -m if m < 0 else m
    extra = prec - a.bit_length() + d.bit_length() + 5
    q, r = divmod(a << extra, d)
    if r:
        q = (q << 1) + 1
        extra += 1
    return _round(-q if m < 0 else q, e - de - extra, prec)


def _series_li2(u, precision):
    """Direct series sum_{k>=1} u^k / k^2 at the ambient working precision.

    Stops once a term drops below 2^-(precision+8) of the accumulated
    modulus; callers guarantee u != 0 and |u| bounded away from 1, so the
    tail is geometric.  The loop keeps each real and imaginary part as a
    signed Python-int mantissa and an exponent, and makes the operations
    of mpc arithmetic at the ambient precision: the four exact products
    and two sums of mpc_mul, the quotients of mpc_div_mpf by k^2 and the
    sums of mpc_add.  It rounds half to even, mpmath's default rounding
    mode 'n', which the package never changes.  The exact stopping test
    (two moduli, on mpmath tuples) runs on every term that could stop the
    loop; the others are passed on exponents, which prove
    |term| >= 2^(E_term - 1) > 4 * cutoff * 2^(E_acc + 1)
    > 4 * cutoff * |acc|, a margin no rounding of the exact test erases.
    So the terms summed and the sum are the bits of the plain mpc loop.
    """
    prec, rnd = mp.mp._prec_rounding
    cutoff = (mp.mpf(2) ** (-(precision + 8)))._mpf_
    gap = 4 - (precision + 8)  # skip the exact test while E_term - E_acc >= gap
    inf = math.inf
    (cm, ce), (dm, de) = [(-m if sign else m, e) for sign, m, e, _ in u._mpc_]
    am, ae, bm, be = 1, 0, 0, 0  # power = a + b i
    sm, se, tm, te = 0, 0, 0, 0  # acc = s + t i
    for k in range(1, 64 * (precision + 64)):
        (am, ae), (bm, be) = (
            _add(am * cm, ae + ce, -bm * dm, be + de, prec),
            _add(am * dm, ae + de, bm * cm, be + ce, prec),
        )
        kk = k * k
        kz = (kk & -kk).bit_length() - 1
        xm, xe = _div(am, ae, kk >> kz, kz, prec)
        ym, ye = _div(bm, be, kk >> kz, kz, prec)
        sm, se = _add(sm, se, xm, xe, prec)
        tm, te = _add(tm, te, ym, ye, prec)
        # E with max(|Re|, |Im|) in [2^(E-1), 2^E); a zero part counts as -inf
        e_term = max(xe + xm.bit_length() if xm else -inf, ye + ym.bit_length() if ym else -inf)
        e_acc = max(se + sm.bit_length() if sm else -inf, te + tm.bit_length() if tm else -inf)
        if e_term - e_acc < gap:
            term = (from_man_exp(xm, xe), from_man_exp(ym, ye))
            acc = (from_man_exp(sm, se), from_man_exp(tm, te))
            if mpf_lt(
                mpc_abs(term, prec, rnd),
                mpf_mul(cutoff, mpc_abs(acc, prec, rnd), prec, rnd),
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
