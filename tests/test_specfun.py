"""Special functions against independent mpmath oracles and identities."""

import cmath
import hashlib
import math
import random

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import from_man_exp, mpf_div, mpf_mul, mpf_mul_int, mpf_neg, round_nearest

import radpfd.specfun as specfun
from radpfd.specfun import (
    _phi_pair,
    _series_li2,
    dilog,
    phi,
    polylog_jonquiere,
)

PREC = 256

# Strip points for the polylogarithm identity, covering real and complex
# z away from the singular points 0 and +-2 pi i.
GRID_Z = [mp.mpc(-1), mp.mpc(-2), mp.mpc(-1, 2), mp.mpc(-1, -2), mp.mpc(-0.5, 5)]

# Near the corners of the supported strip: far left, near |Im z| = 8, and
# close to the singular points 2 pi i and 0.
CORNER_Z = [mp.mpc(-40, 7.9), mp.mpc(-3, -7.9), mp.mpc(-0.1, 6.1), mp.mpc(-0.07)]

# sha256 of repr([(value._mpc_, error_estimate._mpf_), ...]) of
# polylog_jonquiere over s = 2..6 and GRID_Z + CORNER_Z, recorded while it
# still took its two zeta values from a separate public Hurwitz zeta function
JONQUIERE_DIGESTS = {
    64: "b46279a49cac7b3bef30b4018ae41ebb891052b4bcab7ab380ce9775ff5ac3de",
    256: "83a3d6e0ae8d4a9bae65706934a1fc217640bacb3886a64ccfd713b97763c6e3",
}


def disk_points():
    return st.tuples(
        st.floats(0, 0.999), st.floats(-3.141, 3.141)
    ).map(lambda rt: mp.mpf(rt[0]) * mp.exp(mp.mpc(0, 1) * rt[1]))


class TestDilog:
    @given(disk_points())
    @settings(max_examples=40, deadline=None)
    def test_matches_mpmath_inside_disk(self, w):
        got = dilog(w, PREC)
        with mp.workprec(PREC + 64):
            ref = mp.polylog(2, w)
            assert abs(got.value - ref) <= max(
                got.error_estimate, mp.mpf(2) ** (-(PREC - 16))
            )

    def test_unit_circle_including_route_degeneracies(self):
        # Arguments near +-pi/3 defeat all three direct routes; the
        # square relation must take over.
        with mp.workprec(PREC + 64):
            for t in (0.5, 5.0, 1.0471975, -1.0471975, 2.0, -2.5, 3.14159, 0.1):
                w = mp.exp(mp.mpc(0, 1) * t)
                got = dilog(w, PREC).value
                assert abs(got - mp.polylog(2, w)) < mp.mpf(2) ** (-(PREC - 16))

    def test_special_values(self):
        with mp.workprec(PREC):
            assert dilog(0, PREC).value == 0
            assert abs(dilog(1, PREC).value - mp.pi**2 / 6) < mp.mpf(2) ** (-240)
            half = dilog(mp.mpf("0.5"), PREC).value
            ref = mp.pi**2 / 12 - mp.log(2) ** 2 / 2
            assert abs(half - ref) < mp.mpf(2) ** (-240)

    def test_rejects_exterior_point(self):
        with pytest.raises(ValueError, match="outside supported domain"):
            dilog(mp.mpc(1.5, 0.2), PREC)

    def test_tolerates_unit_modulus_rounding(self):
        # A circle point carries rounding at the precision it was built
        # at; the domain check must not reject that overshoot.
        with mp.workprec(64):
            w = mp.exp(mp.mpc(0, 1) * mp.mpf("2.2"))
        dilog(w, 64)

    def test_error_estimate_dominates_true_error(self):
        with mp.workprec(PREC + 64):
            for w in (mp.mpc("0.3", "0.4"), mp.exp(mp.mpc(0, 1)), mp.mpc("-0.95")):
                got = dilog(w, PREC)
                assert abs(got.value - mp.polylog(2, w)) <= got.error_estimate

    def test_reflection_identity_on_lens(self):
        # Li2(w) + Li2(1-w) + log(w) log(1-w) = pi^2/6 where both series
        # converge; exercised at prec 128 and 256 with the stated bound.
        import random

        random.seed(42)
        for prec in (128, 256):
            bound = mp.mpf(2) ** (-(prec - 16))
            with mp.workprec(prec + 64):
                count = 0
                while count < 100:
                    w = mp.mpc(random.uniform(0, 1), random.uniform(-1, 1))
                    if abs(w) > 1 or abs(1 - w) > 1 or w == 0 or w == 1:
                        continue
                    count += 1
                    resid = abs(
                        dilog(w, prec).value
                        + dilog(1 - w, prec).value
                        + mp.log(w) * mp.log(1 - w)
                        - mp.pi**2 / 6
                    )
                    assert resid < bound


def best_route(v):
    """The least modulus among specfun._dilog_value's three routes at v != 1:
    the series in v, in 1 - v and in v / (v - 1)."""
    return min(abs(v), abs(1 - v), abs(v / (v - 1)))


class TestSquareRelation:
    """Where all three routes exceed 0.75, the square relation
    Li2(w) = Li2(w^2)/2 - Li2(-w) takes over, and both children have a
    route of modulus at most 0.72, so it recurses one level only."""

    def test_children_leave_the_band(self):
        # polar grid of |w| in [0.75, 1]; a 2000 x 8000 grid gives 0.7191
        band = 0
        for i in range(200):
            r = 0.75 + 0.25 * i / 199
            for k in range(800):
                w = cmath.rect(r, 2 * math.pi * k / 800)
                if w == 1 or best_route(w) <= 0.75:
                    continue
                band += 1
                assert best_route(w * w) <= 0.72 and best_route(-w) <= 0.72, w
        assert band > 1000

    def test_three_evaluations_at_a_band_point(self, monkeypatch):
        args = []
        inner = specfun._dilog_value

        def counting(w, precision):
            args.append(w)
            return inner(w, precision)

        monkeypatch.setattr(specfun, "_dilog_value", counting)
        w = mp.mpf("0.9") * mp.expjpi(mp.mpf(1) / 3)
        assert best_route(complex(w)) > 0.75
        dilog(w, PREC)
        assert len(args) == 3  # w, w^2 and -w


def partial_sums(u, precision):
    """The series' partial sums on plain mpc objects at the ambient
    precision, through the first term below 2^-(precision+8) of the sum
    and one term more."""
    cutoff = mp.mpf(2) ** (-(precision + 8))
    sums, acc, power, stopped = [], mp.mpc(0), mp.mpc(1), False
    for k in range(1, 64 * (precision + 64)):
        power *= u
        term = power / (k * k)
        acc += term
        sums.append(acc)
        if stopped:
            return sums
        stopped = abs(term) < cutoff * abs(acc)
    raise RuntimeError("dilogarithm series failed to converge")


def series_inputs(prec):
    """Arguments for the series kernel, built at the working precision:
    the edge cases, then the rest."""
    # the largest modulus any route of _dilog_value passes, whose series
    # takes the most terms, and tiny moduli, which need F above wp + 20
    edge = [mp.mpf("0.7191") * mp.expjpi(mp.mpf(k) / 3) for k in range(4)]
    edge += [mp.mpc(mp.ldexp(1, -200)), mp.mpc(0, mp.ldexp(-3, -202)), mp.mpc("1e-300", "-1e-300")]
    # |u| from 1e-6 to 0.75 and arguments k pi / 8 round the circle
    rest = [
        mp.mpf(r) * mp.expjpi(mp.mpf(k) / 8)
        for r in ("1e-6", "1e-3", "0.1", "0.4", "0.6", "0.75")
        for k in range(16)
    ]
    # parts far apart, larger real or larger imaginary part
    far = [("0.5", "1e-40"), ("1e-80", "0.6"), ("-0.7", "3e-50")]
    far += [("0.75", "1e-40"), ("-1e-60", "0.75"), ("0.75", "-2e-45")]
    rest += [mp.mpc(x, y) for x, y in far]
    # purely real and purely imaginary
    rest += [mp.mpc(x, 0) for x in ("0.5", "-0.75", "1e-30", "-0.123")]
    rest += [mp.mpc(0, y) for y in ("0.5", "-0.75", "1e-30", "0.321")]
    # and 40 seeded random points of the disk |u| <= 0.75, their parts
    # carrying a full-width mantissa
    rng, fixed = random.Random(prec), len(rest)

    def part():
        return mp.ldexp(rng.getrandbits(mp.mp.prec), -mp.mp.prec) * 1.5 - 0.75

    while len(rest) < fixed + 40:
        u = mp.mpc(part(), part())
        if 0 < abs(u) <= 0.75:
            rest.append(u)
    return edge, rest


class TestSeriesLi2:
    """_series_li2 within the bound its docstring states: in all against
    mp.polylog(2, u) at three times the working precision wp = prec + 32,
    and its summation alone against the series' own partial sums at
    wp + 64 bits."""

    @pytest.mark.parametrize("prec", [64, 128, 256, 512, 1024])
    def test_within_the_stated_bound(self, prec):
        wp = prec + 32
        with mp.workprec(wp):
            edge, rest = series_inputs(prec)
        for u in edge + rest[:: prec // 64]:  # the references cost more as prec grows
            with mp.workprec(wp):
                got = _series_li2(u, prec)
            with mp.workprec(3 * wp):
                # the tail after the last term plus the summation and its
                # one rounding: 2^-15 (prec + 16) + 1 units of 2^-wp
                r = abs(u)
                tail = mp.mpf(2) ** -(prec + 8) * r / (1 - r)
                summed = (mp.mpf(prec + 16) / 2**15 + 1) * mp.mpf(2) ** -wp
                ref = mp.polylog(2, u)
                assert abs(got - ref) <= (tail + summed) * abs(ref), u
            with mp.workprec(wp + 64):
                # the summation alone, against the partial sum that stopped
                # within one term of the same one
                sums = partial_sums(u, prec)
                assert min(abs(got - s) for s in sums[-3:]) <= summed * abs(ref), u

    @pytest.mark.parametrize("prec", [96, 544])
    def test_a_carry_keeps_the_mantissa_below_2_to_the_prec(self, prec):
        # a = (2^prec - 1) 2^(2 - 2 prec) is prec one bits, a^2/4 nearly its
        # ulp, and Re Li2(+-a + b i) = +-a + (a^2 - b^2)/4 + O(a^3): with
        # b = a/2, or b = a sqrt(7/4) for -a, the real part lies a quarter
        # ulp inside 2^(2 - prec), far beyond the sum's 2^-F truncation, so
        # the one rounding carries into the next binade
        top = mp.ldexp(1, 2 - prec)
        for sign in (1, -1):
            with mp.workprec(prec):
                a = mp.mpf(((1 << prec) - 1, 2 - 2 * prec))
                u = mp.mpc(sign * a, a / 2 if sign > 0 else a * mp.sqrt(mp.mpf(7) / 4))
                got = _series_li2(u, prec - 32).real
            with mp.workprec(3 * prec):
                assert abs(mp.polylog(2, u).real) < top - mp.ldexp(1, -2 * prec)
            man = got._mpf_[1]
            assert man < 1 << prec and got == sign * top, sign


def random_mpf(rng, prec):
    """A signed mpf of 1 to prec mantissa bits and exponent within prec."""
    m = rng.getrandbits(rng.randint(1, prec)) | 1
    return from_man_exp(rng.choice((1, -1)) * m, rng.randint(-prec, prec))


class TestContourSteps:
    """The libmpf calls in the steps of contour's Legendre recurrence round
    as the mpf operators of the plain recurrence they replace: mpf_mul by
    from_man_exp(n, 0) as mpf * int (mpf_mul_int), the product by 1 - j as
    the negated product by j - 1, and mpf_div by from_man_exp(j, 0) as
    mpf / int, at the contour's working precisions."""

    @pytest.mark.parametrize("prec", [96, 160, 288, 544])
    def test_round_as_mpf_mul_and_mpf_mul_int(self, prec):
        rng = random.Random(-prec)
        with mp.workprec(prec):
            for _ in range(300):  # two mpfs, as x p1 is formed
                a, b = random_mpf(rng, prec), random_mpf(rng, prec)
                got = mpf_mul(a, b, prec, round_nearest)
                assert got == (mp.mp.make_mpf(a) * mp.mp.make_mpf(b))._mpf_, (a, b)
            for n in range(1, 501):  # the 2j - 1 and j - 1 of j <= 32, and more
                x = random_mpf(rng, prec)
                want = mpf_mul_int(x, n, prec, round_nearest)
                assert want == (n * mp.mp.make_mpf(x))._mpf_, (x, n)
                assert mpf_mul(from_man_exp(n, 0), x, prec, round_nearest) == want, (x, n)
                assert mpf_mul(from_man_exp(-n, 0), x, prec, round_nearest) == mpf_neg(want), (x, n)

    @pytest.mark.parametrize("prec", [96, 160, 288, 544])
    def test_div_as_mpf_div(self, prec):
        rng = random.Random(prec + 1)
        with mp.workprec(prec):
            for j in range(1, 501):  # j <= 32, odd and even, and more
                t = random_mpf(rng, prec)
                got = mpf_div(t, from_man_exp(j, 0), prec, round_nearest)
                assert got == (mp.mp.make_mpf(t) / j)._mpf_, (t, j)


class TestJonquiere:
    def test_identity_on_grid(self):
        # Li_{1-s}(e^z) for negative integer order has an elementary
        # closed form; mpmath's polylog is the independent oracle.
        with mp.workprec(PREC + 64):
            for s in range(2, 7):
                for z in GRID_Z:
                    got = polylog_jonquiere(s, z, PREC)
                    ref = mp.polylog(1 - s, mp.exp(z))
                    assert abs(got.value - ref) < mp.mpf("1e-25")
                    assert abs(got.value - ref) <= got.error_estimate

    @pytest.mark.parametrize("prec", [64, 128, 512])
    def test_bound_holds_at_the_strip_corners(self, prec):
        for s in (2, 3, 6):
            for z in CORNER_Z:
                got = polylog_jonquiere(s, z, prec)
                with mp.workprec(prec + 96):
                    ref = mp.polylog(1 - s, mp.exp(z))
                    assert abs(got.value - ref) <= got.error_estimate

    @pytest.mark.parametrize("prec", sorted(JONQUIERE_DIGESTS))
    def test_pinned_bits(self, prec):
        raw = []
        for s in range(2, 7):
            for z in GRID_Z + CORNER_Z:
                got = polylog_jonquiere(s, z, prec)
                raw.append((got.value._mpc_, got.error_estimate._mpf_))
        assert hashlib.sha256(repr(raw).encode()).hexdigest() == JONQUIERE_DIGESTS[prec]

    def test_geometric_derivative_closed_forms(self):
        # sum k w^k = w/(1-w)^2 at w = 1/e, and sum k^2 w^k at w = e^-2.
        with mp.workprec(PREC + 64):
            got = polylog_jonquiere(2, mp.mpc(-1), PREC).value
            assert abs(got - mp.e / (mp.e - 1) ** 2) < mp.mpf(2) ** (-(PREC - 16))
            got = polylog_jonquiere(3, mp.mpc(-2), PREC).value
            w = mp.exp(mp.mpf(-2))
            assert abs(got - w * (1 + w) / (1 - w) ** 3) < mp.mpf(2) ** (-(PREC - 16))

    def test_rejects_noninteger_and_small_order(self):
        with pytest.raises(ValueError, match="integer s"):
            polylog_jonquiere(mp.mpf("2.5"), mp.mpc(-1), PREC)
        with pytest.raises(ValueError, match="integer s"):
            polylog_jonquiere(1, mp.mpc(-1), PREC)

    def test_rejects_points_outside_strip(self):
        with pytest.raises(ValueError):
            polylog_jonquiere(2, mp.mpc(0.5, 1), PREC)
        with pytest.raises(ValueError):
            polylog_jonquiere(2, mp.mpc(-1, 9), PREC)
        with pytest.raises(ValueError):
            polylog_jonquiere(2, mp.mpc(0, 0.01), PREC)
        with pytest.raises(ValueError):
            polylog_jonquiere(2, mp.mpc(0, 6.2831853), PREC)


class TestPhi:
    def test_value_at_minus_ten(self):
        # Independent series evaluation freezes the reference digits.
        with mp.workprec(PREC):
            got = phi(mp.mpf(-10), PREC)
            ref = mp.mpf("0.1644434656799460256291812")
            assert abs(got - ref) < mp.mpf("1e-24")
            assert abs(got.imag) == 0

    def test_matches_direct_composition(self):
        with mp.workprec(PREC + 64):
            for z in (mp.mpc(-1, 3), mp.mpc(-0.5, -7), mp.mpc(-2, 0.1)):
                ref = mp.log(1 - mp.exp(z)) + (
                    mp.polylog(2, mp.exp(z)) - mp.pi**2 / 6
                ) / z
                assert abs(phi(z, PREC) - ref) < mp.mpf(2) ** (-(PREC - 16))

    def test_derivative_matches_numeric_differentiation(self):
        with mp.workprec(PREC + 64):
            for z in (mp.mpc(-1, 3), mp.mpc(-1.6, 7.4)):
                got = _phi_pair(z, PREC)[1]
                h = mp.mpf(2) ** (-60)
                numeric = (phi(z + h, PREC) - phi(z - h, PREC)) / (2 * h)
                assert abs(got - numeric) < mp.mpf(2) ** (-100)

    def test_conjugation_symmetry(self):
        with mp.workprec(PREC + 64):
            z = mp.mpc(-1, 2)
            assert phi(mp.conj(z), PREC) == mp.conj(phi(z, PREC))
            assert _phi_pair(mp.conj(z), PREC)[1] == mp.conj(
                _phi_pair(z, PREC)[1]
            )

    def test_small_at_the_root_guess(self):
        with mp.workprec(PREC):
            assert abs(phi(mp.mpc("-1.61", "7.42"), PREC)) < mp.mpf("0.05")

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="singular at z = 0"):
            phi(0, PREC)
        with pytest.raises(ValueError, match="Re z > 0"):
            phi(mp.mpc(0.5, 1), PREC)
        with pytest.raises(ValueError):
            _phi_pair(0, PREC)[1]

    def test_precision_floor_rejected(self):
        with pytest.raises(ValueError):
            phi(mp.mpc(-1), 32)
