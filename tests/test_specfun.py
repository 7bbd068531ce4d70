"""Special functions against independent mpmath oracles and identities."""

import cmath
import hashlib
import math
import random

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import (
    from_int,
    from_man_exp,
    mpf_add,
    mpf_div,
    mpf_mul,
    mpf_mul_int,
    round_nearest,
)

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


def plain_series_li2(u, precision):
    """Reference for _series_li2: the same series on plain mpc objects."""
    if u == 0:
        return mp.mpc(0)
    cutoff = mp.mpf(2) ** (-(precision + 8))
    acc = mp.mpc(0)
    power = mp.mpc(1)
    for k in range(1, 64 * (precision + 64)):
        power *= u
        term = power / (k * k)
        acc += term
        if abs(term) < cutoff * abs(acc):
            return acc
    raise RuntimeError("dilogarithm series failed to converge")


def series_inputs(prec):
    """Arguments for the series kernel, built at the working precision."""
    # |u| from 1e-6 to 0.75 and arguments k pi / 8 round the circle
    us = [
        mp.mpf(r) * mp.expjpi(mp.mpf(k) / 8)
        for r in ("1e-6", "1e-3", "0.1", "0.4", "0.6", "0.75")
        for k in range(16)
    ]
    # parts more than 100 bits apart, larger real or larger imaginary part,
    # where mpf_add perturbs the larger operand instead of adding exactly
    far = [("0.5", "1e-40"), ("1e-80", "0.6"), ("-0.7", "3e-50")]
    far += [("0.75", "1e-40"), ("-1e-60", "0.75"), ("0.75", "-2e-45")]
    us += [mp.mpc(x, y) for x, y in far]
    # purely real and purely imaginary
    us += [mp.mpc(x, 0) for x in ("0.5", "-0.75", "1e-30", "-0.123")]
    us += [mp.mpc(0, y) for y in ("0.5", "-0.75", "1e-30", "0.321")]
    # and 40 seeded random points of the disk |u| <= 0.75, their parts
    # carrying a full-width mantissa
    rng, fixed = random.Random(prec), len(us)

    def part():
        return mp.ldexp(rng.getrandbits(mp.mp.prec), -mp.mp.prec) * 1.5 - 0.75

    while len(us) < fixed + 40:
        u = mp.mpc(part(), part())
        if 0 < abs(u) <= 0.75:
            us.append(u)
    return us


def odd(rng, bits):
    """A random odd mantissa of exactly `bits` bits, either sign."""
    m = rng.getrandbits(bits - 1) | 1 << (bits - 1) | 1
    return -m if rng.random() < 0.5 else m


def add_operands(rng, prec):
    """(am, ae, bm, be) for mpf_add at prec bits: random pairs, pairs of
    products on both sides of the perturbation thresholds (the tops
    prec + 4 apart, the exponents of the odd mantissas 100 apart), rounding
    ties far above a tiny operand, and exact ties."""
    for _ in range(300):
        am, bm = odd(rng, rng.randint(1, 2 * prec)), odd(rng, rng.randint(1, 2 * prec))
        yield am, rng.randint(-3 * prec, 3 * prec), bm, 0
    for _ in range(300):
        delta = prec + rng.randint(1, 12)  # top(s) - top(t)
        offset = rng.choice((delta, 100, 101))  # exponent of s - exponent of t
        s, t = odd(rng, 2 * prec), odd(rng, 2 * prec + offset - delta)
        if rng.random() < 0.5:
            # s's bits between the rounding point and t's top read 100...0,
            # so the exact sum and the perturbed one can round apart
            low = 2 * prec - delta
            a = abs(s) & ~((1 << prec) - (1 << low)) | 1 << (prec - 1)
            s = a if s > 0 else -a
        yield (s, 0, t, -offset) if rng.random() < 0.5 else (t, -offset, s, 0)
    for _ in range(100):
        tiny = odd(rng, rng.randint(1, prec))
        yield odd(rng, prec + 1), 0, tiny, -rng.randint(prec + 110, 3 * prec)
        yield odd(rng, prec + 1), 0, 0, 0  # rounds to the even neighbour


def pad(rng, m, e):
    """m * 2^e with 0 to 120 zero bits shifted into m."""
    t = rng.randint(0, 120)
    return m << t, e - t


class TestSeriesLi2:
    @pytest.mark.parametrize("prec", [96, 160, 288, 544])
    def test_steps_round_as_libmpf(self, prec):
        rng = random.Random(prec)
        for am, ae, bm, be in add_operands(rng, prec):
            want = mpf_add(from_man_exp(am, ae), from_man_exp(bm, be), prec, round_nearest)
            # the operands as given, with zero bits (short and wide ones),
            # and rounded to prec bits with zero bits
            short = [specfun._round(am, ae, prec), specfun._round(bm, be, prec)]
            short_want = mpf_add(*(from_man_exp(*x) for x in short), prec, round_nearest)
            for a, b, w in (
                ((am, ae), (bm, be), want),
                (pad(rng, am, ae), pad(rng, bm, be), want),
                (pad(rng, *short[0]), pad(rng, *short[1]), short_want),
            ):
                m, e = specfun._add(*a, *b, prec)
                assert abs(m) < 1 << prec
                assert from_man_exp(m, e) == w, (a, b)
        for _ in range(1000):
            am, ae = pad(rng, odd(rng, rng.randint(1, prec)), rng.randint(-prec, prec))
            k = rng.randint(1, 5000)
            m, e = specfun._div(am, ae, k * k, prec)
            assert abs(m) < 1 << prec
            want = mpf_div(from_man_exp(am, ae), from_int(k * k), prec, round_nearest)
            assert from_man_exp(m, e) == want, (am, ae, k)

    @pytest.mark.parametrize("prec", [64, 1056])
    def test_add_at_the_perturbation_thresholds(self, prec):
        # tops prec + 3 to prec + 6 apart, the odd mantissas' exponents 99
        # to 102 apart, each operand with 0, 1 or 100 zero bits, either sign
        rng = random.Random(-prec - 1)
        for top_gap in range(prec + 3, prec + 7):
            for exp_gap in range(99, 103):
                for _ in range(20):
                    wa = rng.randint(max(1, top_gap - exp_gap + 1), 2 * prec)
                    a, b = (odd(rng, wa), 0), (odd(rng, wa + exp_gap - top_gap), -exp_gap)
                    want = mpf_add(from_man_exp(*a), from_man_exp(*b), prec, round_nearest)
                    za, zb = rng.choice((0, 1, 100)), rng.choice((0, 1, 100))
                    a, b = (a[0] << za, a[1] - za), (b[0] << zb, b[1] - zb)
                    for x, y in ((a, b), (b, a)):
                        assert from_man_exp(*specfun._add(*x, *y, prec)) == want, (x, y)

    @pytest.mark.parametrize("prec", [96, 544])
    def test_a_carry_keeps_the_mantissa_below_2_to_the_prec(self, prec):
        for sign in (1, -1):  # prec + 1 one bits round up to 2^(prec + 1)
            m, e = specfun._round(sign * ((1 << prec + 1) - 1), 0, prec)
            assert abs(m) < 1 << prec and m << e == sign << prec + 1

    def test_a_power_near_the_real_axis_reaches_the_perturbed_sum(self):
        # the power's trailing zero bits would move a far-operand test made
        # on raw exponents in a product sum, and so the sum's last bits
        # (found by a seeded search over u = c + d i, d about 2^-149 with a
        # 98-bit mantissa)
        cm = 306005874931705488033026213338502016428051732353317624805500855640742455926610086003783
        dm = 225250661172279779945910456497
        u = mp.mp.make_mpc((from_man_exp(-cm, -288), from_man_exp(-dm, -247)))
        with mp.workprec(288):
            assert _series_li2(u, 256)._mpc_ == plain_series_li2(u, 256)._mpc_

    @pytest.mark.parametrize("prec", [64, 128, 256, 512])
    def test_bit_identical_to_plain_mpc_loop(self, prec):
        with mp.workprec(prec + 32):
            for u in series_inputs(prec):
                got = _series_li2(u, prec)
                assert got._mpc_ == plain_series_li2(u, prec)._mpc_, u

    @pytest.mark.parametrize("prec", [64, 512])
    def test_inputs_reach_the_perturbed_sum(self, monkeypatch, prec):
        perturbed = []
        add = specfun._add

        def spy(am, ae, bm, be, p):
            if am and bm:
                # the exponents of the odd mantissas, as mpf_add sees them
                offset = ae + (am & -am).bit_length() - be - (bm & -bm).bit_length()
                top = am.bit_length() + ae - bm.bit_length() - be
                perturbed.append(abs(offset) > 100 and abs(top) > p + 4 and offset * top > 0)
            return add(am, ae, bm, be, p)

        monkeypatch.setattr(specfun, "_add", spy)
        with mp.workprec(prec + 32):
            for u in series_inputs(prec):
                _series_li2(u, prec)
        assert any(perturbed) and not all(perturbed)


class TestContourSteps:
    """_round and _div in the steps of contour's Legendre recurrence, their
    one user outside the Li2 series: _round stands in for mpf_mul and
    mpf_mul_int, and _div divides by j, or by any positive integer of up to
    2 prec bits."""

    @pytest.mark.parametrize("prec", [96, 160, 288, 544])
    def test_round_as_mpf_mul_and_mpf_mul_int(self, prec):
        rng = random.Random(-prec)
        for _ in range(500):  # signed products of up to 2 prec bits
            am, bm = odd(rng, rng.randint(1, prec)), odd(rng, rng.randint(1, prec))
            ae, be = rng.randint(-prec, prec), rng.randint(-prec, prec)
            want = mpf_mul(from_man_exp(am, ae), from_man_exp(bm, be), prec, round_nearest)
            assert from_man_exp(*specfun._round(am * bm, ae + be, prec)) == want, (am, ae, bm, be)
        for k in range(1, 2 * prec, 7):  # ties: the k dropped bits read 10...0
            for q in (odd(rng, prec), 2 * odd(rng, prec - 1)):  # either parity kept
                m = (q << k) | 1 << (k - 1)
                want = mpf_mul_int(from_man_exp(m, -k), 1, prec, round_nearest)
                assert from_man_exp(*specfun._round(m, -k, prec)) == want, (q, k)
        for n in range(1, 501):  # N <= 500, and the 2j - 1 and j - 1 of j <= 32
            xm, xe = odd(rng, prec), rng.randint(-prec, prec)
            want = mpf_mul_int(from_man_exp(xm, xe), n, prec, round_nearest)
            assert from_man_exp(*specfun._round(xm * n, xe, prec)) == want, (xm, n)

    @pytest.mark.parametrize("prec", [96, 160, 288, 544])
    def test_div_as_mpf_div(self, prec):
        rng = random.Random(prec + 1)
        # N <= 500 and j <= 32, odd and even, then odd ones and even ones of
        # up to prec bits with up to prec zero bits
        divisors = list(range(1, 501))
        for _ in range(200):
            divisors.append(abs(odd(rng, rng.randint(1, prec))) << rng.choice((0, rng.randint(1, prec))))
        for d in divisors:
            m, e = pad(rng, odd(rng, rng.randint(1, prec)), rng.randint(-prec, prec))
            got = specfun._div(m, e, d, prec)
            want = mpf_div(from_man_exp(m, e), from_int(d), prec, round_nearest)
            assert from_man_exp(*got) == want, (m, e, d)


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
