"""Special functions against independent mpmath oracles and identities."""

import random

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import from_int, from_man_exp, mpf_add, mpf_div, round_nearest

import radpfd.specfun as specfun
from radpfd.specfun import (
    _phi_pair,
    _series_li2,
    dilog,
    hurwitz_zeta,
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
    prec + 4 apart, the exponents 100 apart), rounding ties far above a
    tiny operand, and exact ties."""
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


class TestSeriesLi2:
    @pytest.mark.parametrize("prec", [96, 160, 288, 544])
    def test_steps_round_as_libmpf(self, prec):
        rng = random.Random(prec)
        for am, ae, bm, be in add_operands(rng, prec):
            m, e = specfun._add(am, ae, bm, be, prec)
            assert m % 2 or not m
            want = mpf_add(from_man_exp(am, ae), from_man_exp(bm, be), prec, round_nearest)
            assert from_man_exp(m, e) == want, (am, ae, bm, be)
        for _ in range(1000):
            am, ae = odd(rng, rng.randint(1, prec)), rng.randint(-prec, prec)
            k = rng.randint(1, 5000)
            kz = (k * k & -(k * k)).bit_length() - 1
            m, e = specfun._div(am, ae, k * k >> kz, kz, prec)
            assert m % 2
            want = mpf_div(from_man_exp(am, ae), from_int(k * k), prec, round_nearest)
            assert from_man_exp(m, e) == want, (am, ae, k)

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
                offset, top = ae - be, am.bit_length() + ae - bm.bit_length() - be
                perturbed.append(abs(offset) > 100 and abs(top) > p + 4 and offset * top > 0)
            return add(am, ae, bm, be, p)

        monkeypatch.setattr(specfun, "_add", spy)
        with mp.workprec(prec + 32):
            for u in series_inputs(prec):
                _series_li2(u, prec)
        assert any(perturbed) and not all(perturbed)


class TestHurwitzZeta:
    def test_matches_mpmath_complex_shift(self):
        with mp.workprec(PREC + 64):
            for s in (2, 3, 6):
                for q in (
                    mp.mpc("0.5", "0.3"),
                    mp.mpc("0.5", "-4.2"),
                    mp.mpc(2),
                    mp.mpc(0, "1.5"),
                ):
                    got = hurwitz_zeta(s, q, PREC)
                    assert abs(got.value - mp.zeta(s, q)) <= got.error_estimate

    @pytest.mark.parametrize("prec", [64, 512])
    def test_bound_holds_at_the_strip_corners(self, prec):
        # the two shifts polylog_jonquiere passes for each corner z
        for z in CORNER_Z:
            with mp.workprec(prec + 32):
                shift = mp.log(-mp.exp(z)) / (2j * mp.pi)
                shifts = (mp.mpf(1) / 2 + shift, mp.mpf(1) / 2 - shift)
            for s in (2, 3, 6):
                for q in shifts:
                    got = hurwitz_zeta(s, q, prec)
                    with mp.workprec(prec + 96):
                        assert abs(got.value - mp.zeta(s, q)) <= got.error_estimate

    def test_real_s_on_real_shift(self):
        with mp.workprec(PREC + 64):
            got = hurwitz_zeta(mp.mpf("2.5"), mp.mpf("0.75"), PREC).value
            assert abs(got - mp.zeta(mp.mpf("2.5"), mp.mpf("0.75"))) < mp.mpf(2) ** (
                -(PREC - 16)
            )

    def test_rejects_convergence_boundary(self):
        with pytest.raises(ValueError, match="outside convergence region"):
            hurwitz_zeta(1, mp.mpf("0.5"), PREC)

    def test_rejects_bad_shift(self):
        with pytest.raises(ValueError):
            hurwitz_zeta(2, 0, PREC)
        with pytest.raises(ValueError):
            hurwitz_zeta(2, mp.mpc(-1, 1), PREC)


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
