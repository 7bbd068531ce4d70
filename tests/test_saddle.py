"""Saddle solve, derived constants, and the asymptotic main term."""

import hashlib

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radpfd.saddle import (
    H,
    argument_principle_count,
    asymptotic_C,
    saddle_constants,
)
import radpfd.saddle as saddle
import radpfd.specfun as specfun
from radpfd.specfun import dilog, phi

PREC = 256

# Reference digits, frozen from a converged high-precision solve.
Z0_RE = "-1.6055275535489145575"
Z0_IM = "7.4234261706250023736"

# saddle_constants(256).z0 to 90 digits; `radpfd check` prints |phi(z0)| from
# the last bits of this root.
Z0_90 = (
    "(-1.60552755354891455752450112916790792150394894184969445135105407619119981041334441037297235 + "
    "7.42342617062500237355098219449384859661233057819319424761721800085805902980634641363318105j)"
)

# sha256 of repr(_solve_saddle(precision)._mpc_), recorded while Newton
# still halved each step that did not lower |phi|; no step needed it.  The
# 64-bit root was re-recorded when Newton's stopping bound fell from
# 2^-(precision-16) to 2^-(precision+8), which takes one more step there.
Z0_DIGESTS = {
    64: "3e13be94a4f8606ec7934c89dc460e7f7cd5d2bb216bfdeab686c5dadedc0840",
    256: "5efb39a4b7252a74a8921dedcb0b80059367c60d00a19cd4f8125ef48e79b8d0",
    1024: "50c28799169a858485c419ab6bdb8b09e43dc6eb6c135aec757e5588c6edd54c",
}


class TestSolve:
    def test_residual_below_spec_ceiling(self, sd):
        with mp.workprec(PREC + 32):
            assert abs(phi(sd.z0, PREC)) < mp.mpf(2) ** (-(PREC - 16))
            assert abs(phi(sd.z0, PREC)) < mp.mpf("1e-60")

    def test_root_location(self, sd):
        with mp.workprec(PREC):
            assert abs(sd.z0.real - mp.mpf(Z0_RE)) < mp.mpf("1e-18")
            assert abs(sd.z0.imag - mp.mpf(Z0_IM)) < mp.mpf("1e-18")
            # displayed 2-decimal form
            assert mp.nstr(sd.z0.real, 3) == "-1.61"
            assert mp.nstr(sd.z0.imag, 3) == "7.42"

    def test_residual_ceiling_scales_with_precision(self):
        for prec in (128, 256):
            z = saddle_constants(prec).z0
            with mp.workprec(prec + 32):
                assert abs(phi(z, prec)) < mp.mpf(2) ** (-(prec - 16))

    def test_stationarity_of_the_exponent_rate(self, sd):
        # The defining equation is equivalent to d/dz of the growth
        # exponent (Li2(e^z) - pi^2/6)/z vanishing at the root.
        with mp.workprec(PREC + 32):
            z0 = sd.z0
            li = dilog(mp.exp(z0), PREC).value
            rate_deriv = -mp.log(1 - mp.exp(z0)) / z0 - (li - mp.pi**2 / 6) / z0**2
            assert abs(rate_deriv) < mp.mpf("1e-30")

    def test_one_root_in_the_disk(self):
        assert argument_principle_count() == 1

    def test_trapezoid_value_at_64_bits_is_near_one(self):
        value = saddle._argument_principle_value()
        assert abs(value - 1) < mp.mpf("1e-20")

    def test_pinned_root_and_residual(self, sd):
        assert mp.nstr(sd.z0, 90) == Z0_90
        assert mp.nstr(abs(phi(sd.z0, PREC)), 3) == "4.72e-81"

    @pytest.mark.parametrize("precision", sorted(Z0_DIGESTS))
    def test_pinned_root_bits(self, precision):
        z0 = saddle._solve_saddle(precision)
        assert hashlib.sha256(repr(z0._mpc_).encode()).hexdigest() == Z0_DIGESTS[precision]

    def test_iterate_past_the_certified_radius_fails(self, monkeypatch):
        # a root 1.5 from the start: outside the disk where
        # argument_principle_count certifies the one root of phi
        far = mp.mpc(saddle._INITIAL) + mp.mpf("1.5")
        monkeypatch.setattr(saddle, "_phi_pair", lambda z, precision: (z - far, 1))
        with pytest.raises(RuntimeError, match="radius-1 disk"):
            saddle._solve_saddle(PREC)

    def test_iteration_cap(self, monkeypatch):
        points = []

        def creeping(z, precision):
            # Newton steps of 2^-40 that never reach the root
            points.append(z)
            return mp.mpc(1), mp.mpf(2) ** 40

        monkeypatch.setattr(saddle, "_phi_pair", creeping)
        with pytest.raises(RuntimeError, match="within 100 iterations"):
            saddle._solve_saddle(PREC)
        assert len(points) == 101  # the start and 100 steps

    def test_precision_floor_rejected(self):
        with pytest.raises(ValueError, match="at least 64 bits"):
            saddle_constants(32)


class TestOneDilogPerPoint:
    """phi and phi' at a point share one Li2(e^z) evaluation."""

    @pytest.fixture
    def dilog_args(self, monkeypatch):
        seen = []
        inner = specfun._dilog_value

        def counting(w, precision):
            seen.append(w)
            return inner(w, precision)

        monkeypatch.setattr(specfun, "_dilog_value", counting)
        # the spy sees this process only: compute every node here
        monkeypatch.setattr(saddle, "_split_map", lambda fn, items: [fn(x) for x in items])
        return seen

    def test_newton(self, dilog_args):
        # the constants come from Newton's last point; nothing re-evaluates Li2 there
        saddle_constants(PREC)
        assert len(dilog_args) > 1
        assert len(set(dilog_args)) == len(dilog_args)

    def test_argument_principle(self, dilog_args):
        argument_principle_count()
        assert len(dilog_args) == len(set(dilog_args)) == 128


class TestConstants:
    def test_frozen_decimal_values(self, sd):
        with mp.workprec(PREC):
            assert abs(sd.a - mp.mpf("1.79428492572")) < mp.mpf("1e-11")
            assert abs(sd.b - mp.mpf("1.070446833")) < mp.mpf("1e-9")
            assert abs(sd.theta - mp.mpf("-0.196576126256")) < mp.mpf("1e-12")
            assert abs(sd.p - mp.mpf("31.9631148851")) < mp.mpf("1e-10")
            assert abs(sd.alpha - mp.mpf("0.0282984071451")) < mp.mpf("1e-13")

    def test_two_decimal_roundings(self, sd):
        with mp.workprec(PREC):
            assert mp.mpf("1.07") < sd.b < mp.mpf("1.0705")
            assert mp.mpf("31.9") < sd.p < mp.mpf("32.2")
            assert abs(sd.a - mp.mpf("1.79")) < mp.mpf("0.005")
            assert abs(sd.alpha - mp.mpf("0.028")) < mp.mpf("0.0005")
            assert abs(sd.b**sd.p - mp.mpf("8.81")) < mp.mpf("0.02")

    @pytest.mark.parametrize("prec", [64, PREC, 1024])
    def test_structural_identities(self, prec):
        sd = saddle_constants(prec)
        with mp.workprec(prec + 32):
            u = 1 - mp.exp(sd.z0)
            assert abs(abs(sd.rho) - 1) < mp.mpf(2) ** (-(prec - 16))
            assert abs(sd.b - 1 / abs(u)) == 0
            assert abs(sd.p - 2 * mp.pi / abs(sd.theta)) < mp.mpf(2) ** (-(prec - 16))
            assert sd.alpha > 0
            radicand = -sd.z0 * u / (sd.rho**2 * mp.exp(sd.z0))
            assert abs(radicand.imag) < mp.mpf(2) ** (-(prec // 2))
            assert abs(radicand.real - 1 / sd.alpha) < mp.mpf(2) ** (-(prec - 24))


class TestH:
    def test_frozen_values(self, sd):
        with mp.workprec(PREC):
            assert abs(
                H(1, 100, sd) - mp.mpf("4.856007631896530434117779")
            ) < mp.mpf("1e-23")
            assert abs(
                H(1, 147, sd) - mp.mpf("-5.20665373364951558008731")
            ) < mp.mpf("1e-22")

    def test_periodicity(self, sd):
        with mp.workprec(PREC + 32):
            for l, n in ((1, mp.mpf(100)), (2, mp.mpf("37.25"))):
                delta = abs(H(l, n + sd.p, sd) - H(l, n, sd))
                assert delta < mp.mpf(2) ** (-(PREC // 2))

    @given(st.floats(0, 96))
    @settings(max_examples=40, deadline=None)
    def test_amplitude_bound(self, sd, n):
        # Triangle inequality on the defining formula caps |H|.
        with mp.workprec(PREC + 32):
            bound = (
                mp.sqrt(1 / sd.alpha)
                / mp.pi
                * abs((-sd.z0) ** mp.mpf("0.5") / mp.sqrt(1 - mp.exp(sd.z0)))
            )
            assert abs(H(1, mp.mpf(n), sd)) <= bound * (1 + mp.mpf(2) ** (-200))

    def test_amplitude_bound_frozen_value(self, sd):
        with mp.workprec(PREC + 32):
            bound = (
                mp.sqrt(1 / sd.alpha)
                / mp.pi
                * abs((-sd.z0) ** mp.mpf("0.5") / mp.sqrt(1 - mp.exp(sd.z0)))
            )
            assert abs(bound - mp.mpf("5.395321882252019708")) < mp.mpf("1e-17")

    def test_two_sign_changes_per_period(self, sd):
        with mp.workprec(PREC):
            flips = 0
            prev = H(1, mp.mpf(100), sd) > 0
            for k in range(1, int(sd.p / mp.mpf("0.1")) + 1):
                cur = H(1, mp.mpf(100) + k * mp.mpf("0.1"), sd) > 0
                if cur != prev:
                    flips += 1
                prev = cur
            assert flips == 2

    def test_accepts_real_n(self, sd):
        assert H(1, 100.5, sd) != H(1, 100, sd)

    def test_rejects_bad_l(self, sd):
        with pytest.raises(ValueError):
            H(0, 100, sd)


def plain_H(l, N, sd):
    """Reference for H: the amplitude computed afresh on every call."""
    with mp.workprec(sd.precision + 32):
        N = mp.mpf(N)
        ez = mp.exp(sd.z0)
        K = sd.rho * (-sd.z0) ** (l - mp.mpf(1) / 2) / mp.sqrt(1 - ez)
        scale = mp.sqrt(1 / sd.alpha) / mp.pi
        if l % 2 == 0:
            scale = -scale
        angle = N * sd.theta
        return mp.mpf(scale * (K.imag * mp.cos(angle) - K.real * mp.sin(angle)))


class TestAmplitudeCache:
    @pytest.mark.parametrize("l", [1, 2, 3, 6])
    def test_bit_identical_to_plain_formula(self, sd, l):
        for N in (1, 37.25, 100, 147, mp.mpf(100) + sd.p):
            assert H(l, N, sd)._mpf_ == plain_H(l, N, sd)._mpf_

    @pytest.mark.parametrize("prec", [64, 256, 1024])
    def test_one_cos_sin_call_is_the_two_calls(self, prec):
        # H takes cos and sin of its angle from one mp.cos_sin call
        sd = saddle_constants(prec)
        for l in (1, 2):
            for N in (1, 37.25, 88, 100.5, 147, mp.mpf(100) + sd.p):
                assert H(l, N, sd)._mpf_ == plain_H(l, N, sd)._mpf_, (l, N)

    def test_computed_once_per_l_and_saddle(self, sd):
        H(4, 100, sd)
        hits = saddle._amplitude.cache_info().hits
        H(4, 101, sd)
        H(4, 102, sd)
        assert saddle._amplitude.cache_info().hits == hits + 2


class TestAsymptotic:
    def test_main_term_composition(self, sd):
        with mp.workprec(PREC + 32):
            main = asymptotic_C(1, 100, sd)
            assert main == sd.b ** 100 * mp.mpf(100) ** -2 * H(1, 100, sd)

    def test_saddle_integral_cross_check(self, sd):
        # The same number written as the imaginary part of a single
        # complex product; agreement is algebra, not approximation.
        with mp.workprec(PREC + 32):
            for l, N in ((1, 100), (2, 117), (3, 86)):
                main = asymptotic_C(l, N, sd)
                u = 1 - mp.exp(sd.z0)
                K = sd.rho * (-sd.z0) ** (l - mp.mpf(1) / 2) / mp.sqrt(sd.alpha * u)
                sign = 1 if l % 2 == 1 else -1
                cross = (
                    sign
                    / (mp.pi * mp.mpf(N) ** l)
                    * (K * u ** (-N) / N).imag
                )
                assert abs(main - cross) < mp.mpf(2) ** (-(PREC - 48)) * max(1, abs(main))

    def test_l_dependence_is_one_over_n_times_h_ratio(self, sd):
        # asym(2)/asym(1) = H_2/(N H_1): check the cleared form, which
        # stays valid at zeros of H_1.
        with mp.workprec(PREC + 32):
            for N in (100, 113, 150):
                a1 = asymptotic_C(1, N, sd)
                a2 = asymptotic_C(2, N, sd)
                lhs = a2 * N * H(1, N, sd)
                rhs = a1 * H(2, N, sd)
                assert abs(lhs - rhs) < mp.mpf(2) ** (-(PREC - 64)) * max(
                    abs(lhs), abs(rhs), 1
                )

    def test_saddle_precision_rises_with_n_from_512(self):
        Ns = (1, 500, 511, 512, 2**73 - 1, 2**73, 10**90)
        got = [saddle._saddle_precision(256, N) for N in Ns]
        assert got == [256, 256, 256, 320, 320, 384, 576]

    def test_rejects_bad_arguments(self, sd):
        with pytest.raises(ValueError):
            asymptotic_C(0, 10, sd)
        with pytest.raises(ValueError):
            asymptotic_C(1, 0, sd)
