"""Exact rational pipeline: coefficients and serialization."""

import hashlib
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radpfd.exact import (
    CoefficientVector,
    _to_mpf,
    coefficient_range,
    decimal_str,
    exact_coefficients,
    rational_str,
)

rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=50
)


class TestCoefficients:
    def test_hand_values(self, small_vectors):
        assert small_vectors[1].coeff(1) == Fraction(-1)
        assert small_vectors[2].coeff(1) == Fraction(-1, 4)
        assert small_vectors[2].coeff(2) == Fraction(1, 2)
        assert small_vectors[3].coeff(1) == Fraction(-17, 72)

    def test_top_coefficient_identity(self, small_vectors):
        for N, vec in small_vectors.items():
            assert vec.coeff(N) == Fraction((-1) ** N, math.factorial(N))

    def test_single_matches_range(self, small_vectors):
        for N in (1, 7, 19):
            assert exact_coefficients(N) == small_vectors[N]

    def test_rejects_n_zero(self):
        with pytest.raises(ValueError, match="empty product"):
            exact_coefficients(0)

    def test_coeff_index_validation(self, small_vectors):
        vec = small_vectors[4]
        with pytest.raises(ValueError):
            vec.coeff(0)
        with pytest.raises(ValueError):
            vec.coeff(5)

    def test_range_bounds_validation(self):
        with pytest.raises(ValueError):
            list(coefficient_range(5, 4))

    def test_vector_is_well_formed(self, small_vectors):
        vec = small_vectors[12]
        assert isinstance(vec, CoefficientVector)
        assert len(vec.values) == 12

    def test_vectors_are_in_lowest_terms(self, small_vectors):
        # one reduced form per value, so equal vectors compare equal as dataclasses
        vectors = list(small_vectors.values()) + [exact_coefficients(N) for N in (1, 2, 88, 150)]
        for vec in vectors:
            assert vec.denominator > 0, vec.N
            assert math.gcd(vec.denominator, *vec.numerators) == 1, vec.N

    @pytest.mark.parametrize("numerators, denominator", [((2, -4), 6), ((1, 2), 0), ((-1, 2), -3)])
    def test_vector_rejects_other_than_lowest_terms(self, numerators, denominator):
        with pytest.raises(ValueError, match="lowest terms"):
            CoefficientVector(2, numerators, denominator)

    # sha256 over "N l p/q" lines of every C(N, l), recorded from the
    # earlier engine that multiplied reciprocal unit series
    SMALL_SHA256 = "1a8a364c5b44d611dab45300d83c59fa84ae27bd6a3ec2a42a15a2bcb33872c6"
    BATCH_SHA256 = "077d194103193215de09900bf5be2c2364890d28f857a2b127a8a708262fcf53"

    @staticmethod
    def _digest(vectors):
        h = hashlib.sha256()
        for N in sorted(vectors):
            for l, q in enumerate(vectors[N].values, 1):
                h.update(f"{N} {l} {rational_str(q)}\n".encode())
        return h.hexdigest()

    def test_small_sweep_rationals_are_pinned(self, small_vectors):
        assert sorted(small_vectors) == list(range(1, 31))
        assert self._digest(small_vectors) == self.SMALL_SHA256

    def test_batch_sweep_rationals_are_pinned(self, batch_vectors):
        assert sorted(batch_vectors) == list(range(80, 151))
        assert self._digest(batch_vectors) == self.BATCH_SHA256

    def test_one_n_matches_batch_sweep(self, batch_vectors):
        # exact_coefficients is the log/exp start alone, no division
        for N in (80, 88, 115, 150):
            assert exact_coefficients(N) == batch_vectors[N]

    @pytest.mark.parametrize("n_from", [1, 7, 11, 12, 20, 40])
    def test_range_matches_divisions_from_one(self, n_from):
        # the integer sweep against the log/exp start, an independent route
        got = list(coefficient_range(n_from, 40))
        assert got == [exact_coefficients(N) for N in range(n_from, 41)]

    def test_range_matches_log_exp_beyond_the_pinned_window(self):
        assert next(coefficient_range(200, 200)) == exact_coefficients(200)

    def test_one_n_matches_range_at_every_n_to_100(self):
        # the log/exp start raises its common denominator for every N >= 2
        # here; one sweep 1..100 gives the independent rows
        assert [exact_coefficients(N) for N in range(1, 101)] == list(coefficient_range(1, 100))

    # recorded from the log/exp start on Fractions, whose row at N = 300
    # equals next(coefficient_range(300, 300))
    N300_SHA256 = "b28d95d609aa063750d9d39dc5e623f002aa4bc6b25c943dff182444db253883"

    def test_one_n_rationals_at_300_are_pinned(self):
        assert self._digest({300: exact_coefficients(300)}) == self.N300_SHA256

    def test_every_value_is_a_fraction(self):
        vectors = [exact_coefficients(1), exact_coefficients(2)]
        vectors += coefficient_range(1, 12)
        for vec in vectors:
            assert all(type(q) is Fraction for q in vec.values), vec.N


def principal_part_remainder(N: int, x: Fraction) -> Fraction:
    """prod_{j<=N} (1-x^j)^{-1} minus its principal part at x = 1, exactly.

    The difference is analytic at x = 1, which the tests probe by
    evaluating at rational points x = 1 + eps.
    """
    x = Fraction(x)
    if x == 1:
        raise ValueError("pole input: x = 1")
    if x == -1 and N >= 2:
        raise ValueError("pole input: x = -1 is a root of 1 - x^2")
    f = Fraction(1)
    for j in range(1, N + 1):
        f /= 1 - x**j
    vec = exact_coefficients(N)
    pp = Fraction(0)
    for l in range(1, N + 1):
        pp += vec.coeff(l) / (x - 1) ** l
    return f - pp


class TestRemainder:
    def test_no_pole_left_at_one(self):
        # f(x) - principal part = 1/(4(x+1)) for N = 2; finite at x = 1.
        for x in (Fraction(3, 2), Fraction(1, 2), Fraction(0), Fraction(-3)):
            assert principal_part_remainder(2, x) == Fraction(1, 4) / (x + 1)

    def test_value_just_off_the_pole(self):
        eps = Fraction(1, 10**6)
        near = principal_part_remainder(2, 1 + eps)
        assert near == 1 / (8 + 4 * eps)

    def test_rejects_product_poles(self):
        with pytest.raises(ValueError):
            principal_part_remainder(2, Fraction(1))
        with pytest.raises(ValueError):
            principal_part_remainder(2, Fraction(-1))

    @given(st.integers(1, 8), rationals)
    @settings(max_examples=40)
    def test_reconstructs_the_product(self, N, x):
        # principal part + remainder must equal the product wherever the
        # product is defined.
        for j in range(1, N + 1):
            if x**j == 1:
                return
        vec = exact_coefficients(N)
        total = principal_part_remainder(N, x) + sum(
            vec.coeff(l) / (x - 1) ** l for l in range(1, N + 1)
        )
        direct = Fraction(1)
        for j in range(1, N + 1):
            direct /= 1 - x**j
        assert total == direct


class TestSerialization:
    @given(rationals)
    @settings(max_examples=80)
    def test_rational_round_trip(self, q):
        assert Fraction(rational_str(q)) == q

    def test_rational_str_always_shows_denominator(self):
        assert rational_str(Fraction(-1)) == "-1/1"
        assert rational_str(Fraction(1, 2)) == "1/2"

    def test_decimal_str_exact_dyadic(self):
        assert decimal_str(Fraction(3, 16)) == "0.1875"

    def test_decimal_str_seventeen_digits(self):
        s = decimal_str(Fraction(-17, 72))
        assert s.startswith("-0.2361111111111111")


class TestToMpf:
    """_to_mpf rounds q once, to nearest: the result lies within half an
    ulp of q.  Rounding the numerator first and then the quotient missed
    that bound on 2091 of the 11748 values C(N, l), N <= 88, at 64, 80
    and 256 bits."""

    @staticmethod
    def assert_within_half_ulp(q, precision):
        sign, man, exp, bc = _to_mpf(q, precision)._mpf_
        value = (-1) ** sign * man * Fraction(2) ** exp
        assert abs(value - q) <= Fraction(2) ** (exp + bc - precision - 1)

    def test_values_the_double_rounding_missed(self, small_vectors, mid_vectors):
        # C(66, 3) printed -0.089747685983716824 under `exact --float-exact`
        # at 64 bits; the value rounded once prints ...825
        for q in (mid_vectors[66].coeff(3), small_vectors[26].coeff(16)):
            self.assert_within_half_ulp(q, 64)

    @pytest.mark.parametrize("precision", [64, 80, 256])
    def test_every_coefficient_to_30(self, small_vectors, precision):
        for vec in small_vectors.values():
            for q in vec.values:
                self.assert_within_half_ulp(q, precision)
