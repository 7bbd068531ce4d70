"""Arc integral, Cauchy oracle, and the proof-region numeric witnesses."""

import dataclasses
import hashlib
import math
import os

import mpmath as mp
import pytest
from mpmath.libmp import MPZ, from_man_exp

import radpfd.contour as contour
import radpfd.specfun as specfun
from radpfd.contour import (
    QuadratureSpec,
    _arc_integral,
    _full_arc_integral,
    cauchy_oracle,
    check_lower_bound_inequality,
    check_monotone_exponent,
    constant_c,
    constant_c_euler_check,
    integral_approx_C,
    oracle_spec,
)
from radpfd.exact import exact_coefficients

PREC = 256


def _as_mpf(q, precision=PREC):
    with mp.workprec(precision + 32):
        return mp.mpf(q.numerator) / q.denominator


class TestQuadratureSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="at least 8 nodes"):
            QuadratureSpec(nodes=4, precision=128, radius=1.0)
        with pytest.raises(ValueError, match="precision"):
            QuadratureSpec(nodes=16, precision=32, radius=1.0)
        with pytest.raises(ValueError, match="radius"):
            QuadratureSpec(nodes=16, precision=128, radius=0.0)

    def test_helper_constructors(self):
        # the tail bound sets M at the perfbench grid, N + 32 from N = 45 on
        assert [oracle_spec(N).nodes for N in (1, 12, 18, 24, 200)] == [33, 55, 59, 63, 232]
        for N in range(1, 501):
            s = oracle_spec(N)
            assert s.nodes > N
            assert s.precision == 64 + math.ceil(1.5 * N)
            assert s.radius == 3.0 / N


class TestCauchyOracle:
    def test_hand_value_n1(self):
        spec = QuadratureSpec(nodes=64, precision=128, radius=0.5)
        got = cauchy_oracle(1, 1, spec)
        assert abs(got.value + 1) < mp.mpf("1e-20")

    def test_hand_value_n2_l2(self):
        spec = QuadratureSpec(nodes=64, precision=128, radius=0.5)
        got = cauchy_oracle(2, 2, spec)
        assert abs(got.value - mp.mpf("0.5")) < mp.mpf("1e-20")

    def test_matches_exact_at_n20_high_precision(self, small_vectors):
        got = cauchy_oracle(1, 20, QuadratureSpec(nodes=224, precision=512, radius=0.15))
        exact = _as_mpf(small_vectors[20].coeff(1), 512)
        with mp.workprec(512):
            assert abs(got.value - exact) < mp.mpf("1e-20")

    def test_radius_precondition(self):
        spec = QuadratureSpec(nodes=64, precision=256, radius=0.7)
        with pytest.raises(ValueError, match="pole"):
            cauchy_oracle(1, 10, spec)

    def test_precision_precondition(self):
        spec = QuadratureSpec(nodes=256, precision=64, radius=0.1)
        with pytest.raises(ValueError, match="precision too low"):
            cauchy_oracle(1, 30, spec)

    def test_aliasing_precondition(self):
        # 8 and 16 nodes: the coarse rule aliases the order-29 pole at 0
        for nodes in (8, 16):
            spec = QuadratureSpec(nodes=nodes, precision=109, radius=0.1)
            with pytest.raises(ValueError, match="aliases"):
                cauchy_oracle(1, 30, spec)

    def test_doubling_delta_bounds_the_error_on_c2_pairs(self, small_vectors):
        for N, vec in small_vectors.items():
            for l in sorted({1, min(N, 2), min(N, 4)}):  # the pairs of c2
                got = cauchy_oracle(l, N, oracle_spec(N))
                with mp.workprec(256):
                    diff = abs(got.value - _as_mpf(vec.coeff(l)))
                assert got.node_doubling_delta >= diff, (N, l)

    def test_matches_exact_beyond_150(self):
        exact = exact_coefficients(200)
        spec = oracle_spec(200)
        for l in (1, 2):
            got = cauchy_oracle(l, 200, spec)
            with mp.workprec(spec.precision + 64):
                diff = abs(got.value - _as_mpf(exact.coeff(l), spec.precision + 64))
            assert diff < mp.mpf("1e-20"), (l, diff)

    def test_rule_precondition(self):
        # the arc integral's radius-5 circle encloses poles of the product
        spec = QuadratureSpec(nodes=64, precision=256, radius=5.0)
        with pytest.raises(ValueError, match="pole"):
            cauchy_oracle(1, 5, spec)

    def test_doubling_delta_decays_spectrally(self):
        deltas = []
        for nodes in (32, 64):
            spec = QuadratureSpec(nodes=nodes, precision=128, radius=0.3)
            deltas.append(cauchy_oracle(1, 10, spec).node_doubling_delta)
        assert deltas[0] > 10 * deltas[1]


class TestOracleCache:
    @staticmethod
    def bits(l, N, spec):
        got = cauchy_oracle(l, N, spec)
        return got.value._mpf_, got.node_doubling_delta._mpf_

    def test_value_does_not_depend_on_earlier_calls(self):
        spec = oracle_spec(12)
        contour._oracle_nodes.cache_clear()
        fresh = self.bits(2, 12, spec)
        for before in (
            (1, 12, spec),  # another l at the same (N, spec)
            (2, 10, oracle_spec(10)),  # another N
            # another precision
            (2, 12, dataclasses.replace(spec, precision=spec.precision + 64)),
        ):
            contour._oracle_nodes.cache_clear()
            cauchy_oracle(*before)
            assert self.bits(2, 12, spec) == fresh

    def test_holds_the_latest_key_only(self):
        contour._oracle_nodes.cache_clear()
        for N in (6, 8):
            spec = oracle_spec(N)
            misses = contour._oracle_nodes.cache_info().misses
            for l in (1, 2, 3):
                cauchy_oracle(l, N, spec)
                info = contour._oracle_nodes.cache_info()
                assert (info.currsize, info.misses) == (1, misses + 1)
            nodes = contour._oracle_nodes(N, spec)
            cauchy_oracle(4, N, spec)
            assert contour._oracle_nodes(N, spec) is nodes


class TestArcIntegral:
    def test_tracks_exact_at_n20(self, small_vectors):
        v = integral_approx_C(1, 20, PREC)
        exact = _as_mpf(small_vectors[20].coeff(1))
        with mp.workprec(PREC):
            assert abs(v - exact) / abs(exact) < mp.mpf("0.2")

    def test_tracks_exact_at_n60(self, mid_vectors):
        v = integral_approx_C(1, 60, PREC)
        exact = _as_mpf(mid_vectors[60].coeff(1))
        with mp.workprec(PREC):
            assert abs(v - exact) / abs(exact) < mp.mpf("0.1")

    def test_sign_against_exact_at_n5(self, small_vectors):
        # Pins the arc orientation: a flipped traversal negates the value.
        v = integral_approx_C(1, 5, PREC)
        exact = _as_mpf(small_vectors[5].coeff(1))
        assert (v > 0) == (exact > 0)

    def test_node_doubling_stable(self):
        v64 = _arc_integral(1, 20, 2, PREC)
        v128 = _arc_integral(1, 20, 4, PREC)
        with mp.workprec(PREC):
            assert abs(v128 - v64) < mp.mpf("1e-10") * abs(v128)

    def test_doubling_delta_decays_spectrally(self):
        v32 = _arc_integral(1, 20, 1, PREC)
        v64 = _arc_integral(1, 20, 2, PREC)
        v128 = _arc_integral(1, 20, 4, PREC)
        with mp.workprec(PREC):
            assert abs(v64 - v32) > 10 * abs(v128 - v64)

    def test_error_against_exact_is_node_invariant(self, small_vectors):
        # The 3.4% gap at N = 20 is the approximation's truncation error:
        # doubling the nodes leaves it unchanged to 6 digits.
        exact = _as_mpf(small_vectors[20].coeff(1))
        with mp.workprec(PREC):
            rel = [
                abs(_arc_integral(1, 20, panels, PREC) - exact) / abs(exact)
                for panels in (4, 8)  # 128 and 256 nodes
            ]
            assert mp.nstr(rel[0], 6) == mp.nstr(rel[1], 6) == "0.0342932"

    def test_full_arc_is_real_before_cast(self):
        full = _full_arc_integral(1, 20, 2, PREC)
        with mp.workprec(PREC):
            assert abs(full.imag) < mp.mpf(2) ** (-(PREC // 2)) * max(1, abs(full))

    def test_full_arc_matches_half_arc(self):
        full = _full_arc_integral(1, 20, 4, PREC)
        half = _arc_integral(1, 20, 2, PREC)
        with mp.workprec(PREC):
            # same node density; the two reductions agree to quadrature error
            assert abs(full.real - half) < mp.mpf("1e-15") * abs(half)

    def test_precision_floor(self, monkeypatch):
        monkeypatch.setattr(contour, "_arc_nodes", _no_nodes)
        with pytest.raises(ValueError, match="at least 64 bits"):
            integral_approx_C(1, 20, 32)

    def test_accepted_count_is_the_count_used(self):
        # three panels of one 32-point rule each: 96 nodes
        assert len(contour._arc_nodes(3, PREC, False)) == 96
        v96 = _arc_integral(1, 20, 3, PREC)
        v64 = _arc_integral(1, 20, 2, PREC)
        v128 = _arc_integral(1, 20, 4, PREC)
        assert v96 not in (v64, v128)
        with mp.workprec(PREC):
            assert abs(v96 - v128) < mp.mpf("1e-10") * abs(v128)


def _raw_row(row):
    """The raw mpc tuples of a cached row of signed mantissas and exponents."""
    parts = [from_man_exp(m, e) for m, e in zip(row[0::2], row[1::2])]
    return tuple(zip(parts[0::2], parts[1::2]))


def plain_arc_sum(l, N, panels, precision, hp):
    """The half-arc value of _arc_integral on plain mpc objects at hp bits,
    on the same node table, and the error bound _arc_integral states for
    its value at precision."""
    rows = [map(mp.mp.make_mpc, _raw_row(row)) for row in contour._arc_nodes(panels, precision, False)]
    wp = precision + 32
    with mp.workprec(hp):
        half = l - mp.mpf(1) / 2
        acc, spread = mp.mpc(0), mp.mpf(0)
        for z, wdz, logmz, invsq, v in rows:
            term = mp.exp(half * logmz + z / N + N * v) * invsq * wdz
            acc += term
            spread += abs(term) * (2 * (l + N) + 32 + 2 / abs(wdz))
        sign = 1 if l % 2 == 1 else -1
        norm = mp.mpf(N) ** (l + mp.mpf(1) / 2) * (2 * mp.pi) ** mp.mpf("1.5")
        value = sign * 2 * acc.imag / norm
        return value, 2 * spread / norm * mp.mpf(2) ** -(wp + 32) + abs(value) * mp.mpf(2) ** -wp


def plain_full_arc_integral(l, N, panels, precision):
    """Reference for _full_arc_integral: the sum on plain mpc objects."""
    data = [map(mp.mp.make_mpc, _raw_row(row)) for row in contour._arc_nodes(panels, precision, True)]
    with mp.workprec(precision + 32):
        half = l - mp.mpf(1) / 2
        terms = [mp.exp(half * logmz + z / N + N * v) * invsq * wdz for (z, wdz, logmz, invsq, v) in data]
        sign = 1 if l % 2 == 1 else -1
        norm = mp.mpf(N) ** (l + mp.mpf(1) / 2) * (2 * mp.pi) ** mp.mpf("1.5")
        return sign * contour._pairwise_sum(terms) / (mp.mpc(0, 1) * norm)


def _assert_within_bound(l, N, panels, precision):
    got = _arc_integral(l, N, panels, precision)
    hp = 3 * (precision + 32)
    want, bound = plain_arc_sum(l, N, panels, precision, hp)
    with mp.workprec(hp):
        assert abs(got - want) <= bound, (l, N, panels, precision)


# sha256 over _full_arc_integral(l, N, panels, prec)._mpc_ for panels in
# (1, 2, 4), prec in (64, 128, 256), l in (1, 2, 5) and N in FULL_ARC_N,
# recorded with the Li2 series of the node tables on fixed-point ints (the
# plain mpc loop's values on those tables); check prints its Im.
FULL_ARC_N = (1, 7, 20, 40, 64, 88, 150)
FULL_ARC_DIGEST = "14d514e81e2c6c4cd1891e0ad203ef67a7953478fdba4890422281e1d8ad59e9"


class TestArcKernel:
    """_arc_integral against the plain mpc sum at three times its working
    precision on the same node table, within its stated bound."""

    @pytest.mark.parametrize("prec", [64, 128, 256, 1024])
    @pytest.mark.parametrize("panels", [1, 2, 4])
    def test_within_the_stated_bound(self, panels, prec):
        for l in (1, 2, 5, 8):
            for N in (1, 7, 20, 40, 64, 88, 150):  # 64: a power of two
                _assert_within_bound(l, N, panels, prec)

    # N = 450 and 500 at the ladder's last count; l = N = 500 makes the
    # exponent's parts about 2^10 and takes the reductions' extra bits
    @pytest.mark.parametrize("l, N, panels", [(1, 450, 64), (2, 500, 64), (500, 500, 4)])
    def test_within_the_stated_bound_at_large_n(self, l, N, panels):
        _assert_within_bound(l, N, panels, PREC)

    # full=True: the full left arc, the plain mpc loop itself; the half arc's
    # cases are test_within_the_stated_bound now
    @pytest.mark.parametrize("full", [True])
    @pytest.mark.parametrize("prec", [64, 128, 256])
    @pytest.mark.parametrize("nodes", [32, 64, 128])
    def test_bit_identical_to_plain_mpc_loop(self, nodes, prec, full):
        panels = nodes // contour._PANEL
        for l in (1, 2, 5):
            for N in (1, 7, 20, 40, 64, 88, 150):  # 64: a power of two
                got = _full_arc_integral(l, N, panels, prec)
                assert got._mpc_ == plain_full_arc_integral(l, N, panels, prec)._mpc_, (l, N)

    # Rows (z, wdz, log(-z), invsq, v) as cached, found by one seeded search
    # (seeds 2647 and 4545): at l = N = 1 the exponent is v, whose exponential
    # has an imaginary part below 2^-100 of its real part, and wdz's parts are
    # 2^102 to 2^104 apart, so the plain sums of tr and ti times wdz take
    # mpf_add's far-operand path, the perturbed sum.
    FAR_ROWS = (
        (0, 0, 0, 0,
         41630725229673192045783471861, -96, -46993405894239058241485570451, 6,
         0, 0, 0, 0,
         -56264859419828270453631974145, -99, 62855403721439053463897917569, -99,
         41569705748255, -47, 8297548916707460052479081, -185),
        (0, 0, 0, 0,
         -74446255111756530990801953719, -96, -65417524637788806382663651659, 8,
         0, 0, 0, 0,
         44190199286616466626560282151, -98, -68547203071710897824994793771, -96,
         -15, -5, 13565012383550820835735651773, -229),
    )

    @pytest.mark.parametrize("full", [False, True])
    @pytest.mark.parametrize("row", FAR_ROWS)
    def test_a_far_exponential_reaches_the_perturbed_sum(self, monkeypatch, row, full):
        monkeypatch.setattr(contour, "_arc_nodes", lambda *args: (row,))
        if full:
            assert _full_arc_integral(1, 1, 1, 64)._mpc_ == plain_full_arc_integral(1, 1, 1, 64)._mpc_
        else:
            _assert_within_bound(1, 1, 1, 64)

    # A row with z = log(-z) = 0, invsq = wdz = 1 and v exact at F bits, so
    # the exponent at l = N = 1 is a = v, with |Re a| and |Im a| near 2^45:
    # dropping the reductions' extra bits (ln 2 or pi/2 at F bits, shifted)
    # moves the value by over 700 ulps at wp.  At the arc's own |a|, under
    # 2^11, the same drop moves it by under 2^-20 ulps, below the rounding.
    HUGE_EXPONENT_ROW = (0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 3 * 2**44 + 11, -1, -5 * 2**44 + 7, -1)

    @pytest.mark.parametrize("prec", [64, 128, 256, 1024])
    def test_the_reductions_keep_their_extra_bits(self, monkeypatch, prec):
        monkeypatch.setattr(contour, "_arc_nodes", lambda *args: (self.HUGE_EXPONENT_ROW,))
        _assert_within_bound(1, 1, 1, prec)

    def test_full_arc_is_the_pinned_bits(self):
        raw = [
            _full_arc_integral(l, N, panels, prec)._mpc_
            for panels in (1, 2, 4)
            for prec in (64, 128, 256)
            for l in (1, 2, 5)
            for N in FULL_ARC_N
        ]
        assert hashlib.sha256(repr(raw).encode()).hexdigest() == FULL_ARC_DIGEST


class TestArcNodeCache:
    def test_same_key_is_a_hit_on_the_same_object(self):
        first = contour._arc_nodes(1, 64, False)
        hits = contour._arc_nodes.cache_info().hits
        assert contour._arc_nodes(1, 64, False) is first
        assert contour._arc_nodes.cache_info().hits == hits + 1

    def test_cached_rows_hold_only_ints(self):
        # one copy of each node: mantissas and exponents, no mpc beside them
        contour._oracle_nodes.cache_clear()
        arc, oracle = contour._arc_nodes(1, 64, False), contour._oracle_nodes(4, oracle_spec(4))
        assert [len(arc), len(oracle)] == [32, oracle_spec(4).nodes + 1]
        assert {len(row) for row in arc} == {20} and {len(row) for row in oracle} == {8}
        assert {type(x) for row in arc + oracle for x in row} <= {int, MPZ}


def _no_nodes(*args):
    raise AssertionError("arc nodes computed for a rejected count")


def plain_legendre_p(x):
    """Reference for _legendre_p: the same recurrence on plain mpf objects."""
    n = contour._PANEL
    p0, p1 = mp.mpf(1), x
    for j in range(2, n + 1):
        p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
    return p1, n * (x * p1 - p0) / (x * x - 1)


class TestLegendreRule:
    @pytest.mark.parametrize("n, prec", [(32, prec) for prec in (64, 256, 512)])
    def test_bit_identical_to_plain_mpf_recurrence(self, monkeypatch, n, prec):
        contour._legendre_rule.cache_clear()
        got = contour._legendre_rule(prec)
        contour._legendre_rule.cache_clear()
        monkeypatch.setattr(contour, "_legendre_p", plain_legendre_p)
        try:
            want = contour._legendre_rule(prec)
        finally:
            contour._legendre_rule.cache_clear()  # drop the rule built on the reference
        assert len(got) == n
        assert [(x._mpf_, w._mpf_) for x, w in got] == [(x._mpf_, w._mpf_) for x, w in want]


class TestLegendreRuleOnTwoCpus(TestLegendreRule):
    """The same comparison with the Newton solves split on any host."""

    @pytest.fixture(autouse=True)
    def _split(self, two_cpus):
        pass


def _serial_map(fn, items):
    return [fn(x) for x in items]


def _digest(table):
    """sha256 over the raw mpmath tuples of a node table: of its mpc values,
    or rebuilt from a cached row's mantissas and exponents."""
    raw = [_raw_row(e) if isinstance(e[0], int) else tuple(v._mpc_ for v in e) for e in table]
    return hashlib.sha256(repr(raw).encode()).hexdigest()


# _digest of the half-arc tables at 256 bits, by panel count, recorded
# with mpmath 1.3.0 when every node's Li2 series summed on fixed-point ints
# (specfun._series_li2). A kernel that drifts together with its in-test
# reference still changes these.
ARC_NODE_DIGESTS = {
    1: "eb78a726dece9332a3d40b39744b56370fedd8595da12943af2008f873a25de1",
    2: "5da5975707a25c18734a7d7962d6c547527ec95be3c5d9cd366970b7f71a4f9f",
    4: "078ec62711770f0b96c44322861e0b3610b71ccc58ea1228434b14ca7f550afe",
}


class TestArcNodeDigest:
    @pytest.mark.parametrize("panels", sorted(ARC_NODE_DIGESTS))
    def test_pinned_half_arc_tables(self, panels):
        contour._arc_nodes.cache_clear()
        assert _digest(contour._arc_nodes(panels, 256, False)) == ARC_NODE_DIGESTS[panels]


def plain_oracle_nodes(N, spec):
    """Reference for _oracle_nodes: the product loop on plain mpc objects."""
    M = spec.nodes
    with mp.workprec(spec.precision + 32):
        r = mp.mpf(spec.radius)
        out = []
        for k in range(2 * M):
            x = r * mp.expjpi(mp.mpf(k) / M)
            y = 1 + x
            yj = y
            prod = mp.mpc(1)
            for _ in range(N):
                prod *= 1 - yj
                yj *= y
            out.append((x, prod))
        return out


class TestOracleProducts:
    @pytest.mark.parametrize("prec", [None, 512])
    @pytest.mark.parametrize("N", [1, 2, 12, 20])
    def test_bit_identical_to_plain_mpc_loop(self, N, prec):
        # the nodes k = 0..M: the rest are their conjugates
        spec = oracle_spec(N)
        if prec is not None:
            spec = dataclasses.replace(spec, precision=prec)
        contour._oracle_nodes.cache_clear()
        want = plain_oracle_nodes(N, spec)[: spec.nodes + 1]
        assert _digest(contour._oracle_nodes(N, spec)) == _digest(want)

    def test_m_plus_1_node_products_per_n_and_spec(self, monkeypatch):
        counted = []

        def counting_map(fn, items):
            items = list(items)
            counted.append(len(items))
            return [fn(x) for x in items]

        monkeypatch.setattr(contour, "_split_map", counting_map)
        contour._oracle_nodes.cache_clear()
        for N in (12, 18):
            for l in range(1, 5):
                cauchy_oracle(l, N, oracle_spec(N))
        contour._oracle_nodes.cache_clear()
        assert counted == [oracle_spec(12).nodes + 1, oracle_spec(18).nodes + 1]


# check's two specs (M = 64 and 224, even) and oracle_spec at N = 12, 18, 24
# (M = 55, 59, 63, odd), with the l they are called with
FOLD_CASES = [
    (1, QuadratureSpec(nodes=64, precision=128, radius=0.5), (1,)),
    (2, QuadratureSpec(nodes=64, precision=128, radius=0.5), (1, 2)),
    (20, QuadratureSpec(nodes=224, precision=512, radius=0.15), (1, 4, 10)),
    (12, oracle_spec(12), (1, 5, 10)),
    (18, oracle_spec(18), (1, 5, 10)),
    (24, oracle_spec(24), (1, 5, 10)),
]


class TestFoldedRule:
    """The rules on the conjugate half of the nodes against the real parts
    of the same rules summed over all 2M nodes on plain mpc.  A rule is a
    pairwise sum of at most 2M terms v_k at wp bits divided by their
    count, within (ceil(log2 2M) + 2) u max|v_k| of its exact value,
    u = 2^-wp; the two sides of a test may differ by twice that.  The
    plain loop's v_{2M-k} is the conjugate of v_k only to within its own
    rounding, which the bound also absorbs on these cases."""

    @pytest.mark.parametrize("N, spec, ls", FOLD_CASES)
    def test_within_the_pairwise_bound_of_the_full_sum(self, N, spec, ls):
        M, wp = spec.nodes, spec.precision + 32
        nodes = plain_oracle_nodes(N, spec)
        for l in ls:
            got = cauchy_oracle(l, N, spec)
            with mp.workprec(wp):
                vals = [x**l / prod for x, prod in nodes]
                bound = (2 * math.ceil(math.log2(2 * M)) + 4) * mp.mpf(2) ** -wp * max(map(abs, vals))
                fine = contour._pairwise_sum(vals) / (2 * M)
                coarse = contour._pairwise_sum(vals[0::2]) / M
                assert abs(contour._folded_rule(vals[: M + 1], 1) - fine.real) <= bound, (N, l)
                assert abs(contour._folded_rule(vals[: M + 1], 2) - coarse.real) <= bound, (N, l)
                assert abs(got.value - fine.real) <= bound, (N, l)
                assert abs(got.node_doubling_delta - abs(fine.real - coarse.real)) <= 2 * bound, (N, l)
                assert isinstance(got.value, mp.mpf)


# sha256 over cauchy_oracle(...).value._mpf_ at perfbench's oracle grid
# (N = 12, 18, 24 with oracle_spec(N), l = 1..10) and at check's three calls,
# recorded when the rules first summed the conjugate half of the nodes
ORACLE_VALUE_DIGEST = "33f7aa9ac76fc2c04d1ab89027c3de82d5866c2ff52f0c938aa57f3da4b37637"


def test_oracle_values_are_the_pinned_bits():
    raw = [cauchy_oracle(l, N, oracle_spec(N)).value._mpf_ for N in (12, 18, 24) for l in range(1, 11)]
    small = QuadratureSpec(nodes=64, precision=128, radius=0.5)
    raw += [cauchy_oracle(1, 1, small).value._mpf_, cauchy_oracle(2, 2, small).value._mpf_]
    raw.append(cauchy_oracle(1, 20, QuadratureSpec(nodes=224, precision=512, radius=0.15)).value._mpf_)
    assert hashlib.sha256(repr(raw).encode()).hexdigest() == ORACLE_VALUE_DIGEST


class TestSplitMap:
    """_split_map forks one child for the odd-indexed items; the tables it
    builds are the bits of the serial list."""

    def tables(self):
        contour._legendre_rule.cache_clear()
        contour._arc_nodes.cache_clear()
        contour._oracle_nodes.cache_clear()
        rule = [(x._mpf_, w._mpf_) for x, w in contour._legendre_rule(256)]
        arcs = ((2, False), (4, False), (2, True))
        tables = [contour._arc_nodes(panels, 256, full) for panels, full in arcs]
        for spec in (oracle_spec(20), dataclasses.replace(oracle_spec(20), precision=512)):
            contour._oracle_nodes.cache_clear()
            tables.append(contour._oracle_nodes(20, spec))
        contour._legendre_rule.cache_clear()
        contour._arc_nodes.cache_clear()
        contour._oracle_nodes.cache_clear()
        return [rule] + [_digest(t) for t in tables]

    def test_tables_are_the_serial_bits(self, monkeypatch, two_cpus):
        split = self.tables()
        monkeypatch.setattr(contour, "_split_map", _serial_map)
        assert split == self.tables()

    def test_results_in_item_order(self, two_cpus):
        assert specfun._split_map(lambda x: x * x, range(7)) == [x * x for x in range(7)]

    @pytest.mark.parametrize("bad", [2, 3])  # computed here, computed in the child
    def test_an_error_rises_here_and_no_child_is_left(self, two_cpus, bad):
        def fn(x):
            if x == bad:
                raise ValueError(f"bad item {x}")
            return x

        with pytest.raises(ValueError, match=f"bad item {bad}"):
            specfun._split_map(fn, range(6))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_one_usable_cpu_does_not_fork(self, monkeypatch):
        def no_fork():
            raise AssertionError("forked with one usable CPU")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(os, "fork", no_fork)
        assert specfun._split_map(lambda x: (x, os.getpid()), range(4)) == [
            (x, os.getpid()) for x in range(4)
        ]

    def test_a_split_child_does_not_fork_again(self, two_cpus):
        def pids(_):
            return os.getpid(), specfun._split_map(lambda _: os.getpid(), range(2))

        (_, _), (child, nested) = specfun._split_map(pids, range(2))
        assert child != os.getpid()
        assert nested == [child, child]

    def test_the_parents_share_does_not_fork(self, two_cpus):
        def pids(_):
            return os.getpid(), specfun._split_map(lambda _: os.getpid(), range(2))

        (parent, nested), _ = specfun._split_map(pids, range(2))
        assert parent == os.getpid()
        assert nested == [parent, parent]

    @pytest.mark.parametrize("bad", [0, 1])  # raised here, raised in the child
    def test_a_split_forks_again_after_an_error(self, monkeypatch, two_cpus, bad):
        def fn(x):
            if x == bad:
                raise ValueError(f"bad item {x}")
            return x

        with pytest.raises(ValueError, match=f"bad item {bad}"):
            specfun._split_map(fn, range(2))
        fork, forks = os.fork, []

        def counting_fork():
            forks.append(os.getpid())
            return fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        assert specfun._split_map(lambda x: (x, os.getpid()), range(2))[1][1] != os.getpid()
        assert forks == [os.getpid()]


class TestNodeLadder:
    """integral_approx_C doubles 1 -> 2 -> ... -> 64 panels of 32 nodes
    (32 -> 64 -> ... -> 2048 nodes) for N <= 80 and l <= (N + 1)/2,
    and 2 -> 4 -> ... -> 64 panels elsewhere, until two successive counts
    agree to 1e-6 relative."""

    def test_converged_value_past_the_first_doubling(self):
        # 64 and 128 nodes differ by 5e12 relative at N = 225
        got = integral_approx_C(1, 225, PREC)
        ref = _arc_integral(1, 225, 32, PREC)
        with mp.workprec(PREC):
            assert abs(got - ref) < mp.mpf("1e-12") * abs(ref)

    @staticmethod
    def panel_counts(monkeypatch, l, N):
        seen = []
        arc_nodes = contour._arc_nodes

        def spy(panels, precision, full):
            seen.append(panels)
            return arc_nodes(panels, precision, full)

        monkeypatch.setattr(contour, "_arc_nodes", spy)
        integral_approx_C(l, N, PREC)
        return seen

    @pytest.mark.parametrize(
        "N, counts", [(100, [2, 4]), (175, [2, 4, 8]), (40, [1, 2]), (80, [1, 2])]
    )
    def test_stops_at_the_first_pair_that_agrees(self, monkeypatch, N, counts):
        assert self.panel_counts(monkeypatch, 1, N) == counts

    @pytest.mark.parametrize(
        "l, N, counts",
        [
            (40, 79, [1, 2]),  # l = (N + 1)/2
            (40, 80, [1, 2]),
            (41, 80, [2, 4]),
            # 32 and 64 nodes differ by 4e2 relative, below the floor
            (64, 80, [2, 4]),
        ],
    )
    def test_one_panel_start_for_l_up_to_half_of_n_plus_1(self, monkeypatch, l, N, counts):
        assert self.panel_counts(monkeypatch, l, N) == counts

    def test_one_panel_start_is_within_1e_20_of_128_nodes(self):
        # where the ladder starts at 32 nodes, its 64-node values differ
        # from the 128-node ones by at most 7.3e-24 relative
        with mp.workprec(PREC):
            for N in range(1, 81):
                for l in range(1, 9):
                    got = integral_approx_C(l, N, PREC)
                    ref = _arc_integral(l, N, 4, PREC)
                    assert abs(got - ref) <= mp.mpf("1e-20") * abs(ref), (l, N)

    @pytest.mark.parametrize("l, N", [(1, 81), (1, 88), (8, 88), (41, 80), (80, 80)])
    def test_a_two_panel_start_returns_the_128_node_value(self, l, N):
        assert integral_approx_C(l, N, PREC)._mpf_ == _arc_integral(l, N, 4, PREC)._mpf_

    def test_converges_at_450_within_a_tenth_of_a_percent(self):
        # 512 and 1024 nodes differ by 4.75 relative at N = 450; 1024 and 2048
        # agree, at 5.5e-4 from exact
        got = integral_approx_C(1, 450, PREC)
        exact = _as_mpf(exact_coefficients(450).coeff(1))
        with mp.workprec(PREC):
            assert abs(got - exact) < mp.mpf("1e-3") * abs(exact)
        assert mp.nstr(got, 17) == "528653419.8923252"

    def test_64_bits_at_200_give_the_256_bit_value(self):
        # 96 working bits pass the doubling test on 32.29949..., 5.1e-5 off
        # the converged 32.30115...; the rule asks for 144
        got = integral_approx_C(1, 200, 64)
        ref = integral_approx_C(1, 200, PREC)
        with mp.workprec(PREC):
            assert abs(got - ref) < mp.mpf("1e-12") * abs(ref)

    def test_128_bits_at_450_work_at_the_256_bit_precision(self):
        # 64 + ceil(0.4 * 450) = 244 working bits: 128 + 32 is raised by 128
        assert integral_approx_C(1, 450, 128)._mpf_ == integral_approx_C(1, 450, PREC)._mpf_

    def test_raises_when_the_last_doubling_disagrees(self, monkeypatch):
        # 64 and 128 nodes differ by 486 relative at N = 175; 128 and 256 agree
        monkeypatch.setattr(contour, "_MAX_PANELS", 4)
        with pytest.raises(ArithmeticError, match="not converged at 128 nodes"):
            integral_approx_C(1, 175, PREC)


class TestIntegrals:
    def test_largest_n_runs_here_first_and_the_list_is_serial(self, monkeypatch, two_cpus):
        Ns = [20, 27, 24, 21]
        here = []
        approx = contour.integral_approx_C

        def spy(l, N, precision):
            here.append(N)  # a forked child appends to its own copy
            return approx(l, N, precision)

        monkeypatch.setattr(contour, "integral_approx_C", spy)
        got = contour._integrals(1, Ns, 64)
        assert here[0] == max(Ns)
        assert [v._mpf_ for v in got] == [approx(1, N, 64)._mpf_ for N in Ns]

    @staticmethod
    def tables_at_fork(monkeypatch, Ns, rest, precision):
        """The (panels, precision) of the arc tables this process built
        before _integrals forked for `rest`, and those it built in all;
        the values must be the serial loop's."""
        built, at_fork = [], []
        contour._arc_nodes.cache_clear()
        arc_nodes, split_map = contour._arc_nodes, contour._split_map

        def nodes_spy(panels, precision, full):
            misses = arc_nodes.cache_info().misses
            table = arc_nodes(panels, precision, full)
            if arc_nodes.cache_info().misses > misses:
                built.append((panels, precision))  # a forked child appends to its own copy
            return table

        def split_spy(fn, items):
            items = list(items)
            if items == rest:
                at_fork.append(list(built))
            return split_map(fn, items)

        monkeypatch.setattr(contour, "_arc_nodes", nodes_spy)
        monkeypatch.setattr(contour, "_split_map", split_spy)
        got = contour._integrals(1, Ns, precision)
        assert [v._mpf_ for v in got] == [integral_approx_C(1, N, precision)._mpf_ for N in Ns]
        return at_fork, built

    def test_a_range_across_both_starts_builds_their_tables_before_the_fork(
        self, monkeypatch, two_cpus
    ):
        # at 64 bits N = 79, 80 start at 1 panel with 96 working bits and
        # N = 81, 82 at 2 panels with 160
        at_fork, built = self.tables_at_fork(monkeypatch, [79, 82, 80, 81], [79, 81], 64)
        assert at_fork == [[(2, 128), (4, 128), (1, 64), (2, 64)]] == [built]

    def test_each_working_precision_builds_its_tables_before_the_fork(
        self, monkeypatch, two_cpus
    ):
        # a stand-in precision rule that raises 64 bits from N = 25 on
        def raised(N, precision):
            return precision + 64 * (N >= 25)

        monkeypatch.setattr(contour, "_arc_precision", raised)
        at_fork, built = self.tables_at_fork(monkeypatch, [20, 27, 24, 26], [20, 26], 64)
        assert at_fork == [[(1, 128), (2, 128), (1, 64), (2, 64)]] == [built]


class TestMonotoneExponent:
    def test_leg_toward_the_saddle_is_monotone(self, sd):
        path = [5j + (complex(sd.z0) - 5j) * t / 199 for t in range(200)]
        assert check_monotone_exponent(path) is True

    def test_64_bit_margins_on_checks_leg(self, sd):
        # check's leg: each step between samples dwarfs their error bounds
        path = [5j + (complex(sd.z0) - 5j) * t / 199 for t in range(200)]
        samples = contour._growth_samples(path)
        with mp.workprec(128):
            step = min(b - a for a, b in zip(samples, samples[1:]))
            bound = max(specfun._relative_bound(s, 64) for s in samples)
        assert step > 4 * bound

    def test_constant_path_is_vacuously_monotone(self):
        assert check_monotone_exponent([-1 + 2j] * 5) is True

    def test_reversed_path_fails(self, sd):
        path = [5j + (complex(sd.z0) - 5j) * t / 49 for t in range(50)]
        assert check_monotone_exponent(path[::-1]) is False

    def test_rejects_right_half_plane(self):
        with pytest.raises(ValueError):
            check_monotone_exponent([0.1 + 1j])


class TestLowerBound:
    GRID = [(u, x) for u in (0.01, 0.05, 0.1) for x in (0.0, -1e-3, -1e-2)]

    def test_holds_on_sample_grid(self):
        assert check_lower_bound_inequality(self.GRID)

    def test_holds_at_taylor_limit_point(self):
        assert check_lower_bound_inequality([(1e-6, 0.0)])

    def test_detector_rejects_inflated_rhs(self):
        assert not check_lower_bound_inequality(self.GRID, rhs_scale=2.0)

    def test_fails_at_deep_corner_of_stated_rectangle(self):
        # The inequality is false near (u, x) = (1/10, -1); the checker
        # reports that honestly rather than papering over it.
        assert not check_lower_bound_inequality([(0.1, -1.0)])

    def test_rejects_out_of_range_points(self):
        with pytest.raises(ValueError):
            check_lower_bound_inequality([(0.2, 0.0)])
        with pytest.raises(ValueError):
            check_lower_bound_inequality([(0.05, -1.5)])
        with pytest.raises(ValueError):
            check_lower_bound_inequality([(0.0, 0.0)])


class TestConstantC:
    def test_five_decimals(self):
        c = constant_c(PREC)
        assert abs(c - mp.mpf("0.11262")) < mp.mpf("0.5e-5")

    def test_stable_across_precision(self):
        with mp.workprec(300):
            assert abs(constant_c(128) - constant_c(256)) < mp.mpf(2) ** (-100)

    def test_quadrature_consistency(self):
        assert constant_c_euler_check() < mp.mpf("1e-3")
