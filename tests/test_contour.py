"""Arc integral, Cauchy oracle, and the proof-region numeric witnesses."""

import dataclasses
import hashlib
import math
import os

import mpmath as mp
import pytest

import radpfd.contour as contour
import radpfd.specfun as specfun
from radpfd.contour import (
    QuadratureSpec,
    _arc_integral,
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
        return got.value._mpc_, got.node_doubling_delta._mpf_

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
        v64 = _arc_integral(1, 20, 2, PREC, False)
        v128 = _arc_integral(1, 20, 4, PREC, False)
        with mp.workprec(PREC):
            assert abs(v128 - v64) < mp.mpf("1e-10") * abs(v128)

    def test_doubling_delta_decays_spectrally(self):
        v32 = _arc_integral(1, 20, 1, PREC, False)
        v64 = _arc_integral(1, 20, 2, PREC, False)
        v128 = _arc_integral(1, 20, 4, PREC, False)
        with mp.workprec(PREC):
            assert abs(v64 - v32) > 10 * abs(v128 - v64)

    def test_error_against_exact_is_node_invariant(self, small_vectors):
        # The 3.4% gap at N = 20 is the approximation's truncation error:
        # doubling the nodes leaves it unchanged to 6 digits.
        exact = _as_mpf(small_vectors[20].coeff(1))
        with mp.workprec(PREC):
            rel = [
                abs(_arc_integral(1, 20, panels, PREC, False) - exact) / abs(exact)
                for panels in (4, 8)  # 128 and 256 nodes
            ]
            assert mp.nstr(rel[0], 6) == mp.nstr(rel[1], 6) == "0.0342932"

    def test_full_arc_is_real_before_cast(self):
        full = _arc_integral(1, 20, 2, PREC, True)
        with mp.workprec(PREC):
            assert abs(full.imag) < mp.mpf(2) ** (-(PREC // 2)) * max(1, abs(full))

    def test_full_arc_matches_half_arc(self):
        full = _arc_integral(1, 20, 4, PREC, True)
        half = _arc_integral(1, 20, 2, PREC, False)
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
        v96 = _arc_integral(1, 20, 3, PREC, False)
        v64 = _arc_integral(1, 20, 2, PREC, False)
        v128 = _arc_integral(1, 20, 4, PREC, False)
        assert v96 not in (v64, v128)
        with mp.workprec(PREC):
            assert abs(v96 - v128) < mp.mpf("1e-10") * abs(v128)


def plain_arc_integral(l, N, panels, precision, full):
    """Reference for _arc_integral: the sum on plain mpc objects."""
    data = contour._arc_nodes(panels, precision, full)
    with mp.workprec(precision + 32):
        half = l - mp.mpf(1) / 2
        terms = [
            mp.exp(half * logmz + z / N + N * v) * invsq * wdz
            for (z, wdz, logmz, invsq, v) in data
        ]
        A = contour._pairwise_sum(terms)
        sign = 1 if l % 2 == 1 else -1
        norm = mp.mpf(N) ** (l + mp.mpf(1) / 2) * (2 * mp.pi) ** mp.mpf("1.5")
        if full:
            return sign * A / (mp.mpc(0, 1) * norm)
        return mp.mpf(sign * 2 * A.imag / norm)


class TestArcKernel:
    @pytest.mark.parametrize("full", [False, True])
    @pytest.mark.parametrize("prec", [64, 128, 256])
    @pytest.mark.parametrize("nodes", [32, 64, 128])
    def test_bit_identical_to_plain_mpc_loop(self, nodes, prec, full):
        raw = "_mpc_" if full else "_mpf_"
        panels = nodes // contour._PANEL
        for l in (1, 2, 5):
            for N in (1, 7, 20, 40, 88, 150):
                got = _arc_integral(l, N, panels, prec, full)
                want = plain_arc_integral(l, N, panels, prec, full)
                assert getattr(got, raw) == getattr(want, raw), (l, N)


class TestArcNodeCache:
    def test_same_key_is_a_hit_on_the_same_object(self):
        first = contour._arc_nodes(1, 64, False)
        hits = contour._arc_nodes.cache_info().hits
        assert contour._arc_nodes(1, 64, False) is first
        assert contour._arc_nodes.cache_info().hits == hits + 1


def _no_nodes(*args):
    raise AssertionError("arc nodes computed for a rejected count")


def plain_legendre_p(n, x):
    """Reference for _legendre_p: the same recurrence on plain mpf objects."""
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


def _serial_map(fn, items):
    return [fn(x) for x in items]


def _digest(table):
    """sha256 over the raw mpmath tuples of a node table."""
    raw = [tuple(v._mpc_ for v in entry) for entry in table]
    return hashlib.sha256(repr(raw).encode()).hexdigest()


# _digest of the half-arc tables at 256 bits, by panel count, recorded
# with mpmath 1.3.0 when every node's Li2 series made its steps through
# mpmath's libmpc calls. A kernel that drifts together with its in-test
# reference still changes these.
ARC_NODE_DIGESTS = {
    2: "8b78ada134fb987872c4f3a6d9a23b5eef0354280301494f29099eabf510f133",
    4: "56386357f48a53235d19fa09a21559730aec96fd8af06b342e375a978d564fbb",
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
        spec = oracle_spec(N)
        if prec is not None:
            spec = dataclasses.replace(spec, precision=prec)
        contour._oracle_nodes.cache_clear()
        assert _digest(contour._oracle_nodes(N, spec)) == _digest(plain_oracle_nodes(N, spec))


class TestSplitMap:
    """_split_map forks one child for the odd-indexed items; the tables it
    builds are the bits of the serial list."""

    def tables(self):
        contour._arc_nodes.cache_clear()
        contour._oracle_nodes.cache_clear()
        arcs = ((2, False), (4, False), (2, True))
        tables = [contour._arc_nodes(panels, 256, full) for panels, full in arcs]
        for spec in (oracle_spec(20), dataclasses.replace(oracle_spec(20), precision=512)):
            contour._oracle_nodes.cache_clear()
            tables.append(contour._oracle_nodes(20, spec))
        contour._arc_nodes.cache_clear()
        contour._oracle_nodes.cache_clear()
        return [_digest(t) for t in tables]

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


class TestNodeLadder:
    """integral_approx_C doubles 2 -> 4 -> ... -> 64 panels of 32 nodes
    (64 -> 128 -> ... -> 2048 nodes) until two successive counts agree to
    1e-6 relative."""

    def test_converged_value_past_the_first_doubling(self):
        # 64 and 128 nodes differ by 5e12 relative at N = 225
        got = integral_approx_C(1, 225, PREC)
        ref = _arc_integral(1, 225, 32, PREC, False)
        with mp.workprec(PREC):
            assert abs(got - ref) < mp.mpf("1e-12") * abs(ref)

    @pytest.mark.parametrize("N, counts", [(100, [2, 4]), (175, [2, 4, 8])])
    def test_stops_at_the_first_pair_that_agrees(self, monkeypatch, N, counts):
        seen = []
        arc_nodes = contour._arc_nodes

        def spy(panels, precision, full):
            seen.append(panels)
            return arc_nodes(panels, precision, full)

        monkeypatch.setattr(contour, "_arc_nodes", spy)
        integral_approx_C(1, N, PREC)
        assert seen == counts

    def test_converges_at_450_within_a_tenth_of_a_percent(self):
        # 512 and 1024 nodes differ by 4.75 relative at N = 450; 1024 and 2048
        # agree, at 5.5e-4 from exact
        got = integral_approx_C(1, 450, PREC)
        exact = _as_mpf(exact_coefficients(450).coeff(1))
        with mp.workprec(PREC):
            assert abs(got - exact) < mp.mpf("1e-3") * abs(exact)

    def test_raises_when_the_last_doubling_disagrees(self, monkeypatch):
        # 64 and 128 nodes differ by 486 relative at N = 175; 128 and 256 agree
        monkeypatch.setattr(contour, "_MAX_PANELS", 4)
        with pytest.raises(ArithmeticError, match="not converged at 128 nodes"):
            integral_approx_C(1, 175, PREC)


class TestMonotoneExponent:
    def test_leg_toward_the_saddle_is_monotone(self, sd):
        path = [5j + (complex(sd.z0) - 5j) * t / 199 for t in range(200)]
        assert check_monotone_exponent(path) is True

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
