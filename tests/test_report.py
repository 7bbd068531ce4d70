"""Comparison rows, serialization, and peak analysis."""

import json
import os

import mpmath as mp
import pytest
from hypothesis import given, strategies as st

from radpfd import cli, contour, exact, report
from radpfd.contour import integral_approx_C
from radpfd.exact import decimal_str
from radpfd.report import (
    CSV_HEADER,
    DisproofReport,
    RunConfig,
    analyze_divergence,
    build_rows,
    emit_csv,
    emit_json,
    figure_configs,
    find_peaks,
    magnitude_series,
)
from radpfd.saddle import asymptotic_C

PREC = 256


@pytest.fixture
def fractions_built(monkeypatch):
    """The arguments of every Fraction that radpfd.exact builds."""
    built = []
    real = exact.Fraction

    def counting(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(exact, "Fraction", counting)
    return built


class TestRunConfig:
    def test_defaults_are_valid(self):
        cfg = RunConfig()
        assert cfg.modes == frozenset({"exact", "asymptotic"})

    def test_rejects_empty_range(self):
        with pytest.raises(ValueError, match="empty range"):
            RunConfig(n_from=5, n_to=4)
        for n_from in (0, -2):
            with pytest.raises(ValueError, match="n_from must be a positive"):
                RunConfig(n_from=n_from, n_to=2)

    def test_rejects_low_precision(self):
        with pytest.raises(ValueError, match="64 bits"):
            RunConfig(precision_bits=32)

    def test_rejects_bad_l(self):
        with pytest.raises(ValueError, match="positive"):
            RunConfig(l=0)

    def test_rejects_bad_modes(self):
        with pytest.raises(ValueError, match="nonempty"):
            RunConfig(modes=frozenset())
        with pytest.raises(ValueError, match="unknown mode"):
            RunConfig(modes=frozenset({"exact", "psychic"}))


class TestBuildRows:
    def test_row_per_n(self):
        cfg = RunConfig(precision_bits=PREC, n_from=3, n_to=9, l=1)
        rows = build_rows(cfg)
        assert [r.N for r in rows] == list(range(3, 10))
        assert all(r.l == 1 for r in rows)

    def test_cells_match_direct_computation(self, sd, small_vectors):
        cfg = RunConfig(precision_bits=PREC, n_from=5, n_to=5, l=2)
        (row,) = build_rows(cfg)
        q = small_vectors[5].coeff(2)
        assert row.exact == q
        assert emit_csv([row]).split("\n")[1].split(",")[3] == decimal_str(q)
        asym = asymptotic_C(2, 5, sd)
        assert row.asymptotic == asym
        with mp.workprec(PREC + 32):
            exact_f = mp.mpf(q.numerator) / q.denominator
            assert abs(row.abs_err_asym - abs(exact_f - asym)) == 0
            assert row.rel_err_asym == row.abs_err_asym / abs(exact_f)

    def test_l_beyond_n_leaves_exact_cells_empty(self):
        cfg = RunConfig(precision_bits=PREC, n_from=1, n_to=4, l=3)
        rows = build_rows(cfg)
        for row in rows:
            if row.N < 3:
                assert row.exact is None
                assert row.abs_err_asym is None
                assert row.asymptotic is None
                assert row.integral is None
            else:
                assert row.exact is not None

    def test_exact_sweep_starts_at_l(self, monkeypatch):
        calls = []
        real = report.coefficient_range

        def spy(n_from, n_to):
            calls.append((n_from, n_to))
            return real(n_from, n_to)

        monkeypatch.setattr(report, "coefficient_range", spy)
        report._exact_window.cache_clear()  # a window kept from another test is not swept
        rows = build_rows(RunConfig(PREC, 1, 100, 101, frozenset({"exact"})))
        assert calls == []
        assert len(rows) == 100
        assert all(r.exact is None for r in rows)
        rows = build_rows(RunConfig(PREC, 1, 4, 3, frozenset({"exact"})))
        assert calls == [(3, 4)]
        assert [r.exact is not None for r in rows] == [False, False, True, True]

    def test_exact_alone_converts_no_exact_value(self, monkeypatch):
        # only the asymptotic error cells read the exact value in mpf
        calls = []
        real = report._to_mpf

        def spy(q, precision):
            calls.append(q)
            return real(q, precision)

        monkeypatch.setattr(report, "_to_mpf", spy)
        rows = build_rows(RunConfig(PREC, 1, 10, 1, frozenset({"exact"})))
        assert calls == []
        assert all(r.exact is not None and r.abs_err_asym is None for r in rows)

    def test_integral_mode(self, small_vectors):
        cfg = RunConfig(
            precision_bits=PREC,
            n_from=12,
            n_to=12,
            l=1,
            modes=frozenset({"exact", "integral"}),
        )
        (row,) = build_rows(cfg)
        assert row.asymptotic is None
        q = small_vectors[12].coeff(1)
        with mp.workprec(PREC):
            exact_f = mp.mpf(q.numerator) / q.denominator
            assert abs(row.integral - exact_f) < abs(exact_f) * mp.mpf("0.35")

    def test_configs_sharing_a_window_sweep_it_once(self, monkeypatch, small_vectors):
        # fig1 and fig2 read the same exact window at l = 1 and l = 2
        calls = []
        real = report.coefficient_range

        def spy(n_from, n_to):
            calls.append((n_from, n_to))
            return real(n_from, n_to)

        monkeypatch.setattr(report, "coefficient_range", spy)
        report._exact_window.cache_clear()
        one, two = (build_rows(RunConfig(PREC, 5, 9, l, frozenset({"exact"}))) for l in (1, 2))
        assert calls == [(5, 9)]
        assert [r.exact for r in one] == [small_vectors[N].coeff(1) for N in range(5, 10)]
        assert [r.exact for r in two] == [small_vectors[N].coeff(2) for N in range(5, 10)]

    def test_exact_rows_build_one_fraction_each(self, fractions_built):
        # the window keeps integer numerators; a row builds only the value it reads
        report._exact_window.cache_clear()
        rows = build_rows(RunConfig(PREC, 1, 40, 1, frozenset({"exact"})))
        report._exact_window.cache_clear()
        assert len(rows) == 40
        assert len(fractions_built) <= len(rows)


def _serial_map(fn, items):
    return [fn(x) for x in items]


class TestIntegralSweep:
    """build_rows takes the integral column from contour._integrals, which
    runs the first N here and splits the others across the CPUs."""

    CFG = RunConfig(PREC, 1, 8, 2, frozenset({"exact", "integral"}))

    def cells(self):
        return [None if r.integral is None else r.integral._mpf_ for r in build_rows(self.CFG)]

    def want(self):
        return [None] + [integral_approx_C(2, N, PREC)._mpf_ for N in range(2, 9)]

    def test_serial_cells_are_the_per_n_values(self, monkeypatch):
        monkeypatch.setattr(contour, "_split_map", _serial_map)
        assert self.cells() == self.want()

    def test_split_cells_are_the_per_n_values(self, two_cpus):
        assert self.cells() == self.want()

    def test_one_usable_cpu_does_not_fork(self, monkeypatch):
        def no_fork():
            raise AssertionError("forked with one usable CPU")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(os, "fork", no_fork)
        assert self.cells() == self.want()

    # the split items are N = 3..8: N = 5 is the even-indexed item 2,
    # computed here, and N = 6 the odd-indexed item 3, computed in the child
    @pytest.mark.parametrize("bad", [5, 6])
    def test_a_ladder_error_rises_and_no_child_is_left(self, monkeypatch, two_cpus, capsys, bad):
        def ladder(l, N, precision):
            if N == bad:
                raise ArithmeticError(f"arc quadrature not converged at N = {N}")
            return mp.mpf(N)

        monkeypatch.setattr(contour, "integral_approx_C", ladder)
        with pytest.raises(ArithmeticError, match=f"at N = {bad}"):
            build_rows(self.CFG)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        argv = ["compare", "--from", "1", "--to", "8", "--l", "2", "--modes", "integral"]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"at N = {bad}" in captured.err
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestSerialization:
    def _rows(self):
        cfg = RunConfig(precision_bits=PREC, n_from=1, n_to=6, l=2)
        return build_rows(cfg)

    def test_csv_header_and_shape(self):
        text = emit_csv(self._rows())
        lines = text.strip("\n").split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 7
        assert all(line.count(",") == 7 for line in lines)

    def test_json_is_deterministic(self):
        a = emit_json(self._rows())
        b = emit_json(self._rows())
        assert a == b
        payload = json.loads(a)
        assert len(payload) == 6
        assert payload[0]["N"] == 1
        assert payload[4]["exact_rational"].count("/") == 1

    def test_json_and_csv_agree_on_cells(self):
        rows = self._rows()
        payload = json.loads(emit_json(rows))
        csv_lines = emit_csv(rows).strip("\n").split("\n")[1:]
        for obj, line in zip(payload, csv_lines):
            assert line.split(",")[4] == obj["asymptotic"]


class TestFindPeaks:
    def test_single_peak(self):
        series = [(0, 1.0), (1, 3.0), (2, 2.0)]
        assert find_peaks(series) == [(1, 3.0)]

    def test_endpoints_never_qualify(self):
        assert find_peaks([(0, 9.0), (1, 1.0), (2, 8.0)]) == []

    def test_plateau_credits_leftmost_point(self):
        series = [(0, 1.0), (1, 5.0), (2, 5.0), (3, 1.0)]
        assert find_peaks(series) == [(1, 5.0)]

    def test_monotone_series_has_no_peaks(self):
        assert find_peaks([(n, float(n)) for n in range(6)]) == []

    @given(st.lists(st.integers(min_value=0, max_value=12), min_size=3, max_size=40))
    def test_every_reported_peak_satisfies_the_definition(self, vals):
        series = [(i, v) for i, v in enumerate(vals)]
        peaks = find_peaks(series)
        positions = [n for n, _ in peaks]
        assert 0 not in positions and len(series) - 1 not in positions
        for n, v in peaks:
            assert v > series[n - 1][1]
            assert v >= series[n + 1][1]


def _spiky(scale_per_step, n_to=45, period=10):
    out = []
    for n in range(n_to + 1):
        base = scale_per_step**n
        out.append((n, base * (2.0 if n % period == 5 else 1.0)))
    return out


class TestAnalyzeDivergence:
    def test_growing_peaks_diverge(self):
        report = analyze_divergence(_spiky(1.1), b=1.05, p=10)
        assert isinstance(report, DisproofReport)
        assert report.verdict == "diverges"
        assert report.spacings == (10, 10, 10)
        assert len(report.peaks) == 4
        assert report.growth > report.threshold
        assert all(abs(r - mp.mpf("1.1") ** 10) < 1e-9 for r in report.ratios)

    def test_constant_series_has_no_peaks(self):
        series = [(n, 1.0) for n in range(45)]
        report = analyze_divergence(series, b=1.05, p=10)
        assert report.verdict == "no divergence detected"
        assert report.peaks == ()
        assert report.growth is None and report.threshold is None

    def test_decaying_peaks_do_not_diverge(self):
        report = analyze_divergence(_spiky(0.9), b=1.05, p=10)
        assert report.verdict == "no divergence detected"
        assert report.growth is not None and report.growth < 1

    def test_subthreshold_growth_does_not_diverge(self):
        # peaks grow, but slower than b^(span/2)
        report = analyze_divergence(_spiky(1.01), b=1.05, p=10)
        assert report.growth > 1
        assert report.verdict == "no divergence detected"

    def test_requires_two_periods(self):
        with pytest.raises(ValueError, match="two oscillation periods"):
            analyze_divergence(_spiky(1.1, n_to=15), b=1.05, p=10)
        with pytest.raises(ValueError, match="empty"):
            analyze_divergence([], b=1.05, p=10)


class TestMagnitudeSeries:
    def test_starts_at_l_when_range_starts_below(self, small_vectors):
        series = magnitude_series(1, 8, l=3, precision=PREC)
        assert series[0][0] == 3
        assert series[-1][0] == 8
        with mp.workprec(PREC):
            q = small_vectors[5].coeff(3)
            want = abs(mp.mpf(q.numerator) / q.denominator)
            got = dict(series)[5]
            assert abs(got - want) <= abs(want) * mp.mpf(2) ** (-200)

    def test_values_are_nonnegative(self):
        assert all(v >= 0 for _, v in magnitude_series(1, 12, precision=PREC))

    def test_builds_one_fraction_per_n(self, fractions_built):
        series = magnitude_series(1, 40)
        assert len(series) == 40
        assert len(fractions_built) <= len(series)


class TestFigureConfigs:
    def test_three_standard_datasets(self):
        cfgs = figure_configs(PREC)
        stems = [stem for stem, _, _ in cfgs]
        assert stems == ["fig1", "fig2", "fig3"]
        assert cfgs[0][1].l == 1 and cfgs[1][1].l == 2
        assert cfgs[0][1].n_from == 100 and cfgs[0][1].n_to == 150
        assert "integral" in cfgs[2][1].modes
        assert cfgs[2][1].n_to == 70
        assert all(cfg.precision_bits == PREC for _, cfg, _ in cfgs)
