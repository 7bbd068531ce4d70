"""End-to-end CLI behavior: output shapes, files, exit codes."""

import csv
import dataclasses
import errno
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import pytest

import radpfd.cli as cli
import radpfd.contour as contour
import radpfd.report as report
from radpfd.exact import CoefficientVector
from radpfd.report import RunConfig
from radpfd.saddle import saddle_constants


class TestConstants:
    def test_prints_all_constants(self, capsys):
        assert cli.main(["constants"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        names = [line.split("=")[0].strip() for line in lines]
        assert names == ["z0", "a", "rho", "b", "theta", "p", "alpha", "b^p"]
        assert "(-1.605527554 + 7.423426171j)" in out
        assert "1.070446833" in out
        assert "31.96311489" in out
        assert "8.81034139" in out

    def test_digits_flag(self, capsys):
        assert cli.main(["constants", "--digits", "15"]) == 0
        out = capsys.readouterr().out
        assert "1.07044683283229" in out

    @pytest.mark.parametrize("digits", ["0", "-3"])
    def test_nonpositive_digits_is_usage_error(self, capsys, digits):
        assert cli.main(["constants", "--digits", digits]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--digits must be at least 1" in captured.err

    @pytest.mark.parametrize(
        "prec, digits",
        # 72..280: where z0 stopped about 16 bits short of prec, or b^p was
        # taken without guard bits
        [(64, 18), (72, 20), (80, 23), (128, 37), (144, 42), (256, 76), (272, 80), (280, 83)],
    )
    def test_digits_are_carried_by_the_precision(self, capsys, prec, digits):
        # every printed value within one unit in its last place of the 2*prec solve
        argv = ["--prec-bits", str(prec), "constants", "--digits"]
        assert cli.main(argv + [str(digits)]) == 0
        out = capsys.readouterr().out
        ref = saddle_constants(2 * prec)
        with mp.workprec(2 * prec):
            want = {
                "z0": ref.z0,
                "a": ref.a,
                "rho": ref.rho,
                "b": ref.b,
                "theta": ref.theta,
                "p": ref.p,
                "alpha": ref.alpha,
                "b^p": ref.b**ref.p,
            }
            for line in out.splitlines():
                name, text = (part.strip() for part in line.split("="))
                exact = want.pop(name)
                if isinstance(exact, mp.mpc):
                    re_text, sign, im_text = text.strip("()j").split(" ")
                    pairs = [(re_text, exact.real), (sign + im_text, exact.imag)]
                else:
                    pairs = [(text, exact)]
                for printed, value in pairs:
                    ulp = mp.mpf(10) ** (mp.floor(mp.log10(abs(value))) - digits + 1)
                    assert abs(mp.mpf(printed) - value) <= ulp, (name, printed)
            assert not want

        assert cli.main(argv + [str(digits + 1)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --digits must be at most {digits} at {prec} bits\n"

    def test_low_precision_is_reported_before_digits(self, capsys):
        assert cli.main(["--prec-bits", "8", "constants"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: precision must be at least 64 bits\n"


class TestExact:
    def test_prints_rational_and_decimal(self, capsys):
        assert cli.main(["exact", "--N", "3", "--l", "2"]) == 0
        assert capsys.readouterr().out == "C(3, 2) = 1/4 = 0.25\n"

    def test_default_l_is_one(self, capsys):
        assert cli.main(["exact", "--N", "2"]) == 0
        assert capsys.readouterr().out == "C(2, 1) = -1/4 = -0.25\n"

    def test_float_exact_agrees_with_rationals(self, capsys):
        assert cli.main(["exact", "--N", "25", "--l", "1", "--float-exact"]) == 0
        float_out = capsys.readouterr().out
        assert cli.main(["exact", "--N", "25", "--l", "1"]) == 0
        exact_out = capsys.readouterr().out
        got = mp.mpf(float_out.split("=")[1].strip())
        want = mp.mpf(exact_out.split("=")[2].strip())
        assert abs(got - want) < abs(want) * mp.mpf("1e-14")

    def test_l_beyond_n_is_usage_error(self, capsys):
        assert cli.main(["exact", "--N", "3", "--l", "5"]) == 2
        assert "no such coefficient" in capsys.readouterr().err

    def test_nonpositive_n_is_usage_error(self, capsys):
        assert cli.main(["exact", "--N", "0"]) == 2
        assert "positive" in capsys.readouterr().err

    @pytest.mark.parametrize("l", ["0", "-1"])
    @pytest.mark.parametrize("float_exact", [[], ["--float-exact"]])
    def test_nonpositive_l_is_usage_error(self, capsys, l, float_exact):
        # l = 0 and -1 once indexed the vector from its end: C(3, 3), C(3, 2)
        assert cli.main(["exact", "--N", "3", "--l", l] + float_exact) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no such coefficient" in captured.err

    def test_float_exact_checks_precision_before_any_work(self, capsys, monkeypatch):
        def unswept(N):
            raise AssertionError("coefficients computed before the precision was checked")

        monkeypatch.setattr(cli, "exact_coefficients", unswept)
        assert cli.main(["--prec-bits", "32", "exact", "--N", "5", "--float-exact"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: precision must be at least 64 bits\n"

    @pytest.mark.parametrize("flags", [[], ["--float-exact"]])
    def test_n_above_the_cap_exits_2_before_any_work(self, capsys, monkeypatch, flags):
        def unswept(N):
            raise AssertionError("coefficients computed for an N above the cap")

        monkeypatch.setattr(cli, "exact_coefficients", unswept)
        assert cli.main(["exact", "--N", "501"] + flags) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --N must be at most 500, got 501\n"

    def test_n_at_the_cap_is_computed(self, capsys, monkeypatch):
        calls = []

        def stub(N):
            calls.append(N)
            return CoefficientVector(N, (1,) * N, 2)

        monkeypatch.setattr(cli, "exact_coefficients", stub)
        assert cli.main(["exact", "--N", "500"]) == 0
        assert calls == [500]
        assert capsys.readouterr().out == "C(500, 1) = 1/2 = 0.5\n"


# (N, l) pairs that name no coefficient, with the usage error each gets
_NO_COEFFICIENT = {
    ("--N", "0"): "error: N must be a positive integer\n",
    ("--N", "10", "--l", "0"): "error: --l must be in 1..10, got 0: no such coefficient\n",
    ("--N", "3", "--l", "5"): "error: --l must be in 1..3, got 5: no such coefficient\n",
}


class TestAsymptoticAndIntegral:
    def test_asymptotic_prints_main_term_and_amplitude(self, capsys):
        assert cli.main(["asymptotic", "--N", "100"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("asymptotic C(100, 1) = ")
        assert "H_1(100) = " in out

    @pytest.mark.parametrize("argv", [list(argv) for argv in _NO_COEFFICIENT])
    def test_asymptotic_checks_arguments_before_solving(self, capsys, monkeypatch, argv):
        def unsolved(precision):
            raise AssertionError("saddle solved before the arguments were checked")

        monkeypatch.setattr(cli, "saddle_constants", unsolved)
        assert cli.main(["asymptotic"] + argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == _NO_COEFFICIENT[tuple(argv)]

    # N theta and b^N carry theta's and b's errors times N: with the saddle
    # at the requested precision, 64 bits printed H_1(10^30) = -5.37... and
    # 256 bits printed H_1(10^90) = 2.79...
    @pytest.mark.parametrize(
        "bits, N, h",
        [("64", 10**30, "-2.2630678820557225"), ("256", 10**90, "-1.7146713287596674")],
    )
    def test_asymptotic_at_large_n_raises_the_saddle_precision(self, capsys, bits, N, h):
        assert cli.main(["--prec-bits", bits, "asymptotic", "--N", str(N)]) == 0
        out = capsys.readouterr().out
        assert out.endswith(f"H_1({N}) = {h}\n")
        assert cli.main(["--prec-bits", "1024", "asymptotic", "--N", str(N)]) == 0
        assert capsys.readouterr().out == out

    def test_asymptotic_n_of_over_1024_bits_exits_2_before_solving(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "saddle_constants", _unsolved)
        assert cli.main(["asymptotic", "--N", str(2**1024)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --N must be below 2^1024\n"

    @pytest.mark.parametrize("argv", [list(argv) for argv in _NO_COEFFICIENT])
    def test_integral_checks_arguments_before_any_node(self, capsys, monkeypatch, argv):
        def no_nodes(*args):
            raise AssertionError("arc nodes computed before the arguments were checked")

        monkeypatch.setattr(contour, "_arc_nodes", no_nodes)
        assert cli.main(["integral"] + argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == _NO_COEFFICIENT[tuple(argv)]

    @pytest.mark.parametrize("l", ["1", "100"])
    def test_integral_above_the_cap_exits_2_before_any_node(self, capsys, monkeypatch, l):
        def no_nodes(*args):
            raise AssertionError("arc nodes computed for an N above the cap")

        monkeypatch.setattr(contour, "_arc_nodes", no_nodes)
        assert cli.main(["integral", "--N", "501", "--l", l]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --N must be at most 500, got 501\n"

    def test_integral_at_the_cap_is_computed(self, capsys, monkeypatch):
        calls = []

        def stub(l, N, precision):
            calls.append((l, N))
            return mp.mpf("0.5")

        monkeypatch.setattr(cli, "integral_approx_C", stub)
        assert cli.main(["integral", "--N", "500"]) == 0
        assert calls == [(1, 500)]
        assert capsys.readouterr().out == "integral C(500, 1) = 0.5\n"

    def test_integral_exits_1_when_the_ladder_does_not_converge(self, capsys, monkeypatch):
        # 128 and 256 nodes agree at N = 175, but 64 and 128 do not
        monkeypatch.setattr(contour, "_MAX_PANELS", 4)
        assert cli.main(["integral", "--N", "175"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: arc quadrature not converged at 128 nodes")
        assert "relative doubling delta" in captured.err

    def test_integral_tracks_exact(self, capsys, small_vectors):
        assert cli.main(["integral", "--N", "20"]) == 0
        out = capsys.readouterr().out
        got = mp.mpf(out.split("=")[1].strip())
        q = small_vectors[20].coeff(1)
        want = mp.mpf(q.numerator) / q.denominator
        assert abs(got - want) < abs(want) * mp.mpf("0.2")

    def test_integral_at_64_bits_raises_the_arc_precision_with_n(self, capsys):
        # 96 working bits, 64 + 32 guard, leave the ladder unconverged at
        # N = 220 (doubling delta 0.00323 at 2048 nodes); the arc needs 152
        assert cli.main(["--prec-bits", "64", "integral", "--N", "220"]) == 0
        assert capsys.readouterr().out == "integral C(220, 1) = 163.6653086823416\n"


def _unswept(*args):
    raise AssertionError("exact sweep started above the cap")


def _unsolved(precision):
    raise AssertionError("saddle solved for a range above the cap")


def _read_csv(text):
    """The data rows of an emitted CSV as dicts keyed by its header."""
    return list(csv.DictReader(text.splitlines()))


class TestCompare:
    def test_csv_on_stdout_parses(self, capsys):
        assert cli.main(["compare", "--from", "1", "--to", "6"]) == 0
        rows = _read_csv(capsys.readouterr().out)
        assert [int(r["N"]) for r in rows] == [1, 2, 3, 4, 5, 6]
        assert rows[0]["exact_rational"] != ""
        assert rows[0]["asymptotic"] != ""

    def test_json_format(self, capsys):
        assert cli.main(["compare", "--from", "2", "--to", "4", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [row["N"] for row in payload] == [2, 3, 4]

    def test_out_dir_writes_file(self, capsys, tmp_path):
        assert cli.main(["compare", "--from", "1", "--to", "3", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out.strip()
        path = tmp_path / "compare.csv"
        assert out == str(path)
        assert _read_csv(path.read_text())[2]["N"] == "3"

    def test_out_under_a_file_exits_2_before_any_row(self, capsys, monkeypatch, tmp_path):
        def no_rows(cfg):
            raise AssertionError("rows built before --out was checked")

        monkeypatch.setattr(cli, "build_rows", no_rows)
        blocker = tmp_path / "file"
        blocker.write_text("")
        out_dir = blocker / "sub"
        assert cli.main(["compare", "--from", "1", "--to", "3", "--out", str(out_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: --out: cannot create {out_dir}: {os.strerror(errno.ENOTDIR)}\n"
        )

    def test_notes_skipped_rows_on_stderr(self, capsys):
        assert cli.main(["compare", "--from", "1", "--to", "5", "--l", "3"]) == 0
        captured = capsys.readouterr()
        assert "no exact coefficient for l = 3" in captured.err
        rows = _read_csv(captured.out)
        assert rows[0]["exact_rational"] == "" and rows[4]["exact_rational"] != ""

    def test_l_beyond_every_n_leaves_every_cell_empty(self, capsys, monkeypatch):
        def no_nodes(*args):
            raise AssertionError("arc nodes computed for a coefficient that does not exist")

        monkeypatch.setattr(contour, "_arc_nodes", no_nodes)
        argv = ["compare", "--from", "1", "--to", "3", "--l", "5", "--modes", "integral"]
        assert cli.main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out.split("\n")[1:] == ["1,5,,,,,,", "2,5,,,,,,", "3,5,,,,,,", ""]
        assert captured.err == (
            "note: no exact coefficient for l = 5 at N = 1..3; cells left empty\n"
        )

    def test_svg_format_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["compare", "--from", "1", "--to", "3", "--format", "svg"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_range_below_one_is_usage_error(self, capsys):
        assert cli.main(["compare", "--from", "0", "--to", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: need 1 <= --from <= --to, got 0..3\n"

    def test_unknown_mode_rejected(self, capsys):
        assert cli.main(["compare", "--modes", "exact,psychic"]) == 2
        assert "unknown mode" in capsys.readouterr().err

    def test_integral_mode_via_flag(self, capsys):
        assert (
            cli.main(
                ["compare", "--from", "10", "--to", "11", "--modes", "exact,integral"]
            )
            == 0
        )
        rows = _read_csv(capsys.readouterr().out)
        assert rows[0]["integral"] != "" and rows[0]["asymptotic"] == ""

    @pytest.mark.parametrize("modes", ["exact", "exact,asymptotic", "exact,integral"])
    def test_exact_sweep_past_the_cap_exits_2_before_any_work(
        self, capsys, monkeypatch, modes
    ):
        monkeypatch.setattr(report, "coefficient_range", _unswept)
        monkeypatch.setattr(report, "saddle_constants", _unsolved)
        assert cli.main(["compare", "--from", "1", "--to", "501", "--modes", modes]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --to must be at most 500 for exact values, got 501\n"

    @pytest.mark.parametrize("modes", ["integral", "asymptotic,integral"])
    def test_integral_sweep_past_the_cap_exits_2_before_any_node(
        self, capsys, monkeypatch, modes
    ):
        def no_nodes(*args):
            raise AssertionError("arc nodes computed for a range above the cap")

        monkeypatch.setattr(contour, "_arc_nodes", no_nodes)
        monkeypatch.setattr(report, "saddle_constants", _unsolved)
        assert cli.main(["compare", "--from", "1", "--to", "501", "--modes", modes]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --to must be at most 500 for integral values, got 501\n"

    def test_asymptotic_mode_past_the_cap_is_computed(self, capsys):
        argv = ["compare", "--from", "500", "--to", "501", "--modes", "asymptotic"]
        assert cli.main(argv) == 0
        rows = _read_csv(capsys.readouterr().out)
        assert [int(r["N"]) for r in rows] == [500, 501]
        assert rows[1]["asymptotic"] != "" and rows[1]["exact_rational"] == ""

    def test_span_past_the_row_cap_exits_2_before_any_work(self, capsys, monkeypatch):
        monkeypatch.setattr(report, "coefficient_range", _unswept)
        monkeypatch.setattr(report, "saddle_constants", _unsolved)
        # --l 3 would note the empty rows N = 1..2 on stderr, after the check
        argv = ["compare", "--from", "1", "--to", "10001", "--l", "3", "--modes", "asymptotic"]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --from..--to must span at most 10000 values, got 10001\n"

    def test_asymptotic_column_at_large_n_raises_the_saddle_precision(self, capsys):
        argv = ["compare", "--from", str(10**30), "--to", str(10**30 + 1), "--modes", "asymptotic"]
        assert cli.main(["--prec-bits", "64"] + argv) == 0
        out = capsys.readouterr().out
        assert cli.main(["--prec-bits", "1024"] + argv) == 0
        assert capsys.readouterr().out == out
        assert _read_csv(out)[0]["asymptotic"] == "-1.029606595587414e+29565101540808909846825508143"

    def test_asymptotic_range_past_1024_bits_exits_2_before_any_work(self, capsys, monkeypatch):
        monkeypatch.setattr(report, "saddle_constants", _unsolved)
        argv = ["compare", "--from", str(2**1024 - 1), "--to", str(2**1024), "--modes", "asymptotic"]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --to must be below 2^1024 for asymptotic values\n"

    def test_far_short_span_is_computed(self, capsys):
        argv = ["compare", "--from", "1000000", "--to", "1000009", "--modes", "asymptotic"]
        assert cli.main(argv) == 0
        rows = _read_csv(capsys.readouterr().out)
        assert [int(r["N"]) for r in rows] == list(range(1000000, 1000010))
        assert all(r["asymptotic"] != "" for r in rows)

    def test_integral_mode_doubles_nodes_past_128(self, capsys):
        # 128 nodes give 469.92; 256 and 512 nodes agree on 470.1144
        argv = ["compare", "--from", "225", "--to", "225", "--modes", "integral"]
        assert cli.main(argv) == 0
        integral = _read_csv(capsys.readouterr().out)[0]["integral"]
        assert mp.nstr(mp.mpf(integral), 7) == "470.1144"


def _tiny_figures(precision):
    overlay = frozenset({"exact", "asymptotic"})
    return (
        ("figA", RunConfig(precision, 3, 8, 1, overlay), 16),
        ("figB", RunConfig(precision, 3, 8, 1, frozenset({"exact", "integral"})), 16),
    )


class TestFigures:
    def test_writes_csv_datasets(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "figure_configs", _tiny_figures)
        assert cli.main(["figures", "--out", str(tmp_path)]) == 0
        printed = capsys.readouterr().out.strip().split("\n")
        assert printed == [str(tmp_path / "figA.csv"), str(tmp_path / "figB.csv")]
        rows = _read_csv((tmp_path / "figA.csv").read_text())
        assert [int(r["N"]) for r in rows] == list(range(3, 9))

    def test_svg_format_adds_charts(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "figure_configs", _tiny_figures)
        assert cli.main(["figures", "--format", "svg", "--out", str(tmp_path)]) == 0
        svg = (tmp_path / "figB.svg").read_text()
        assert svg.startswith("<svg")
        assert svg.count("<polyline") == 2
        assert "exact vs integral" in svg
        assert "<script" not in svg

    def test_configs_share_one_exact_sweep_then_drop_it(self, capsys, tmp_path, monkeypatch):
        calls = []
        real = report.coefficient_range

        def spy(n_from, n_to):
            calls.append((n_from, n_to))
            return real(n_from, n_to)

        monkeypatch.setattr(cli, "figure_configs", _tiny_figures)
        monkeypatch.setattr(report, "coefficient_range", spy)
        report._exact_window.cache_clear()
        assert cli.main(["figures", "--out", str(tmp_path)]) == 0
        assert calls == [(3, 8)]
        assert report._exact_window.cache_info().currsize == 0

    def test_a_figure_that_raises_still_drops_the_window(self, tmp_path, monkeypatch):
        calls = []
        real = cli.build_rows

        def second_raises(cfg):
            calls.append(cfg)
            if len(calls) == 2:
                raise ArithmeticError("arc nodes did not converge")
            return real(cfg)

        monkeypatch.setattr(cli, "build_rows", second_raises)
        report._exact_window.cache_clear()
        with pytest.raises(ArithmeticError):
            cli.write_figures(_tiny_figures(64), tmp_path, False)
        assert len(calls) == 2
        assert report._exact_window.cache_info().currsize == 0

    def test_out_at_a_file_exits_2_before_any_dataset(self, capsys, monkeypatch, tmp_path):
        def no_figures(*args):
            raise AssertionError("datasets written before --out was checked")

        monkeypatch.setattr(cli, "write_figures", no_figures)
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert cli.main(["figures", "--out", str(blocker)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: --out: cannot create {blocker}: {os.strerror(errno.EEXIST)}\n"
        )

    def test_low_precision_exits_2_before_creating_out(self, capsys, tmp_path):
        out_dir = tmp_path / "a" / "b"
        assert cli.main(["--prec-bits", "32", "figures", "--out", str(out_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: precision must be at least 64 bits\n"
        assert not (tmp_path / "a").exists()

    def test_bad_format_is_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["figures", "--format", "xml"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestDisproof:
    def test_reports_peaks_and_verdict(self, capsys):
        assert cli.main(["disproof", "--from", "1", "--to", "66"]) == 0
        out = capsys.readouterr().out
        assert "peak analysis: l = 1, N = 1..66" in out
        assert "peaks (N, |C|):" in out
        assert "spacings:" in out
        assert "verdict:" in out

    def test_short_range_is_usage_error(self, capsys):
        assert cli.main(["disproof", "--from", "80", "--to", "100"]) == 2
        assert "two oscillation periods" in capsys.readouterr().err

    def test_checks_analysed_span_before_sweeping(self, capsys, monkeypatch):
        # the series starts at max(--from, --l) = 100: 50 < 2p, though 150 - 80 is not
        def unswept(*args):
            raise AssertionError("swept before the span was checked")

        monkeypatch.setattr(cli, "magnitude_series", unswept)
        assert cli.main(["disproof", "--from", "80", "--to", "150", "--l", "100"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "two oscillation periods" in captured.err

    def test_range_past_the_cap_exits_2_before_any_work(self, capsys, monkeypatch):
        monkeypatch.setattr(report, "coefficient_range", _unswept)
        monkeypatch.setattr(cli, "saddle_constants", _unsolved)
        assert cli.main(["disproof", "--from", "80", "--to", "501"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --to must be at most 500 for exact values, got 501\n"

    def test_l_zero_is_usage_error(self, capsys):
        assert cli.main(["disproof", "--from", "1", "--to", "66", "--l", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --l must be in 1..66, got 0\n"


# the six subcommands that print to stdout and write no file
_STDOUT_ONLY = [
    ["constants"],
    ["exact", "--N", "3"],
    ["asymptotic", "--N", "3"],
    ["integral", "--N", "3"],
    ["disproof"],
    ["check"],
]


class TestOutputFlags:
    """--format and --out belong to compare and figures only; argparse
    rejects them on every other subcommand, before or after its name."""

    @pytest.mark.parametrize("command", _STDOUT_ONLY, ids=lambda argv: argv[0])
    @pytest.mark.parametrize("flag", ["--format", "--out"])
    @pytest.mark.parametrize("before", [True, False], ids=["before", "after"])
    def test_rejected_where_nothing_is_written(self, capsys, tmp_path, command, flag, before):
        out_dir = tmp_path / "out"
        option = [flag, "json" if flag == "--format" else str(out_dir)]
        argv = option + command if before else command + option
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "argv", [["figures", "--format", "json"], ["--format", "json", "figures"]]
    )
    def test_figures_rejects_json(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""
        assert list(tmp_path.iterdir()) == []


class TestPinnedOutputs:
    """sha256 of whole stdout texts, recorded before the saddle and the
    arc derived their fixed inputs (the integral lines: before the arc
    found its own node count; the two-mode compare lines: before
    build_rows took one row path; the disproof and exact lines and the
    fig3 files: before asymptotic_C returned a plain mpf; the asymptotic
    lines: before the saddle's precision rose with N past 511; the
    integral columns over N = 1..80: before the arc ladder started at
    one panel); the asymptotic column of build_rows is pinned nowhere
    else."""

    THREE_MODES = ["compare", "--from", "1", "--to", "30", "--modes", "exact,asymptotic,integral"]

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (THREE_MODES, "255c5ce9190dfbb6939cfb33d6c9302376c65a33fb6c0a35586b6e7734e468ce"),
            (
                THREE_MODES + ["--format", "json"],
                "dda951066e3c75a17713fa965d63c1a21a0b02e6f550d3753d84fdce58fbd860",
            ),
            (
                ["constants", "--digits", "40"],
                "54991f872f437c5ba82c635d70b020f73ed043e208174ec205bfb2bc50b3155c",
            ),
            (
                ["integral", "--N", "20"],
                "9a943b27da0192f8e9e467175b4f31c07b36ecffc9f8a0ca041165578cbbea7c",
            ),
            (
                ["integral", "--N", "88", "--l", "3"],
                "1210fec980adcf8b14b467fd9d7476ae938c8fa2c3963b6da233d195509e1253",
            ),
            (
                ["compare", "--from", "1", "--to", "40", "--modes", "exact,integral"],
                "8a81212b92af9605bfd0f2ff75126f78105ea6192c007a766cdd7a7a41201356",
            ),
            (
                ["compare", "--from", "1", "--to", "8", "--l", "3"]
                + ["--modes", "exact,asymptotic", "--format", "json"],
                "9517b11896fd1f596e34b1673b7ba779cda866be6ce61f7268ab1213e5edda12",
            ),
            (
                ["compare", "--from", "1", "--to", "12", "--l", "2"]
                + ["--modes", "asymptotic,integral"],
                "f509ef90c0719e99d3c79bad6098b17be5dc0f8038a3baabfd16864c0e665a03",
            ),
            (
                ["disproof", "--from", "1", "--to", "80", "--l", "1"],
                "21f1a65452e95fdb5e4e4929b2645e9ba33d15e8b6857e4e257d870ba9d744f5",
            ),
            (
                ["disproof", "--from", "16", "--to", "80", "--l", "1"],
                "9d8a6cf00fe13a85812bc54297d386ea883ad9a0347adeabcda25252c43fa387",
            ),
            (
                ["exact", "--N", "88", "--l", "1"],
                "3b165a14f4b79909a840a67163fc7c0365239bc0e44fcaaec35c9dc5b276767f",
            ),
            (
                ["--prec-bits", "64", "asymptotic", "--N", "500", "--l", "3"],
                "3cfe2014defac59d9e7172b871cbf74d61fa30aedbdc55dc8c63f2549f472a82",
            ),
            (
                ["asymptotic", "--N", "511"],
                "094436692a7201d95b531997ed9f07463d1fa414a67a035c21ffc9806d055642",
            ),
            (
                ["compare", "--from", "1", "--to", "80", "--l", "1", "--modes", "integral"],
                "be0bcbeb5eaead5cc1888fd76e8fc172cc33266ed705ff295e28c6c16b2d1194",
            ),
            (
                ["compare", "--from", "1", "--to", "80", "--l", "3", "--modes", "integral"],
                "797cc8960d13743ea871e8b5bf1b0c4dfdb6026395f6224036853e358b115994",
            ),
            (
                ["compare", "--from", "1", "--to", "80", "--l", "8", "--modes", "integral"],
                "5d991971fdc895d1c4c63fa429b52aa1d3dce2ccd5630efa38a9732e36419c7e",
            ),
            (  # prints C(150, 3) = -0.12883199705431739
                ["--prec-bits", "128", "integral", "--N", "150", "--l", "3"],
                "2b9f18e2cf593eb657c5318fe22075840d7c0b0d52fd0ad3ec9ad9c2caa22bef",
            ),
            (  # prints C(300, 5) = -0.034666096627112583
                ["--prec-bits", "512", "integral", "--N", "300", "--l", "5"],
                "6cedd975928a46c3f29d4a55b5218c142eebbe99fa6ef5ff844c8e87379e5bc6",
            ),
            (  # prints C(250, 8) = 0.00019307314371465891
                ["--prec-bits", "64", "integral", "--N", "250", "--l", "8"],
                "280b76d839dc533732abc03f4530f1c92c04d1b10c24ac7ba469fdf972624085",
            ),
        ],
    )
    def test_stdout_digest(self, capsys, argv, digest):
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    # the stdout of every pointwise query the benchmark checks (N = 88,
    # l = 1..8) but the two pinned above
    POINTWISE = {
        ("exact", 2): "dc0d775d5abe2ab5dd9cd00edc2a8dd171446779a57b60f5ecf65ecd00d8faf4",
        ("exact", 3): "6cf0dc7015782750c0c08c9e088985bc71586935f451c7d714a6043d50c30f77",
        ("exact", 4): "ece1b2e26e30f1a4b1735e33ea03640c62bf9782e3c738b292349010ec92c907",
        ("exact", 5): "3fe0c2d566082331cfe8a47690ef00c58d4df71295702556c6af657923544edd",
        ("exact", 6): "42f9048dda1fc26917116e1b09bd7d41ffccf1634656439bb57f2995b758372d",
        ("exact", 7): "ee32d3b64351b3f509682bb142c05c83ef631b19c44e82395f60dde93d560b8f",
        ("exact", 8): "e8a5e8c8429dcfe9997a41283e59040335e640f75199bc5c83a75c655a52c1bb",
        ("exact --float-exact", 1): "d1b47c4694d92f0735a7d083ec3c64639e9fcaeb80dcf0804a31132512bd3304",
        ("exact --float-exact", 2): "e8af133c894f2cc52dec24c690b4bae2b49687aaca7430b1d822a122d1fd443f",
        ("exact --float-exact", 3): "d0579ae95eb1eef4cd5da28ab96b0f272d3e8b04e662eac4785ef4b7d2ae8dd6",
        ("exact --float-exact", 4): "2a6448b64a9b51af71d50c189cf54cb575b2f09856387193614080a44b8c9785",
        ("exact --float-exact", 5): "93a03cc94d86c9c8f99556cef972495bf8e45d3d609b8f8427ade0e42791995e",
        ("exact --float-exact", 6): "f695cec0ba37ef5c462eccf2f00358b4cf3afa0b69d72d58a4a5e15de5078996",
        ("exact --float-exact", 7): "ec4f809ab5e4932e99351cd443c057aa512d277852793d0b6f5e74cf427e265a",
        ("exact --float-exact", 8): "ffee9fdc5bf8b1695b9463475afdd866e3dd361f7a9a28721b7448340f3f700f",
        ("asymptotic", 1): "ef7d68cdde23620c410a2bb9fc84018ef5cfffbe87e5d7483b2f2263e019aab8",
        ("asymptotic", 2): "f3c78c683d096c20de252acce2b3f20ac88fc209378be8df76e6e6a10ec68a91",
        ("asymptotic", 3): "f56e2fa126cd4f0b405a4a368e2c93ba4def2a1b7995e9aaf389a38973390de6",
        ("asymptotic", 4): "00cd1f508a9f44cf0e7de4de62f82154754406135052a3ad41cbd0a22c2f9da5",
        ("asymptotic", 5): "df8ad2c5b17df621eb5917faf17d8720a0b6b581544fc756ace7b618af0ee29e",
        ("asymptotic", 6): "b9c6602db0630c8b1b75baef0e4ba9ee1a93a67b94f6ffcccc7204558a8e6ed4",
        ("asymptotic", 7): "ad8a4816488dd03e0871c784936589e38b746fca9b16a854c90fd76fe45a9c3f",
        ("asymptotic", 8): "d76485ec205dc4ad8ce17b13ec99bc27c432880c8df829201b97fa73d126a6ec",
        ("integral", 1): "ec10bf104083f2287bbb0d7a280364a5eddb6fc7f4554e5a83fd27d2f9fc85a2",
        ("integral", 2): "3e23ac1be6a907c89bb6cec5f917f1aa20ad6250447be1fc63101f4e1e15f40e",
        ("integral", 4): "265e1404762641f499b66aea14469479e4bd949f6b83e89fe3691d89fca93af4",
        ("integral", 5): "5c22815dbe7f29b1826dfd6dba015f7276ae2801001489bbb1e8f8c11590750c",
        ("integral", 6): "b43e2be3279e28e0fbf7edfb11a7badc2a89df68d76e67982e4775ed359c3740",
        ("integral", 7): "ef0d8684795d76f34074621132665651d59181078f9042271abc4171104aef08",
        ("integral", 8): "cce5560a5ee0e9dac8c0f3e6b150ccb69a63c3669c87f83421f5d722abadc2ea",
    }

    def test_pointwise_digests(self, capsys):
        found = {}
        for command, l in self.POINTWISE:
            assert cli.main(command.split() + ["--N", "88", "--l", str(l)]) == 0
            found[command, l] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert found == self.POINTWISE

    def test_fig1_and_fig2_file_digests(self, tmp_path):
        configs = [c for c in report.figure_configs() if c[0] in ("fig1", "fig2")]
        paths = cli.write_figures(configs, tmp_path, emit_svg=True)
        assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths} == {
            "fig1.csv": "3ab2bafe95dd924894681eb79e01b3335b620a7821ea4698660e39c4a35420f1",
            "fig1.svg": "de1e4ba7c640c3f7b4f91eb250067e448c35ce49bae064a5467b8709c4d2d75d",
            "fig2.csv": "756285bcd8580ded1fd7c536d9ca61bf7ea02d0badd0b52d02a6143e7471c585",
            "fig2.svg": "c850755ae5a3dacca2a119d8162ca142a376f4ab72694331fd96eec43f414b31",
        }

    def test_fig3_file_digests(self, tmp_path):
        # fig3 over N = 1..40, the window the benchmark's quadrature
        # workload writes; the CSV is the compare --to 40 text above
        stem, cfg, nodes = next(c for c in report.figure_configs() if c[0] == "fig3")
        cfg = dataclasses.replace(cfg, n_from=1, n_to=40)
        paths = cli.write_figures([(stem, cfg, nodes)], tmp_path, emit_svg=True)
        assert {p.suffix: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths} == {
            ".csv": "8a81212b92af9605bfd0f2ff75126f78105ea6192c007a766cdd7a7a41201356",
            ".svg": "2f0f122182bf0dedd400b5eb58aa7335b65925691784f3080ecee834f117d407",
        }


class TestCheck:
    def test_failed_witness_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "constant_c", lambda precision: mp.mpf("0.2"))
        assert cli.main(["check"]) == 1
        lines = capsys.readouterr().out.strip().split("\n")
        failed = [line for line in lines if line.startswith("FAIL")]
        assert len(failed) == 1
        assert failed[0].startswith("FAIL  Euler constant c = 0.11262 to 5 decimals")
        assert failed[0].endswith("c = 0.2")
        assert lines[-1] == "17/18 checks passed"

    def test_all_witnesses_pass(self, capsys):
        assert cli.main(["check"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        n = len([line for line in out.strip().split("\n") if line.startswith("PASS")])
        assert out.strip().endswith(f"{n}/{n} checks passed")
        assert n >= 15
        # recorded before the arc found its own node count
        digest = "7056e017c8d2d183373d12ff3761d120b41395b6a9d60fb32677e51ad79e3559"
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_yields_at_the_callers_precision(self):
        # a lazy consumer does its own mpmath arithmetic between items
        prec = mp.mp.prec
        names = []
        for name, _, _ in cli.run_checks():
            assert mp.mp.prec == prec, name
            names.append(name)
        assert len(names) == 18

    @pytest.mark.parametrize("prec", [64, 256])
    def test_split_halves_give_the_serial_triples(self, monkeypatch, two_cpus, prec):
        split = list(cli.run_checks(prec))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert split == list(cli.run_checks(prec))

    def test_a_check_forks_once(self, monkeypatch, capsys, two_cpus):
        contour._legendre_rule.cache_clear()
        contour._arc_nodes.cache_clear()
        contour._oracle_nodes.cache_clear()
        fork, forks = os.fork, []

        def counting_fork():
            forks.append(os.getpid())
            return fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        assert cli.main(["check"]) == 0
        assert forks == [os.getpid()]


_EVERY_COMMAND = [
    ["constants"],
    ["exact", "--N", "5"],
    ["exact", "--N", "5", "--float-exact"],
    ["asymptotic", "--N", "20"],
    ["integral", "--N", "20"],
    ["compare", "--from", "1", "--to", "3", "--modes", "exact,asymptotic,integral"],
    ["figures"],
    ["disproof"],
    ["check"],
]


class TestPrecisionCap:
    """--prec-bits below 64 or above cli._MAX_PREC_BITS exits 2 before any work."""

    @pytest.fixture
    def no_work(self, monkeypatch):
        def stub(*args, **kwargs):
            raise AssertionError("work started at a rejected precision")

        for name in (
            "saddle_constants",
            "exact_coefficients",
            "integral_approx_C",
            "build_rows",
            "figure_configs",
            "write_figures",
            "magnitude_series",
            "run_checks",
        ):
            monkeypatch.setattr(cli, name, stub)

    @pytest.mark.parametrize("argv", _EVERY_COMMAND, ids=lambda argv: " ".join(argv))
    def test_above_the_cap_is_a_usage_error(self, capsys, no_work, argv):
        bits = str(cli._MAX_PREC_BITS + 1)
        assert cli.main(["--prec-bits", bits] + argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: --prec-bits must be at most {cli._MAX_PREC_BITS}, got {bits}\n"
        )

    @pytest.mark.parametrize("argv", _EVERY_COMMAND, ids=lambda argv: " ".join(argv))
    def test_below_the_floor_is_a_usage_error(self, capsys, no_work, argv):
        assert cli.main(["--prec-bits", "63"] + argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: precision must be at least 64 bits\n"

    @pytest.mark.parametrize("argv", [["constants"], ["exact", "--N", "5", "--float-exact"]])
    def test_at_the_cap_prints_as_usual(self, capsys, argv):
        assert cli.main(argv) == 0
        default = capsys.readouterr().out
        assert cli.main(["--prec-bits", str(cli._MAX_PREC_BITS)] + argv) == 0
        assert capsys.readouterr().out == default


def test_python_m_radpfd_is_the_cli():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    runs = [
        subprocess.run([sys.executable, "-m", module, "constants"], capture_output=True, env=env)
        for module in ("radpfd", "radpfd.cli")
    ]
    assert runs[0].returncode == runs[1].returncode == 0
    assert (runs[0].stdout, runs[0].stderr) == (runs[1].stdout, runs[1].stderr)
    assert runs[0].stdout.startswith(b"z0     = ")
