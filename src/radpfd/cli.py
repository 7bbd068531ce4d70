"""Command-line interface.

Subcommands: constants, exact, asymptotic, integral, compare, figures,
disproof, check.  The global flag --prec-bits picks the precision in
mantissa bits; compare and figures, the two that write tables or files,
also take --format and --out.  Exit status is 0 on success, 1 when a
computation or witness check fails, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import mpmath as mp

from .contour import (
    QuadratureSpec,
    _arc_integral,
    _full_arc_integral,
    cauchy_oracle,
    check_lower_bound_inequality,
    check_monotone_exponent,
    constant_c,
    constant_c_euler_check,
    integral_approx_C,
)
from .exact import _to_mpf, decimal_str, exact_coefficients, rational_str
from .report import (
    RunConfig,
    _exact_window,
    analyze_divergence,
    build_rows,
    emit_csv,
    emit_json,
    figure_configs,
    magnitude_series,
)
from .saddle import H, _saddle_precision, argument_principle_count, asymptotic_C, saddle_constants
from .specfun import _GUARD, _check_precision, phi
from .svg import line_chart

__all__ = ["main", "write_figures", "run_checks"]

# exact and integral --N, and the --to of the exact or integral sweeps in
# disproof and compare, above this exit 2 before any work: exact_coefficients
# costs O(N^2) big-integer steps whose operands grow with N, about N^4 in all;
# the arc's ladder converges up to N = 500 at l = 1, and the integral shares
# this cap so that every integral it prints has an exact value to check
_MAX_N = 500
# --prec-bits below 64 or above this exits 2 before any work, whatever the
# subcommand: at 1024 bits check takes 1.7 s and figures 2.4 s (medians of 10
# fresh processes on 2 vCPUs), at 512 bits 0.93 s and 1.3 s
_MAX_PREC_BITS = 1024
# a compare range of more N exits 2 before any work: asymptotic rows, which no
# --to cap bounds, are held until written, and 10 000 of them took 1.7 s
_MAX_ROWS = 10_000
# an asymptotic --N or --to of more bits exits 2 before any work; the saddle's
# precision grows with N's bits (saddle._saddle_precision), to 2048 at most
_MAX_N_BITS = 1024


def _add_range(p, n_from: int, n_to: int):
    p.add_argument("--from", dest="n_from", type=int, default=n_from, metavar="N")
    p.add_argument("--to", dest="n_to", type=int, default=n_to, metavar="N")


def _add_output(p, formats):
    p.add_argument("--format", choices=formats, default="csv", help="output format")
    p.add_argument("--out", type=Path, default=None, help="output directory")


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="radpfd",
        description="Partial-fraction coefficients of 1/((1-x)(1-x^2)...(1-x^N)): "
        "exact values, saddle-point asymptotics, contour integrals.",
    )
    top.add_argument(
        "--prec-bits",
        type=int,
        default=256,
        help=f"working precision in bits, 64 to {_MAX_PREC_BITS}; "
        f"at {_MAX_PREC_BITS} check takes about 2 s and figures 2.5 s",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", help="saddle point and derived constants")
    p.add_argument("--digits", type=int, default=10)
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("exact", help="exact coefficient C(N, l)")
    p.add_argument(
        "--N",
        type=int,
        required=True,
        help=f"1..{_MAX_N}; N = {_MAX_N} takes a few seconds",
    )
    p.add_argument("--l", type=int, default=1)
    p.add_argument(
        "--float-exact",
        action="store_true",
        help="print the exact value rounded to --prec-bits bits, to 17 digits",
    )
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("asymptotic", help="closed-form asymptotic main term")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--l", type=int, default=1)
    p.set_defaults(func=cmd_asymptotic)

    p = sub.add_parser("integral", help="arc-integral approximation")
    p.add_argument("--N", type=int, required=True, help=f"1..{_MAX_N}")
    p.add_argument("--l", type=int, default=1)
    p.set_defaults(func=cmd_integral)

    p = sub.add_parser("compare", help="exact vs approximations over a range")
    _add_range(p, 1, 10)
    p.add_argument("--l", type=int, default=1)
    p.add_argument(
        "--modes",
        default="exact,asymptotic",
        help="comma-separated subset of exact,asymptotic,integral",
    )
    _add_output(p, ("csv", "json"))
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("figures", help="emit the standard comparison datasets")
    _add_output(p, ("csv", "svg"))
    p.set_defaults(func=cmd_figures)

    p = sub.add_parser("disproof", help="peak growth analysis over a range")
    _add_range(p, 80, 150)
    p.add_argument("--l", type=int, default=1)
    p.set_defaults(func=cmd_disproof)

    p = sub.add_parser("check", help="run all numeric witness checks")
    p.set_defaults(func=cmd_check)
    return top


def _check_range(args, modes):
    """Reject an empty range, a sweep past _MAX_N (exact or integral) or
    _MAX_N_BITS bits (asymptotic), and over _MAX_ROWS values of N."""
    if not 1 <= args.n_from <= args.n_to:
        raise ValueError(f"need 1 <= --from <= --to, got {args.n_from}..{args.n_to}")
    capped = [mode for mode in ("exact", "integral") if mode in modes]
    if capped and args.n_to > _MAX_N:
        raise ValueError(
            f"--to must be at most {_MAX_N} for {capped[0]} values, got {args.n_to}"
        )
    if "asymptotic" in modes and args.n_to.bit_length() > _MAX_N_BITS:
        raise ValueError(f"--to must be below 2^{_MAX_N_BITS} for asymptotic values")
    rows = args.n_to - args.n_from + 1
    if rows > _MAX_ROWS:
        raise ValueError(f"--from..--to must span at most {_MAX_ROWS} values, got {rows}")


def _make_out_dir(path: Path):
    """Create the --out directory before any work; a path that cannot be
    one is a usage error."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"--out: cannot create {exc.filename}: {exc.strerror}") from None


def cmd_constants(args) -> int:
    prec = args.prec_bits
    d = args.digits
    if d < 1:
        raise ValueError("--digits must be at least 1")
    carried = math.floor(prec * math.log10(2)) - 1
    if d > carried:
        raise ValueError(f"--digits must be at most {carried} at {prec} bits")
    sd = saddle_constants(prec)
    for name in ("z0", "a", "rho", "b", "theta", "p", "alpha"):
        print(f"{name:6s} = {mp.nstr(getattr(sd, name), d)}")
    with mp.workprec(prec + _GUARD):
        print(f"b^p    = {mp.nstr(sd.b**sd.p, d)}")
    return 0


def _check_coefficient(args, capped: bool):
    """Reject (N, l) unless C(N, l) exists, and N past _MAX_N where capped
    or of more than _MAX_N_BITS bits, before any work."""
    if args.N < 1:
        raise ValueError("N must be a positive integer")
    if not 1 <= args.l <= args.N:
        raise ValueError(f"--l must be in 1..{args.N}, got {args.l}: no such coefficient")
    if capped and args.N > _MAX_N:
        raise ValueError(f"--N must be at most {_MAX_N}, got {args.N}")
    if args.N.bit_length() > _MAX_N_BITS:
        raise ValueError(f"--N must be below 2^{_MAX_N_BITS}")


def cmd_exact(args) -> int:
    _check_coefficient(args, capped=True)
    q = exact_coefficients(args.N).coeff(args.l)
    if args.float_exact:
        print(f"C({args.N}, {args.l}) = {mp.nstr(_to_mpf(q, args.prec_bits), 17)}")
    else:
        print(f"C({args.N}, {args.l}) = {rational_str(q)} = {decimal_str(q)}")
    return 0


def cmd_asymptotic(args) -> int:
    _check_coefficient(args, capped=False)
    sd = saddle_constants(_saddle_precision(args.prec_bits, args.N))
    print(f"asymptotic C({args.N}, {args.l}) = {mp.nstr(asymptotic_C(args.l, args.N, sd), 17)}")
    print(f"H_{args.l}({args.N}) = {mp.nstr(H(args.l, args.N, sd), 17)}")
    return 0


def cmd_integral(args) -> int:
    _check_coefficient(args, capped=True)
    value = integral_approx_C(args.l, args.N, args.prec_bits)
    print(f"integral C({args.N}, {args.l}) = {mp.nstr(value, 17)}")
    return 0


def cmd_compare(args) -> int:
    modes = frozenset(m.strip() for m in args.modes.split(",") if m.strip())
    _check_range(args, modes)
    cfg = RunConfig(
        precision_bits=args.prec_bits,
        n_from=args.n_from,
        n_to=args.n_to,
        l=args.l,
        modes=modes,
    )
    if args.out is not None:
        _make_out_dir(args.out)
    if cfg.l > cfg.n_from:
        print(
            f"note: no exact coefficient for l = {cfg.l} at N = "
            f"{cfg.n_from}..{min(cfg.l - 1, cfg.n_to)}; cells left empty",
            file=sys.stderr,
        )
    rows = build_rows(cfg)
    text = emit_json(rows) if args.format == "json" else emit_csv(rows)
    if args.out is not None:
        path = args.out / f"compare.{args.format}"
        path.write_text(text)
        print(str(path))
    else:
        sys.stdout.write(text)
    return 0


def write_figures(configs, out_dir: Path, emit_svg: bool):
    """Write the dataset of each figure_configs() triple to out_dir;
    returns paths."""
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    try:
        for stem, cfg, _ in configs:
            rows = build_rows(cfg)
            path = out_dir / f"{stem}.csv"
            path.write_text(emit_csv(rows))
            written.append(path)
            if emit_svg:
                other = "asymptotic" if "asymptotic" in cfg.modes else "integral"
                exact_pts = [(r.N, r.exact) for r in rows if r.exact is not None]
                other_pts = [
                    (r.N, getattr(r, other)) for r in rows if getattr(r, other) is not None
                ]
                svg_path = out_dir / f"{stem}.svg"
                svg_path.write_text(
                    line_chart(
                        [exact_pts, other_pts],
                        ["exact", other],
                        f"C(N, {cfg.l}): exact vs {other}, N = {cfg.n_from}..{cfg.n_to}",
                    )
                )
                written.append(svg_path)
    finally:
        _exact_window.cache_clear()  # the configs share windows; later callers do not
    return written


def cmd_figures(args) -> int:
    configs = figure_configs(args.prec_bits)
    out_dir = args.out if args.out is not None else Path(".")
    _make_out_dir(out_dir)
    paths = write_figures(configs, out_dir, args.format == "svg")
    for path in paths:
        print(str(path))
    return 0


def cmd_disproof(args) -> int:
    _check_range(args, {"exact"})
    if not 1 <= args.l <= args.n_to:
        raise ValueError(f"--l must be in 1..{args.n_to}, got {args.l}")
    prec = args.prec_bits
    sd = saddle_constants(prec)
    # magnitude_series starts at max(--from, --l): check that span before sweeping
    if args.n_to - max(args.n_from, args.l) < 2 * sd.p:
        raise ValueError("range too short: need at least two oscillation periods")
    series = magnitude_series(args.n_from, args.n_to, args.l, prec)
    rep = analyze_divergence(series, b=sd.b, p=sd.p)
    print(f"peak analysis: l = {args.l}, N = {series[0][0]}..{series[-1][0]}")
    print("peaks (N, |C|):")
    for n, mag in rep.peaks:
        print(f"  {n:4d}  {mp.nstr(mag, 8)}")
    print("spacings:", ", ".join(str(s) for s in rep.spacings))
    print("ratios:  ", ", ".join(mp.nstr(r, 6) for r in rep.ratios))
    if rep.growth is not None:
        print(f"growth last/first peak: {mp.nstr(rep.growth, 8)}")
        print(f"expected factor b^(span/2): {mp.nstr(rep.threshold, 8)}")
    print(f"verdict: {rep.verdict}")
    return 0


def run_checks(precision: int = 256):
    """Yield every numeric witness as a (name, ok, detail) triple, in a
    fixed order; detail is "" where the check prints nothing more."""
    sd = saddle_constants(precision)
    tight = mp.mpf(2) ** -(precision - 16)
    loose = mp.mpf(2) ** -(precision // 2)
    tiny = mp.mpf("1e-20")
    with mp.workprec(precision + _GUARD):
        residual = abs(phi(sd.z0, precision))
        bp = sd.b**sd.p
        count = argument_principle_count()
        h0 = H(1, mp.mpf(100), sd)
        dh = abs(H(1, mp.mpf(100) + sd.p, sd) - h0)
        steps = int(sd.p / mp.mpf("0.1"))
        signs = [h0 > 0] + [
            H(1, mp.mpf(100) + k * mp.mpf("0.1"), sd) > 0 for k in range(1, steps + 1)
        ]
        flips = sum(a != b for a, b in zip(signs, signs[1:]))
        saddle_checks = [
            ("saddle residual small", residual < tight, f"|phi(z0)| = {mp.nstr(residual, 3)}"),
            (
                "constants round to known digits",
                abs(sd.b - mp.mpf("1.07")) < 0.005
                and abs(sd.p - mp.mpf("31.96")) < 0.05
                and abs(sd.a - mp.mpf("1.79")) < 0.005
                and abs(sd.alpha - mp.mpf("0.028")) < 0.0005
                and abs(bp - mp.mpf("8.81")) < 0.02,
                f"b = {mp.nstr(sd.b, 6)}, p = {mp.nstr(sd.p, 6)}, b^p = {mp.nstr(bp, 6)}",
            ),
            ("rho on the unit circle", abs(abs(sd.rho) - 1) < tight, ""),
            ("one root in the unit disk around the guess", count == 1, f"count = {count}"),
            ("H periodic with period p", dh < loose, f"|H(100+p) - H(100)| = {mp.nstr(dh, 3)}"),
            ("H changes sign twice per period", flips == 2, f"flips = {flips}"),
        ]
    yield from saddle_checks

    spec_small = QuadratureSpec(nodes=64, precision=128, radius=0.5)
    delta = abs(cauchy_oracle(1, 1, spec_small).value + 1)
    yield "oracle hand value C(1,1) = -1", delta < tiny, f"delta = {mp.nstr(delta, 3)}"
    delta = abs(cauchy_oracle(2, 2, spec_small).value - mp.mpf("0.5"))
    yield "oracle hand value C(2,2) = 1/2", delta < tiny, ""
    exact20 = exact_coefficients(20).coeff(1)
    o20 = cauchy_oracle(1, 20, QuadratureSpec(nodes=224, precision=512, radius=0.15))
    with mp.workprec(512):
        diff = abs(o20.value - _to_mpf(exact20, 512))
    yield "oracle matches exact at N = 20", diff < tiny, f"diff = {mp.nstr(diff, 3)}"

    path = [5j + (complex(sd.z0) - 5j) * t / 199 for t in range(200)]
    ok = check_monotone_exponent(path)
    yield "growth exponent monotone toward the saddle", ok, ""
    grid = [(u, x) for u in (0.01, 0.05, 0.1) for x in (0.0, -1e-3, -1e-2)]
    yield "trig lower bound holds on sample grid", check_lower_bound_inequality(grid), ""
    ok = not check_lower_bound_inequality(grid, rhs_scale=2.0)
    yield "trig lower bound detector rejects inflated bound", ok, ""
    c = constant_c(precision)
    ok = abs(c - mp.mpf("0.11262")) < mp.mpf("0.5e-5")
    yield "Euler constant c = 0.11262 to 5 decimals", ok, f"c = {mp.nstr(c, 8)}"
    dev = constant_c_euler_check()
    ok = dev < mp.mpf("1e-3")
    yield "c consistent with direct quadrature", ok, f"relative deviation = {mp.nstr(dev, 3)}"
    full = _full_arc_integral(1, 20, 2, precision)
    ok = abs(full.imag) < loose * max(1, abs(full))
    yield "arc integral real before the cast", ok, f"Im = {mp.nstr(abs(full.imag), 3)}"
    v64 = _arc_integral(1, 20, 2, precision)
    v128 = _arc_integral(1, 20, 4, precision)
    yield (
        "arc quadrature stable under node doubling",
        abs(v128 - v64) < mp.mpf("1e-10") * abs(v128),
        f"relative delta = {mp.nstr(abs(v128 - v64) / abs(v128), 3)}",
    )
    exact60 = _to_mpf(exact_coefficients(60).coeff(1), precision)
    v60 = integral_approx_C(1, 60, precision)
    with mp.workprec(precision):
        rel = abs(v60 - exact60) / abs(exact60)
    yield (
        "arc integral within 10% of exact at N = 60",
        rel < mp.mpf("0.1"),
        f"relative error = {mp.nstr(rel, 3)}",
    )
    rep = analyze_divergence([(n, mp.mpf(1)) for n in range(80, 151)], b=sd.b, p=sd.p)
    ok = rep.verdict == "no divergence detected"
    yield "divergence detector ignores constant input", ok, ""


def cmd_check(args) -> int:
    results = list(run_checks(args.prec_bits))
    width = max(len(name) for name, _, _ in results)
    for name, ok, detail in results:
        line = f"{'PASS' if ok else 'FAIL'}  {name:<{width}}"
        print(f"{line}  {detail}" if detail else line)
    passed = sum(ok for _, ok, _ in results)
    print(f"{passed}/{len(results)} checks passed")
    return 0 if passed == len(results) else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_precision(args.prec_bits)
        if args.prec_bits > _MAX_PREC_BITS:
            raise ValueError(
                f"--prec-bits must be at most {_MAX_PREC_BITS}, got {args.prec_bits}"
            )
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
