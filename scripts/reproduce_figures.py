#!/usr/bin/env python3
"""Regenerate the three comparison datasets and the peak-growth report.

Writes fig1.csv/fig2.csv (exact vs asymptotic, l = 1 and 2, N = 100..150),
fig3.csv (exact vs integral, l = 1, N = 1..70), matching SVG charts, and
prints the divergence analysis over N = 80..150.  The rational sweeps
dominate the runtime; expect a couple of minutes total.

Usage:
  python3 scripts/reproduce_figures.py --out figures/
  python3 scripts/reproduce_figures.py --prec-bits 128 --skip-svg
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path

import mpmath as mp

from radpfd.cli import write_figures
from radpfd.report import analyze_divergence, figure_configs, magnitude_series
from radpfd.saddle import saddle_constants, solve_saddle


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", type=Path, default=Path("figures"))
    ap.add_argument("--prec-bits", type=int, default=256)
    ap.add_argument("--skip-svg", action="store_true")
    args = ap.parse_args()

    t0 = time.time()
    paths = write_figures(
        figure_configs(args.prec_bits), args.out, emit_svg=not args.skip_svg
    )
    for p in paths:
        print(f"wrote {p}")
    print(f"figures done in {time.time() - t0:.1f}s")

    sd = saddle_constants(solve_saddle(args.prec_bits), args.prec_bits)
    t0 = time.time()
    series = magnitude_series(80, 150, 1, args.prec_bits)
    rep = analyze_divergence(series, b=sd.b, p=sd.p, l=1)
    print(f"peak analysis over N = 80..150 ({time.time() - t0:.1f}s):")
    for n, mag in rep.peaks:
        print(f"  peak at N = {n}: |C| = {mp.nstr(mag, 8)}")
    print(f"  spacings: {list(rep.spacings)}")
    print(f"  growth last/first = {mp.nstr(rep.growth, 8)}, "
          f"threshold b^(span/2) = {mp.nstr(rep.threshold, 8)}")
    print(f"  verdict: {rep.verdict}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
