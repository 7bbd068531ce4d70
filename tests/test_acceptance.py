"""Acceptance gate: one test per claimed property, at its stated tolerance.

Each test prints a single summary line with the measured numbers, then
asserts the claim.  Two tests record expectations that the computed data
contradicts; they are kept at their original thresholds and fail,
because the honest record is worth more than a green checkmark:

* test_c5_peak_ratio_matches_per_period_factor: 8.81 +- 15% is the
  per-period factor b^p, a limit as N -> infinity that N = 80..150
  cannot show.  The test takes adjacent peaks of |C(N, 1)|, which sit
  p/2 ~ 16 apart and alternate between crests and troughs of C; their
  ratios are 0.275, 8.85, 1.54 and 2.90.  |H_1| is a pure sinusoid with
  two equal humps per period, so the peaks are unequal because of the
  non-oscillating part of C(N, 1): C minus the main term stays between
  -0.375 and -0.168 on this window, more than the main term's amplitude
  of 0.20-0.22 at N = 80-83.  Even same-sign peaks one period apart give
  2.44 and 4.47 (troughs) and 13.6 (crests), because that offset is a
  large share of every peak and the N^{-2} factor alone contributes
  (N/(N+p))^2 = 0.52-0.61 per period.
* test_c6_integral_error_decreases_from_20_to_60: the absolute error of
  the arc integral is a flat offset, integral - exact = -0.0108 at
  N = 20 and -0.0107 at N = 60, and between -0.0109 and -0.0097 over
  N = 15..70.  The relative error is that offset over |C(N, 1)|, which
  follows the phase of H_1 (|C(20, 1)| = 0.3143, |C(60, 1)| = 0.2458),
  so it reads 3.4% at N = 20 and 4.3% at N = 60 rather than shrinking
  with N.  It is not quadrature error: the error agrees to 8 digits at
  64, 128 and 256 nodes (0.034293176 at N = 20, 0.043434349 at N = 60).
  The flat offset holds to about N = 100 (-0.0090 there).  Beyond that
  the converged arc's error oscillates and grows: -0.026 at N = 150,
  +0.18 at N = 200, -2.5 at N = 250 and +26 at N = 300, between 0.1% and
  1.5% of |C(N, 1)| over N = 150..300.

test_c5_peak_spacing_near_32 measures the period p = 31.96 on the signed
exact C(N, 1), between successive crests and between successive troughs,
and passes.  Adjacent peaks of |C| sit p/2 ~ 16 apart, because H_1 is a
sinusoid and H_1(N + p/2) = -H_1(N).
"""

import time
from itertools import islice

import mpmath as mp

from conftest import PREC, SWEEP_SECONDS
from radpfd.contour import (
    cauchy_oracle,
    constant_c,
    constant_c_euler_check,
    integral_approx_C,
    oracle_spec,
)
from radpfd.exact import coefficient_range, exact_coefficients
from radpfd.report import find_peaks
from radpfd.saddle import asymptotic_C, saddle_constants
from radpfd.specfun import dilog, polylog_jonquiere

TOL20 = mp.mpf("1e-20")


def _mpf(q, precision=PREC):
    with mp.workprec(precision + 32):
        return mp.mpf(q.numerator) / q.denominator


def _report(name, detail):
    print(f"[acceptance] {name}: {detail}")


# criterion 1: the constants suite


def test_c1_constants_round_to_known_digits(sd):
    checks = {
        "Re z0 ~ -1.61": abs(sd.z0.real + mp.mpf("1.61")) < mp.mpf("0.005"),
        "Im z0 ~ 7.42": abs(sd.z0.imag - mp.mpf("7.42")) < mp.mpf("0.005"),
        "a ~ 1.79": abs(sd.a - mp.mpf("1.79")) < mp.mpf("0.005"),
        "b ~ 1.07": abs(sd.b - mp.mpf("1.07")) < mp.mpf("0.005"),
        "p ~ 31.96 +- 0.05": abs(sd.p - mp.mpf("31.96")) < mp.mpf("0.05"),
        "alpha ~ 0.028": abs(sd.alpha - mp.mpf("0.028")) < mp.mpf("0.0005"),
        "b^p ~ 8.81 +- 0.02": abs(sd.b**sd.p - mp.mpf("8.81")) < mp.mpf("0.02"),
    }
    _report(
        "c1 constants",
        f"z0 = {mp.nstr(sd.z0, 10)}, a = {mp.nstr(sd.a, 6)}, b = {mp.nstr(sd.b, 8)}, "
        f"p = {mp.nstr(sd.p, 8)}, alpha = {mp.nstr(sd.alpha, 6)}, "
        f"b^p = {mp.nstr(sd.b**sd.p, 6)}",
    )
    failed = [name for name, ok in checks.items() if not ok]
    assert not failed, f"constants off target: {failed}"


def test_c1_runtime_under_one_second():
    start = time.monotonic()
    sd = saddle_constants(256)
    elapsed = time.monotonic() - start
    _report("c1 runtime", f"solve + constants at 256 bits took {elapsed:.3f} s")
    assert sd.precision == 256
    assert elapsed < 1.0


# criterion 2: oracle equivalence on the small range


def test_c2_oracle_agrees_with_exact_to_1e20():
    start = time.monotonic()
    worst = mp.mpf(0)
    count = 0
    for vec in coefficient_range(1, 30):
        ls = sorted({1, 2, min(vec.N, 4)} & set(range(1, vec.N + 1)))
        for l in ls:
            got = cauchy_oracle(l, vec.N, oracle_spec(vec.N)).value
            with mp.workprec(256):
                diff = abs(got - _mpf(vec.coeff(l)))
            worst = max(worst, diff)
            count += 1
            assert diff < TOL20, f"oracle mismatch at N = {vec.N}, l = {l}: {diff}"
    elapsed = time.monotonic() - start
    _report(
        "c2 oracle equivalence",
        f"{count} pairs, worst |exact - oracle| = {mp.nstr(worst, 3)}, "
        f"{elapsed:.1f} s",
    )
    assert elapsed < 60.0


# criterion 3: hand values and the top-coefficient identity


def test_c3_hand_values(small_vectors):
    from fractions import Fraction

    values = {
        (1, 1): Fraction(-1),
        (2, 1): Fraction(-1, 4),
        (2, 2): Fraction(1, 2),
    }
    for (N, l), want in values.items():
        assert small_vectors[N].coeff(l) == want
    _report("c3 hand values", "C(1,1) = -1, C(2,1) = -1/4, C(2,2) = 1/2 all match")


def test_c3_top_coefficient_identity(small_vectors):
    from fractions import Fraction
    from math import factorial

    for N in range(1, 31):
        want = Fraction((-1) ** N, factorial(N))
        assert small_vectors[N].coeff(N) == want
    _report("c3 top coefficient", "C(N, N) = (-1)^N / N! for N = 1..30")


# criterion 4: the exact-vs-asymptotic overlay on N = 100..150


def _figure_window(batch_vectors, sd, l=1):
    pairs = []
    for N in range(100, 151):
        exact = _mpf(batch_vectors[N].coeff(l))
        asym = asymptotic_C(l, N, sd)
        pairs.append((N, exact, asym))
    return pairs


def test_c4_sign_agreement_at_least_45_of_51(batch_vectors, sd):
    pairs = _figure_window(batch_vectors, sd)
    agree = sum(1 for _, e, a in pairs if mp.sign(e) == mp.sign(a))
    _report("c4 sign agreement", f"{agree}/51 values share their sign")
    assert agree >= 45


def test_c4_sup_deviation_within_15_percent_of_window_max(batch_vectors, sd):
    pairs = _figure_window(batch_vectors, sd)
    with mp.workprec(PREC):
        sup_dev = max(abs(e - a) for _, e, a in pairs)
        window_max = max(abs(e) for _, e, _ in pairs)
    _report(
        "c4 overlay deviation",
        f"sup |exact - asym| = {mp.nstr(sup_dev, 8)} vs "
        f"0.15 * max |exact| = {mp.nstr(mp.mpf('0.15') * window_max, 8)}",
    )
    assert sup_dev <= mp.mpf("0.15") * window_max


def test_c4_exact_sweep_runtime_within_ten_minutes(batch_vectors):
    elapsed = SWEEP_SECONDS["batch_vectors"]
    _report("c4 sweep runtime", f"exact sweep N = 80..150 took {elapsed:.1f} s")
    assert batch_vectors[150].N == 150
    assert elapsed < 600.0


# criterion 5: the divergence of the l = 1 coefficients


def _peak_series(batch_vectors, l=1):
    series = []
    with mp.workprec(PREC):
        for N in range(80, 151):
            series.append((N, abs(_mpf(batch_vectors[N].coeff(l)))))
    return series


def test_c5_peak_spacing_near_32(batch_vectors):
    # The period p = 31.96 of H_1 shows in the signed C(N, 1): crests and
    # troughs each repeat every p, while |C| peaks every p/2 ~ 16 because
    # H_1(N + p/2) = -H_1(N).  Over N = 1..150 the troughs sit at 18, 50,
    # 83, 115 and 147, 32-33 apart; at small N, |C| peaks only at these
    # troughs because the negative non-oscillating part of C(N, 1)
    # dominates there, not because of the N^{-2} prefactor.  Measured on
    # exact data alone, without the saddle model.
    signed = [(N, batch_vectors[N].coeff(1)) for N in range(80, 151)]
    crests = find_peaks(signed)
    troughs = find_peaks([(N, -c) for N, c in signed])
    spacings = [
        peaks[i + 1][0] - peaks[i][0]
        for peaks in (crests, troughs)
        for i in range(len(peaks) - 1)
    ]
    _report(
        "c5 peak spacing",
        f"crests at {[n for n, _ in crests]}, troughs at "
        f"{[n for n, _ in troughs]}, spacings {spacings} (claim: 32 +- 2)",
    )
    assert spacings, "need at least two peaks"
    assert all(30 <= s <= 34 for s in spacings)


def test_c5_peak_ratio_matches_per_period_factor(batch_vectors):
    # 8.81 is b^p, the N -> infinity limit of the per-period growth; this
    # window cannot show it.  Adjacent |C| peaks sit p/2 ~ 16 apart and
    # alternate between crests and troughs of C.  |H_1| has two equal
    # humps per period; the peaks are unequal, and the ratios erratic
    # (0.275, 8.85, 1.54, 2.90), because C minus the main term stays
    # between -0.375 and -0.168 here, more than the main term's amplitude
    # of 0.20-0.22 at N = 80-83.  Same-sign peaks one period apart give
    # 2.44 and 4.47 (troughs) and 13.6 (crests): the N^{-2} factor alone
    # contributes (N/(N+p))^2 = 0.52-0.61 per period.  Kept at its stated
    # threshold as an honest record; expected to fail.
    peaks = find_peaks(_peak_series(batch_vectors))
    with mp.workprec(PREC):
        ratios = [
            float(peaks[i + 1][1] / peaks[i][1]) for i in range(len(peaks) - 1)
        ]
    _report(
        "c5 peak ratios",
        f"successive ratios {[f'{r:.3f}' for r in ratios]} (claim: 8.81 +- 15%)",
    )
    assert ratios, "need at least two peaks"
    assert all(abs(r / 8.81 - 1) <= 0.15 for r in ratios)


def test_main_term_predicts_same_sign_peak_ratios(sd):
    # Between same-sign peaks of C(N, 1) one period apart, the main term
    # b^N N^{-2} H_1(N) predicts the ratio b^(N_b - N_a) (N_a/N_b)^2.  On
    # N = 80..260 the crests sit at 99, 131, ..., 259 and the troughs at
    # 83, 115, ..., 243.  From N_a = 179 on the observed ratios match within
    # 1% (-0.585%, +0.448%, -0.126%, +0.005% measured); the earlier pairs
    # are off by 1.9% to 170%, where the non-oscillating part of C(N, 1) is
    # a large share of every peak (see the c5 ratio test above).
    signed = [(vec.N, vec.coeff(1)) for vec in coefficient_range(80, 260)]
    pairs = []
    for sign in (1, -1):
        peaks = find_peaks([(N, sign * c) for N, c in signed])
        pairs += [(a, b) for a, b in zip(peaks, peaks[1:]) if a[0] >= 179]
    with mp.workprec(PREC):
        errors = {
            (na, nb): _mpf(cb / ca) / (sd.b ** (nb - na) * (mp.mpf(na) / nb) ** 2) - 1
            for (na, ca), (nb, cb) in pairs
        }
    _report(
        "main-term peak ratios",
        ", ".join(f"{a} -> {b}: {mp.nstr(100 * e, 3)}%" for (a, b), e in sorted(errors.items()))
        + " (claim: within 1%)",
    )
    assert sorted(errors) == [(179, 211), (195, 227), (211, 243), (227, 259)]
    assert all(abs(e) < mp.mpf("0.01") for e in errors.values())


def test_c5_late_window_max_exceeds_early_window_max(batch_vectors):
    series = dict(_peak_series(batch_vectors))
    early = max(series[N] for N in range(80, 111))
    late = max(series[N] for N in range(120, 151))
    _report(
        "c5 non-convergence",
        f"max |C| over 120..150 = {mp.nstr(late, 8)} > "
        f"max |C| over 80..110 = {mp.nstr(early, 8)}",
    )
    assert late > early


# criterion 6: the arc integral against exact values over N = 1..70


def test_c6_integral_error_decreases_from_20_to_60(mid_vectors):
    # The absolute error is a flat offset: integral - exact = -0.0108 at
    # N = 20 and -0.0107 at N = 60, between -0.0109 and -0.0097 over
    # N = 15..70.  The relative error is that offset over |C(N, 1)|
    # (0.3143 at N = 20, 0.2458 at N = 60, following the phase of H_1), so
    # it reads 3.4% vs 4.3% instead of shrinking with N.  The same holds
    # at 64, 128 or 256 nodes, so it is not node resolution.  Kept at its
    # stated form as an honest record; expected to fail.
    rels = {}
    for N in (20, 60):
        exact = _mpf(mid_vectors[N].coeff(1))
        with mp.workprec(PREC):
            rels[N] = abs(integral_approx_C(1, N, PREC) - exact) / abs(exact)
    _report(
        "c6 error trend",
        f"relative error {mp.nstr(rels[20], 4)} at N = 20, "
        f"{mp.nstr(rels[60], 4)} at N = 60 (claim: decreasing)",
    )
    assert rels[60] < rels[20]


def test_c6_integral_error_below_10_percent_at_60(mid_vectors):
    exact = _mpf(mid_vectors[60].coeff(1))
    with mp.workprec(PREC):
        rel = abs(integral_approx_C(1, 60, PREC) - exact) / abs(exact)
    _report("c6 error bound", f"relative error at N = 60 is {mp.nstr(rel, 4)}")
    assert rel < mp.mpf("0.1")


# criterion 7: the Euler-product constant


def test_c7_constant_c_to_five_decimals():
    c = constant_c(PREC)
    _report("c7 closed form", f"c = {mp.nstr(c, 10)}")
    assert abs(c - mp.mpf("0.11262")) < mp.mpf("0.5e-5")


def test_c7_quadrature_cross_check_within_a_tenth_of_a_percent():
    dev = constant_c_euler_check()
    _report("c7 cross-check", f"relative deviation = {mp.nstr(dev, 3)}")
    assert dev < mp.mpf("1e-3")


# criterion 8: special-function identities


def test_c8_polylog_zeta_representation_on_grid():
    grid_z = [
        mp.mpc(-1),
        mp.mpc(-2),
        mp.mpc(-1, 2),
        mp.mpc(-1, -2),
        mp.mpc(-0.5, 5),
    ]
    worst = mp.mpf(0)
    with mp.workprec(160):
        for s in range(2, 7):
            for z in grid_z:
                got = polylog_jonquiere(s, z, 128).value
                want = mp.polylog(1 - s, mp.exp(z))
                worst = max(worst, abs(got - want))
    _report("c8 polylog identity", f"worst residual on the 5x5 grid = {mp.nstr(worst, 3)}")
    assert worst < mp.mpf("1e-25")


def test_c8_dilog_reflection_on_100_random_points():
    # Li2(w) + Li2(1-w) = pi^2/6 - log(w) log(1-w), sampled inside the
    # lens where both arguments stay within the unit disk.
    rng = __import__("random").Random(42)
    worst = mp.mpf(0)
    tol = mp.mpf(2) ** (-(PREC - 16))
    with mp.workprec(PREC + 32):
        target = mp.pi**2 / 6
        count = 0
        while count < 100:
            w = mp.mpc(rng.uniform(0, 1), rng.uniform(-0.8, 0.8))
            if abs(w) > 1 or abs(1 - w) > 1 or w == 0 or w == 1:
                continue
            count += 1
            lhs = dilog(w, PREC).value + dilog(1 - w, PREC).value
            rhs = target - mp.log(w) * mp.log(1 - w)
            worst = max(worst, abs(lhs - rhs))
    _report(
        "c8 reflection identity",
        f"worst residual over 100 points = {mp.nstr(worst, 3)} (tol {mp.nstr(tol, 3)})",
    )
    assert worst < tol


# criterion 9: decreasing normalized residual envelope


def test_c9_normalized_residual_envelope_decreases(batch_vectors, sd):
    # |exact - asym| scaled by the main-term size b^N N^{-2}; the three
    # windows cover one oscillation period each.
    residual = {}
    with mp.workprec(PREC):
        for N in range(100, 151):
            exact = _mpf(batch_vectors[N].coeff(1))
            asym = asymptotic_C(1, N, sd)
            scale = sd.b**N / mp.mpf(N) ** 2
            residual[N] = abs(exact - asym) / scale
        windows = [range(100, 117), range(117, 134), range(134, 151)]
        maxima = [max(residual[N] for N in w) for w in windows]
    _report(
        "c9 residual envelope",
        "window maxima = " + ", ".join(mp.nstr(m, 8) for m in maxima),
    )
    assert maxima[0] > maxima[1] > maxima[2]
