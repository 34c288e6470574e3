"""Acceptance gate: ten numbered criteria, one printed verdict line each.

Criterion 4 pins the window-mean of the left inversion count to q/(1+q).
The implemented joint law has E[L] = q/(1-q) (the left-count marginal is
geometric with ratio q, mirroring the right count), so criterion 4 fails:
the closed-form sum and the Monte Carlo mean agree with each other and
with q/(1-q), not with the pinned constant.  q/(1+q) is the density of
adjacent descents, a different statistic.  The criterion is kept exactly
as stated rather than silently rewritten; see README.
"""
from __future__ import annotations

import math
import time
from itertools import permutations

import numpy as np
import pytest

import oracles
from oracles import finite_code_to_r
from mallows.dist import FddQuery, displacement_pmf, fdd_probability, joint_rl_pmf
from mallows.oracle import oracle_enumerate
from mallows.perm import (
    adjacent_swap_r,
    eliminate_left,
    eliminate_right,
    inversions,
)
from mallows.qseries import QParam
from mallows.samplers import (
    batch_finite_r,
    batch_interlacing_windows,
    batch_inversion_position0,
    finite_r_codes,
)
from mallows.streams import GeomStream
from mallows.verify import chi_square_case, ks_case, tv_distance_counts

MASTER_SEED = 1729
P5 = QParam(0.5)
Q_GRID = (0.3, 0.5, 0.8)
POOL_SIZE = 1_000_000
KS_SIZE = 100_000
TRUNC_SIZE = 20_000


def report(capsys, num: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def root():
    return GeomStream(seed=MASTER_SEED, q=0.5)


@pytest.fixture(scope="module")
def interlace_pool(root):
    # exact two-sided windows on [0..2]; shared by criteria 5, 6, 9
    return batch_interlacing_windows(0, 2, P5, root.spawn("interlace"), POOL_SIZE)


@pytest.fixture(scope="module")
def inversion_pool(root):
    # (displacement, left count) at position 0; shared by criteria 4, 5
    return batch_inversion_position0(P5, root.spawn("inversion"), POOL_SIZE, 1e-6)


# --------------------------------------------------------------------------
# 1. finite oracle equivalence
# --------------------------------------------------------------------------

def test_criterion_1_finite_oracle_equivalence(capsys):
    t0 = time.perf_counter()
    draws = 200_000
    ok = True
    worst = 0.0
    for q in Q_GRID:
        p = QParam(q)
        base = GeomStream(seed=MASTER_SEED, q=q)
        for n in (3, 4, 5, 6):
            mat = batch_finite_r(n, p, base.spawn(f"finite-n{n}"), draws)
            codes = np.asarray(finite_r_codes(mat))
            cells = math.factorial(n)
            counts = np.bincount(codes, minlength=cells).astype(float)
            pmf = oracle_enumerate(n, p)
            probs = np.empty(cells)
            for code in range(cells):
                word = eliminate_right(finite_code_to_r(code, n)).values
                probs[code] = pmf.prob("".join(str(v) for v in word))
            case = chi_square_case(f"n{n}-q{q}", counts, probs, alpha=1e-3)
            ok = ok and case.passed
            worst = max(worst, case.statistic / case.threshold)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    report(capsys, 1, ok,
           f"12 chi-square cells, worst stat/threshold {worst:.3f}, "
           f"runtime {elapsed:.1f}s (< 60s)")


# --------------------------------------------------------------------------
# 2. codec round trips
# --------------------------------------------------------------------------

def test_criterion_2_codec_round_trips(capsys):
    ok = True
    checked = 0
    for n in range(1, 8):
        for sigma in permutations(range(1, n + 1)):
            r, ell = oracles.pair_counts(sigma)
            total = inversions(sigma)
            good = (
                eliminate_right(r).values == sigma
                and eliminate_left(ell).values == sigma
                and sum(r) == total
                and sum(ell) == total
            )
            ok = ok and good
            checked += 1
    report(capsys, 2, ok, f"{checked} permutations round-tripped (n <= 7)")


# --------------------------------------------------------------------------
# 3. displacement pmf constants
# --------------------------------------------------------------------------

def test_criterion_3_displacement_constants(capsys):
    radius = 10
    pmf = displacement_pmf(P5, radius=radius)
    symmetric = all(pmf.prob(d) == pmf.prob(-d) for d in range(1, radius + 1))
    gap = 1.0 - sum(pmf.prob(d) for d in range(-radius, radius + 1))
    gap_ok = 0.0 <= gap <= 2.0 * 0.5**radius
    want_d0 = oracles.displacement_diag_sum(0.5, 0, terms=61)  # r = ell <= 60
    d0_diff = abs(pmf.prob(0) - want_d0)
    ok = symmetric and gap_ok and d0_diff <= 1e-9
    report(capsys, 3, ok,
           f"symmetry exact={symmetric}, gap {gap:.3e} <= {2.0 * 0.5**radius:.3e}, "
           f"|P(D=0) - diagonal sum| = {d0_diff:.2e}")


# --------------------------------------------------------------------------
# 4. pinned window-mean constant  (known red; see module docstring)
# --------------------------------------------------------------------------

def test_criterion_4_left_count_mean_constant(capsys, inversion_pool):
    series_ok = True
    series_detail = []
    for q in Q_GRID:
        p = QParam(q)
        total = sum(
            ell * joint_rl_pmf(p, r, ell)
            for r in range(0, 200)
            for ell in range(0, 200)
        )
        pinned = q / (1 + q)
        series_detail.append(f"q={q}: sum={total:.9f} pinned={pinned:.9f}")
        series_ok = series_ok and abs(total - pinned) <= 1e-9

    _, ell0 = inversion_pool
    mean = float(ell0.mean())
    se = float(ell0.std(ddof=1)) / math.sqrt(len(ell0))
    z = (mean - 0.5 / 1.5) / se
    mc_ok = abs(z) <= 3.0
    ok = series_ok and mc_ok
    report(capsys, 4, ok,
           f"{'; '.join(series_detail)}; MC mean {mean:.5f}, z vs q/(1+q) = {z:.1f} "
           f"(the computed mean is q/(1-q) on both routes)")


# --------------------------------------------------------------------------
# 5. two-sampler agreement
# --------------------------------------------------------------------------

def test_criterion_5_two_sampler_agreement(capsys, interlace_pool, inversion_pool):
    d_interlace = interlace_pool[:, 0].astype(np.int64)
    d_inversion = inversion_pool[0].astype(np.int64)
    tv = tv_distance_counts(d_interlace, d_inversion)
    ok = tv < 0.01
    report(capsys, 5, ok, f"TV(interlacing, inversion) = {tv:.5f} < 0.01 "
                          f"at {POOL_SIZE} samples")


# --------------------------------------------------------------------------
# 6. sampler vs closed forms
# --------------------------------------------------------------------------

def test_criterion_6_sampler_vs_formula(capsys, interlace_pool):
    n = len(interlace_pool)
    d0 = interlace_pool[:, 0]
    pmf = displacement_pmf(P5, radius=10)
    worst_bin = 0.0
    for d in range(-8, 9):
        p_d = pmf.prob(d)
        obs = int((d0 == d).sum())
        z = (obs - n * p_d) / math.sqrt(n * p_d * (1 - p_d))
        worst_bin = max(worst_bin, abs(z))
    bins_ok = worst_bin <= 3.0

    fdd_zs = []
    for dvec in [(0, 0), (-1, 1)]:
        val, _ = fdd_probability(P5, FddQuery(2, dvec), 1e-12)
        hits = int(
            ((interlace_pool[:, 1] == 1 + dvec[0])
             & (interlace_pool[:, 2] == 2 + dvec[1])).sum()
        )
        fdd_zs.append((hits - n * val) / math.sqrt(n * val * (1 - val)))
    fdd_ok = all(abs(z) <= 3.0 for z in fdd_zs)
    ok = bins_ok and fdd_ok
    report(capsys, 6, ok,
           f"worst displacement bin |z| = {worst_bin:.2f}, "
           f"fdd z = {fdd_zs[0]:.2f} / {fdd_zs[1]:.2f} (all <= 3)")


# --------------------------------------------------------------------------
# 7. exchangeability (deterministic)
# --------------------------------------------------------------------------

def test_criterion_7_exchangeability(capsys):
    q = 0.5
    ratio_ok = True
    for a in range(13):
        for b in range(13):
            na, nb = adjacent_swap_r(a, b)
            want = q if a <= b else 1.0 / q
            got = q ** (na + nb) / q ** (a + b)
            ratio_ok = ratio_ok and abs(got - want) <= 1e-12

    oracle_ok = True
    for qq in (0.5, 0.8):
        for n in range(2, 7):
            pmf = oracle_enumerate(n, QParam(qq))
            for sigma in permutations(range(1, n + 1)):
                key = "".join(str(v) for v in sigma)
                for i in range(n - 1):
                    swapped = list(sigma)
                    swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
                    skey = "".join(str(v) for v in swapped)
                    want = qq if sigma[i] < sigma[i + 1] else 1.0 / qq
                    got = pmf.prob(skey) / pmf.prob(key)
                    oracle_ok = oracle_ok and abs(got / want - 1.0) <= 1e-12
    ok = ratio_ok and oracle_ok
    report(capsys, 7, ok,
           f"swap-ratio identity (pairs <= 12): {ratio_ok}; "
           f"oracle pmf ratios (n <= 6): {oracle_ok}")


# --------------------------------------------------------------------------
# 8. stationarity and inversion invariance
# --------------------------------------------------------------------------

def test_criterion_8_stationarity_and_inversion(capsys, root):
    d0 = batch_interlacing_windows(0, 0, P5, root.spawn("ks-d0"), KS_SIZE)[:, 0]
    d5 = batch_interlacing_windows(5, 5, P5, root.spawn("ks-d5"), KS_SIZE)[:, 0] - 5
    stat_case = ks_case("d0-vs-d5", d0, d5, alpha=0.01)

    wa = batch_interlacing_windows(-3, 3, P5, root.spawn("ks-inv-a"), KS_SIZE)
    wb = batch_interlacing_windows(-3, 3, P5, root.spawn("ks-inv-b"), KS_SIZE)
    mask_a = (wa.min(axis=1) == -3) & (wa.max(axis=1) == 3)
    mask_b = (wb.min(axis=1) == -3) & (wb.max(axis=1) == 3)
    sigma0 = wa[mask_a][:, 3]  # sigma(0) on self-contained windows
    inverse0 = -3 + np.argmax(wb[mask_b] == 0, axis=1)  # sigma^-1(0)
    inv_case = ks_case("sigma-vs-inverse", sigma0, inverse0, alpha=0.01)

    ok = stat_case.passed and inv_case.passed
    report(capsys, 8, ok,
           f"KS d0-vs-d5 {stat_case.statistic:.5f} <= {stat_case.threshold:.5f}; "
           f"KS sigma-vs-inverse {inv_case.statistic:.5f} <= {inv_case.threshold:.5f}")


# --------------------------------------------------------------------------
# 9. tail exponent
# --------------------------------------------------------------------------

def test_criterion_9_tail_exponent(capsys, interlace_pool):
    absd = np.abs(interlace_pool[:, 0])
    ms = np.arange(1, 9)
    counts = np.array([(absd > m).sum() for m in ms], dtype=float)
    slope = float(np.polyfit(ms, np.log(counts), 1)[0])
    rel_err = abs(slope - math.log(0.5)) / abs(math.log(0.5))
    ok = rel_err <= 0.15
    report(capsys, 9, ok,
           f"fitted slope {slope:.4f} vs log q {math.log(0.5):.4f} "
           f"(rel err {rel_err:.3f} <= 0.15)")


# --------------------------------------------------------------------------
# 10. truncation convergence
# --------------------------------------------------------------------------

def test_criterion_10_truncation_convergence(capsys, root):
    pool = batch_interlacing_windows(-40, 40, P5, root.spawn("trunc"), TRUNC_SIZE)
    center = pool[:, 40]
    fracs = []
    for n in (5, 10, 20, 40):
        sub = pool[:, 40 - n : 40 + n + 1]
        rank = (sub < center[:, None]).sum(axis=1)
        fracs.append(float(((-n + rank) != center).mean()))
    monotone = all(fracs[i] >= fracs[i + 1] for i in range(len(fracs) - 1))
    ok = monotone and fracs[-1] < 0.01
    report(capsys, 10, ok,
           "mismatch fractions " + ", ".join(f"{f:.4f}" for f in fracs)
           + f" (nonincreasing={monotone}, n=40 value < 0.01)")
