"""The named verification suites: pass/fail contracts and report shape."""
from __future__ import annotations

import itertools
import json

import numpy as np
import pytest

from mallows import GeomStream
from mallows.dist import FddQuery, fdd_probability
from mallows.errors import DomainError, UnknownSuiteError
from mallows.qseries import QParam
from mallows.samplers import batch_interlacing_windows, batch_inversion_windows
from mallows.verify import SUITE_NAMES, chi_square_case, ks_case, run_suite

P5 = QParam(0.5)
SEED = 1

# sizes trimmed for test runtime; thresholds adapt to the sample counts
SIZES = {
    "finite-oracle": (30_000,),
    "displacement": (40_000,),
    "stationarity": (20_000,),
    "inversion-invariance": (20_000,),
    "exchangeability": (),
    "two-sampler": (250_000,),
    "truncation-convergence": (4_000,),
    "lln": (20_000,),
    "one-sided-left-counts": (20_000,),
}


def test_suite_registry():
    assert SUITE_NAMES == tuple(sorted(SUITE_NAMES))
    assert set(SIZES) == set(SUITE_NAMES)


@pytest.mark.parametrize("name", [n for n in sorted(SIZES) if n != "lln"])
def test_suite_passes(name):
    report = run_suite(name, SIZES[name], P5, seed=SEED)
    failing = [c.name for c in report.cases if not c.passed]
    assert report.overall_pass, f"{name}: failing cases {failing}"


def test_lln_suite_fails_by_construction():
    # the pinned constant q/(1+q) is the adjacent-descent density, not the
    # mean left count (which is q/(1-q)); the suite documents the gap
    report = run_suite("lln", SIZES["lln"], P5, seed=SEED)
    assert not report.overall_pass
    (case,) = report.cases
    assert case.name == "mean-ell-vs-q-over-1plusq"
    assert not case.passed
    assert case.statistic > case.threshold


def test_unknown_suite_rejected():
    with pytest.raises(UnknownSuiteError):
        run_suite("no-such-suite", (), P5, seed=0)


@pytest.mark.parametrize("name", SUITE_NAMES)
@pytest.mark.parametrize("sizes", [(0,), (-1,), (1000, 0)])
def test_sizes_below_one_rejected(name, sizes):
    # a suite of zero draws would pass having checked nothing
    with pytest.raises(DomainError):
        run_suite(name, sizes, P5, seed=0)


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_more_than_one_size_rejected(name):
    # every suite reads one count; a second one would be dropped unread
    with pytest.raises(DomainError):
        run_suite(name, (2000, 5), P5, seed=0)


def test_exchangeability_takes_no_count():
    # the suite draws nothing, so a count would be accepted and ignored
    with pytest.raises(DomainError):
        run_suite("exchangeability", (5,), P5, seed=0)


@pytest.mark.parametrize(
    "name, q, sizes, seed",
    [
        # no self-contained [-3..3] row is drawn, so both KS samples are empty
        ("inversion-invariance", 0.8, (3000,), 1),
        ("inversion-invariance", 0.9, (), 7),
        # one draw pools into one chi-square group, whose statistic is 0
        ("displacement", 0.5, (1,), 0),
        ("finite-oracle", 0.5, (1,), 0),
        ("one-sided-left-counts", 0.9, (2,), 0),
        # the standard error is 0, or has no second draw to come from
        ("lln", 0.05, (2,), 2),
        ("lln", 0.05, (2,), 5),
        ("lln", 0.5, (1,), 0),
    ],
)
def test_a_case_that_cannot_test_is_refused(name, q, sizes, seed):
    with pytest.raises(DomainError):
        run_suite(name, sizes, QParam(q), seed=seed)


def test_statistic_helpers_refuse_what_they_cannot_test():
    with pytest.raises(DomainError):
        ks_case("empty", np.array([], dtype=np.int64), np.array([0, 1]))
    with pytest.raises(DomainError):
        ks_case("empty", np.array([0, 1]), np.array([], dtype=np.int64))
    probs = np.array([0.25, 0.25, 0.5])
    with pytest.raises(DomainError):
        chi_square_case("one-group", np.array([3.0, 2.0, 4.0]), probs)  # 9 draws: 1 group
    with pytest.raises(DomainError):
        chi_square_case("no-draws", np.zeros(3), probs)
    case = chi_square_case("two-groups", np.array([3.0, 2.0, 5.0]), probs)
    assert case.samples_used == 10 and case.passed  # df = 1 at exactly 2 groups


BOX = 3  # the window law is binned on [-BOX, BOX]^3 plus one outside cell


def _window_cells(values: np.ndarray) -> np.ndarray:
    d = values - np.arange(1, 4)
    inside = np.all(np.abs(d) <= BOX, axis=1)
    side = 2 * BOX + 1
    cells = ((d[:, 0] + BOX) * side + d[:, 1] + BOX) * side + d[:, 2] + BOX
    return np.bincount(np.where(inside, cells, side**3), minlength=side**3 + 1)


@pytest.mark.parametrize("q", [0.3, 0.5, 0.8])
@pytest.mark.parametrize("sampler", ["interlacing", "inversion"])
def test_window_law_matches_fdd_probability(sampler, q):
    # both kernels' joint law of (sigma(1), sigma(2), sigma(3)) against the
    # k=3 series; at q=0.5 windows drawn at q=0.52 fail this test
    p, s, draws = QParam(q), GeomStream(7, q), 50_000
    if sampler == "interlacing":
        values = batch_interlacing_windows(1, 3, p, s, draws)
    else:
        values, _ = batch_inversion_windows(1, 3, p, s, draws, 1e-9)
    box = itertools.product(range(-BOX, BOX + 1), repeat=3)
    core = [fdd_probability(p, FddQuery(3, d), 1e-12)[0] for d in box]
    probs = np.asarray([*core, max(1.0 - sum(core), 0.0)])
    case = chi_square_case(f"window-{sampler}-q{q}", _window_cells(values).astype(float), probs)
    assert case.passed, case


def test_reports_are_deterministic():
    a = run_suite("displacement", (20_000,), P5, seed=7)
    b = run_suite("displacement", (20_000,), P5, seed=7)
    assert a.to_json() == b.to_json()
    c = run_suite("displacement", (20_000,), P5, seed=8)
    assert c.to_json() != a.to_json()


def test_cases_sorted_by_name():
    report = run_suite("finite-oracle", (5_000,), P5, seed=SEED)
    names = [c.name for c in report.cases]
    assert names == sorted(names)
    assert names == ["chi-square-n3", "chi-square-n4", "chi-square-n5"]


def test_report_json_shape():
    report = run_suite("one-sided-left-counts", (10_000,), P5, seed=SEED)
    blob = report.to_json()
    assert set(blob) == {"suite", "cases", "overall_pass", "seed", "q"}
    assert blob["suite"] == "one-sided-left-counts"
    assert blob["seed"] == SEED
    assert blob["q"] == 0.5
    for case in blob["cases"]:
        assert set(case) == {"name", "statistic", "threshold", "pass", "samples_used"}
        assert case["samples_used"] > 0
    json.dumps(blob)  # must be serializable as-is


def test_exchangeability_is_exact():
    # swap identities hold to float round-off, with no sampling at all
    report = run_suite("exchangeability", (), P5, seed=SEED)
    for case in report.cases:
        assert case.statistic <= 1e-12, case.name
        assert case.samples_used == 0
