"""The named verification suites: pass/fail contracts and report shape."""
from __future__ import annotations

import json

import pytest

from mallows.errors import DomainError, UnknownSuiteError
from mallows.qseries import QParam
from mallows.verify import SUITE_NAMES, run_suite

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
