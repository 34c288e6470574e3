"""q-series primitives against closed forms and enumeration."""
from __future__ import annotations

import gc
import math
import weakref

import mpmath
import numpy as np
import pytest

import oracles
from mallows import qseries
from mallows.dist import FddQuery, displacement_pmf, fdd_probability
from mallows.errors import DomainError
from mallows.qseries import (
    INFINITY,
    QParam,
    _build_table,
    _table_size,
    pochhammer_table,
    q_factorial,
    q_pochhammer,
)
from mallows.samplers import _part_search, batch_interlacing_windows
from mallows.streams import GeomStream
from oracles import poch

Q_GRID = (0.1, 0.3, 0.5, 0.7, 0.9)


def test_qparam_domain():
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(DomainError):
            QParam(bad)
    for bad in (0.0, -1e-12, float("nan"), float("inf")):
        with pytest.raises(DomainError):
            QParam(0.5, eps_series=bad)


def test_q_factorial_examples():
    p = QParam(0.5)
    assert q_factorial(0, p) == 1.0
    assert q_factorial(1, p) == 1.0
    assert q_factorial(3, p) == pytest.approx(2.625, abs=1e-15)


def test_q_factorial_product_form():
    for q in Q_GRID:
        p = QParam(q)
        want = 1.0
        for n in range(1, 25):
            want *= (1.0 - q**n) / (1.0 - q)
            assert q_factorial(n, p) == pytest.approx(want, rel=1e-12)


def test_finite_products_take_n_factors(monkeypatch):
    # p's table depth grows like 1/(1-q): at q=0.999999 it has 2^21 entries,
    # of which [6!]_q and <6>_q read 7
    depths = []

    def build(q, n_max):
        depths.append(n_max)
        return _build_table(q, n_max)

    monkeypatch.setattr(qseries, "_build_table", build)
    p = QParam(0.999999)
    assert q_factorial(6, p) == pytest.approx(720.0, rel=1e-4)
    assert 0.0 < q_pochhammer(6, p)[0] < 1e-30
    assert depths and max(depths) <= 6
    # the same floats as a read of p's full table
    for q in (1e-12, *Q_GRID, 0.999):
        p = QParam(q)
        for n in (0, 1, 2, 5, 6, 8, 40, 200):
            assert q_pochhammer(n, p)[0] == pochhammer_table(p, n).value(n), f"q={q} n={n}"


def test_pochhammer_finite_matches_direct_product():
    # the bound must contain a 256-bit product over the same double q
    sizes = set(range(41)) | {200, 1000}
    for q in sorted(set(Q_GRID) | {0.05, 0.8, 0.95, 0.99}):
        p = QParam(q)
        with mpmath.workprec(256):
            exact = [mpmath.mpf(1)]
            for k in range(1, max(sizes) + 1):
                exact.append(exact[-1] * (1 - mpmath.mpf(q) ** k))
            for n in sorted(sizes):
                value, err = q_pochhammer(n, p)
                assert abs(mpmath.mpf(value) - exact[n]) <= err, f"q={q} n={n}"
                assert err <= 1e-12 * value, f"q={q} n={n}: bound {err} is loose"
                if n < 40:
                    assert value == pytest.approx(poch(q, n), rel=1e-13), f"q={q} n={n}"
    assert q_pochhammer(0, QParam(0.5)) == (1.0, 0.0)


def test_pochhammer_monotone_decreasing():
    for q in Q_GRID:
        table = pochhammer_table(QParam(q), 40)
        for n in range(1, 41):
            assert table.value(n) <= table.value(n - 1), f"q={q} n={n}"
            if 1.0 - q**n < 1.0:  # factor still below 1 after rounding
                assert table.value(n) < table.value(n - 1), f"q={q} n={n}"


def test_pochhammer_infinite_certificate():
    for q in Q_GRID:
        p = QParam(q)
        value, err = q_pochhammer(INFINITY, p)
        assert err > 0.0
        reference = poch(q, 4000)
        assert abs(value - reference) <= err + 1e-15, f"q={q}"


@pytest.mark.parametrize("q", [1e-12, 0.05, 0.5, 0.9, 0.99, 0.995, 0.997])
def test_pochhammer_infinite_bound_counts_rounding(q):
    # the truth at 200 bits for the same double q: mpmath.qp below 0.99,
    # where it is quick, and the log sum of tests/oracles.py above
    value, err = q_pochhammer(INFINITY, QParam(q))
    with mpmath.workprec(200):
        truth = mpmath.qp(mpmath.mpf(q)) if q < 0.99 else oracles.poch_inf_log(q)
        assert abs(mpmath.mpf(value) - truth) <= err
    assert err <= 1e-9 * value


def test_pochhammer_infinite_known_constant():
    value, _ = q_pochhammer(INFINITY, QParam(0.5))
    assert value == pytest.approx(0.2887880950866, abs=1e-12)


def test_pochhammer_infinite_refuses_subnormal_value():
    # <inf>_q is about e^-822 at q=0.998: no normal double, no honest bound
    for q in (0.998, 0.999):
        with pytest.raises(DomainError):
            q_pochhammer(INFINITY, QParam(q))
        # the table itself still serves finite products there
        assert q_factorial(6, QParam(q)) > 0.0
    value, err = q_pochhammer(INFINITY, QParam(0.997))
    assert value > 0.0 and err > 0.0


def test_euler_series_identity():
    # sum_n y^n / <n>_q  ==  prod_m 1/(1 - y q^m)   at y = q
    for q in Q_GRID:
        p = QParam(q)
        table = pochhammer_table(p, 400)
        y = q
        lhs = 0.0
        for n in range(400):
            lhs += y**n / table.value(n)
        rhs = 1.0
        for m in range(2000):
            rhs /= 1.0 - y * q**m
            if y * q**m < 1e-300:
                break
        assert lhs == pytest.approx(rhs, rel=1e-10), f"q={q}"


def test_q_pochhammer_rejects_negative():
    with pytest.raises(DomainError):
        q_pochhammer(-1, QParam(0.5))


P5 = QParam(0.5)
#: the functions that take a count: an order, a factorial's n or a radius
COUNTED = {
    "q_pochhammer": lambda n: q_pochhammer(n, P5),
    "q_factorial": lambda n: q_factorial(n, P5),
    "displacement_pmf": lambda n: displacement_pmf(P5, n),
}


@pytest.mark.parametrize("fn", COUNTED)
@pytest.mark.parametrize("n", [2.5, 2.0, np.float64(2.0), math.nan, -math.inf, "2"])
def test_a_count_that_is_not_an_integer_is_refused(fn, n):
    # a float is refused, even 2.0: rounding it would certify another count
    with pytest.raises(DomainError, match="must be integers"):
        COUNTED[fn](n)


def test_integer_counts_of_any_type_are_the_same_count():
    for fn in COUNTED.values():
        for n in (np.int64(3), np.int32(3), np.uint8(3)):
            assert fn(n) == fn(3)
    assert q_pochhammer(np.float64(INFINITY), P5) == q_pochhammer(INFINITY, P5)


def test_table_size_is_rounded_once_per_parameter():
    # the size kept in the memo gives the table the one formula gives: the
    # smallest power of two >= 64 covering _table_size(p) and n_max
    for q in (*Q_GRID, 0.99, 0.997):
        p = QParam(q)
        for n_max in (0, 1, 63, 64, 65, 1000, 70_000, 0, 5):
            need = max(_table_size(p), n_max, 64)
            size = 64
            while size < need:
                size *= 2
            table = pochhammer_table(p, n_max)
            assert len(table.values) == size + 1, f"q={q} n_max={n_max}"
            assert table is pochhammer_table(QParam(q), n_max)
        assert p.memo["table_size"] == len(pochhammer_table(p).values) - 1


def test_equal_parameters_compare_and_hash_equal_with_their_own_memos():
    a, b = QParam(0.5), QParam(0.5)
    pochhammer_table(a)
    assert a.memo and not b.memo
    assert a == b and hash(a) == hash(b)
    assert repr(a) == repr(b) == "QParam(q=0.5, eps_series=1e-12)"
    # samplers._part_search's cache finds an equal parameter's entry
    assert _part_search(a) is _part_search(b)
    assert a != QParam(0.5, eps_series=1e-6)
    with pytest.raises(TypeError):
        QParam(0.5, 1e-12, {})


def test_a_parameter_is_freed_after_sampling_and_series():
    # a q no other test uses, so no equal parameter is cached already
    p = QParam(0.5123)
    batch_interlacing_windows(0, 0, p, GeomStream(0, 0.5123), 1)
    for d in [(0,), (-1, 2), (1, -1, 2)]:
        fdd_probability(p, FddQuery(len(d), d), 1e-12)
    ref = weakref.ref(p)
    del p
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("q", [0.5, 0.99, 0.9977, 0.998, 0.999])
def test_table_is_the_sequential_product(q):
    # the build stops multiplying once the product is 0.0; every entry,
    # the limit and its error must be what the full loop gives
    n_max = len(pochhammer_table(QParam(q)).values) - 1
    vals = [1.0]
    prod = 1.0
    for k in range(1, n_max + 1):
        prod *= 1.0 - q**k
        vals.append(prod)
    table = _build_table(q, n_max)
    assert table.values == tuple(vals)
    assert table.infinite_value == prod
    assert table.infinite_error == prod * q ** (n_max + 1) / (1.0 - q)


def test_infinite_product_near_one():
    assert pochhammer_table(QParam(0.999)).infinite_value == 0.0
    assert pochhammer_table(QParam(0.9985)).infinite_value == 5e-324
