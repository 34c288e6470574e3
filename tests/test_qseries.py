"""q-series primitives against closed forms and enumeration."""
from __future__ import annotations

import math

import pytest

from mallows.errors import DomainError
from mallows.qseries import (
    INFINITY,
    QParam,
    pochhammer_table,
    q_binomial,
    q_factorial,
    q_number,
    q_pochhammer,
)
from oracles import partitions_by_size, poch

Q_GRID = (0.1, 0.3, 0.5, 0.7, 0.9)


def test_qparam_domain():
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(DomainError):
            QParam(bad)
    with pytest.raises(DomainError):
        QParam(0.5, eps_series=0.0)


def test_q_number_examples():
    p = QParam(0.5)
    assert q_number(0, p) == 0.0
    assert q_number(1, p) == 1.0
    assert q_number(3, p) == 1.75


def test_q_number_closed_form():
    for q in Q_GRID:
        p = QParam(q)
        for m in range(31):
            want = (1.0 - q**m) / (1.0 - q)
            got = q_number(m, p)
            assert got == pytest.approx(want, abs=1e-12), f"q={q} m={m}"


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


def test_pochhammer_finite_matches_direct_product():
    for q in Q_GRID:
        p = QParam(q)
        for n in range(0, 40):
            value, err = q_pochhammer(n, p)
            assert err == 0.0
            assert value == pytest.approx(poch(q, n), rel=1e-13), f"q={q} n={n}"


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


def test_pochhammer_infinite_known_constant():
    value, _ = q_pochhammer(INFINITY, QParam(0.5))
    assert value == pytest.approx(0.2887880950866, abs=1e-12)


def test_q_binomial_symmetry():
    p = QParam(0.37)
    for a in range(21):
        for b in range(21):
            assert q_binomial(b, a, p) == q_binomial(a, b, p)


def test_q_binomial_box_enumeration():
    # Gaussian binomial = sum of q^|lam| over diagrams inside a b x a box
    for q in (0.3, 0.5, 0.8):
        p = QParam(q)
        diagrams = partitions_by_size(36)
        for a in range(7):
            for b in range(7):
                want = sum(
                    q ** sum(lam)
                    for lam in diagrams
                    if len(lam) <= b and (not lam or lam[0] <= a)
                )
                got = q_binomial(b, a, p)
                assert got == pytest.approx(want, rel=1e-12), f"q={q} a={a} b={b}"


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
    with pytest.raises(DomainError):
        q_binomial(-1, 2, QParam(0.5))
