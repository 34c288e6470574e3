"""q-series primitives against closed forms and enumeration."""
from __future__ import annotations

import gc
import math
import re
import weakref

import mpmath
import numpy as np
import pytest

import oracles
from mallows import qseries
from mallows.dist import FddQuery, displacement_pmf, fdd_probability, joint_rl_pmf
from mallows.errors import DomainError
from mallows.qseries import (
    CACHE_TABLES,
    EPS_SERIES,
    INFINITY,
    MAX_TABLE,
    QParam,
    _build_table,
    _doubled,
    _horizon,
    _log_table,
    _table_size,
    euler_table,
    log_table,
    pochhammer_table,
    q_factorial,
    q_pochhammer,
    truncation_error,
)
from mallows.samplers import batch_interlacing_windows
from mallows.streams import GeomStream
from oracles import poch

Q_GRID = (0.1, 0.3, 0.5, 0.7, 0.9)


def test_qparam_domain():
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(DomainError):
            QParam(bad)


@pytest.mark.parametrize("q", [0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95])
def test_horizon_is_the_first_state_within_budget(q):
    # q^k/(1-q) puts eps on the boundary, where a log estimate can land one
    # state past it
    for k in range(1, 60):
        for eps in (q**k / (1.0 - q), q**k, 2.0**-k, 10.0 ** -(k % 15 + 1)):
            x = _horizon(q, eps)
            assert x >= 0 and q ** (x + 1) / (1.0 - q) <= eps
            assert x == 0 or q**x / (1.0 - q) > eps, f"k={k} eps={eps!r}"


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
    # p's table depth grows like 1/(1-q): at q=0.999999 it would have 2^26
    # entries (refused, past MAX_TABLE), of which [6!]_q and <6>_q read 7
    depths = []

    def build(q, n_max):
        depths.append(n_max)
        return _build_table(q, n_max)

    monkeypatch.setattr(qseries, "_build_table", build)
    p = QParam(0.999999)
    assert q_factorial(6, p) == pytest.approx(720.0, rel=1e-4)
    assert 0.0 < q_pochhammer(6, p)[0] < 1e-30
    assert depths and max(depths) <= 6
    # the same floats as a read of q's full table
    for q in (1e-12, *Q_GRID, 0.999):
        for n in (0, 1, 2, 5, 6, 8, 40, 200):
            table = _build_table(q, _doubled(q, _table_size(q), n))
            assert q_pochhammer(n, QParam(q))[0] == table[n], f"q={q} n={n}"


def test_a_table_past_max_table_is_refused_before_it_is_built(monkeypatch):
    # at q=0.999999 the table would have 2^26 entries (1 GB, 3 s); q=0.99999
    # rounds to exactly MAX_TABLE = 2^22 and still builds
    sizes = []

    def build(q, n_max):
        sizes.append(n_max)
        return (1.0, 0.5)

    monkeypatch.setattr(qseries, "_build_table", build)
    assert pochhammer_table(QParam(0.99999)) == (1.0, 0.5) and set(sizes) == {MAX_TABLE}
    for q in (0.999999, 0.9999999):
        p = QParam(q)
        calls = [lambda: pochhammer_table(p), lambda: displacement_pmf(p, radius=0),
                 lambda: fdd_probability(p, FddQuery(1, (0,)), 1e-12),
                 lambda: joint_rl_pmf(p, 2, 1)]
        for call in calls:
            with pytest.raises(DomainError, match="MAX_TABLE"):
                call()
    with pytest.raises(DomainError, match="MAX_TABLE"):
        pochhammer_table(QParam(0.5), MAX_TABLE + 1)
    assert set(sizes) == {MAX_TABLE}


@pytest.mark.parametrize("fn", [q_pochhammer, q_factorial])
@pytest.mark.parametrize("n", [MAX_TABLE + 1, 10**7])
def test_a_finite_product_past_max_table_is_refused_before_its_table(fn, n):
    # refused before the n-entry table is listed and cached, not after
    built = _build_table.cache_info().currsize
    with pytest.raises(DomainError, match="MAX_TABLE"):
        fn(n, QParam(0.5))
    assert _build_table.cache_info().currsize == built


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
            assert table[n] <= table[n - 1], f"q={q} n={n}"
            if 1.0 - q**n < 1.0:  # factor still below 1 after rounding
                assert table[n] < table[n - 1], f"q={q} n={n}"


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
        with pytest.raises(DomainError, match="the value cannot be returned"):
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
            lhs += y**n / table[n]
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


def test_table_size_is_one_size_per_q():
    # q's size is the smallest power of two >= 64 covering the horizon at
    # EPS_SERIES, and a table is that size doubled until it covers n_max
    for q in (*Q_GRID, 0.99, 0.997):
        size, horizon = _table_size(q), _horizon(q, EPS_SERIES)
        assert size >= max(horizon, 64) and (size == 64 or size // 2 < horizon)
        assert size & (size - 1) == 0
        for n_max in (0, 1, 63, 64, 65, 1000, 70_000, 0, 5):
            want = size
            while want < n_max:
                want *= 2
            table = pochhammer_table(QParam(q), n_max)
            assert len(table) == want + 1, f"q={q} n_max={n_max}"
            assert table is pochhammer_table(QParam(q), n_max)
        assert len(pochhammer_table(QParam(q))) == size + 1


@pytest.mark.parametrize("q", [0.05, 0.3, 0.5, 0.8, 0.95, 0.99, 0.997, 0.9999])
def test_log_table_is_the_exact_sum_cached_read_only(q):
    # both samplers' part searches read this one table, at every q of the
    # kernel digest grid and near 1.  Entry j is math.fsum of its j terms
    # to within an ulp; a plain cumsum drifts by 1.2e-8 over the 299,321
    # terms at q = 0.9999 (eps_tv 1e-9)
    n = _table_size(q)
    neg, log_qpow = log_table(q, n)
    qpow = q ** np.arange(n + 1)
    terms = (-np.log1p(-qpow[1:])).tolist()
    for j in {n, *range(0, n, max(1, n // 40))}:
        want = math.fsum(terms[:j])
        assert abs(neg[j] - want) <= math.ulp(want), f"j={j}"
    assert np.array_equal(log_qpow, np.log(qpow))
    assert neg.dtype == log_qpow.dtype == np.float64 and neg.size == n + 1
    # every length reads the same values, from q's one table of the
    # smallest power-of-two size >= max(64, length)
    for m in (0, 1, 63, 64, 65, 1000, n - 1, n):
        size = max(64, 1 << (m - 1).bit_length())
        short, short_log = log_table(q, m)
        assert short.size == short_log.size == m + 1
        assert short.base is _log_table(q, size)[0] and short_log.base is _log_table(q, size)[1]
        k = min(m, n) + 1
        assert np.array_equal(short[:k], neg[:k]) and np.array_equal(short_log[:k], log_qpow[:k])
        assert np.array_equal(_log_table(q, size)[0], _log_table(q, 2 * size)[0][: size + 1])
        for a in (short, short_log, *_log_table(q, size)):
            assert not a.flags.writeable
    assert _log_table(q, n) is _log_table(q, n)


def test_equal_parameters_compare_and_hash_equal_with_their_own_memos():
    a, b = QParam(0.5), QParam(0.5)
    # a table leaves no memo entry; a series evaluated by dist does
    pochhammer_table(a)
    assert not a.memo
    fdd_probability(a, FddQuery(1, (0,)), 1e-12)
    assert a.memo and not b.memo
    assert a == b and hash(a) == hash(b)
    assert repr(a) == repr(b) == "QParam(q=0.5)"
    # the samplers' table is cached by q, so an equal parameter reads its entry
    assert euler_table(a.q)[0].base is euler_table(b.q)[0].base
    # the series tolerance is the package's one EPS_SERIES, not a field
    assert a.eps_series == QParam.eps_series == EPS_SERIES
    for args in ((0.5, 1e-6), (0.5, 1e-12, {})):
        with pytest.raises(TypeError):
            QParam(*args)
    with pytest.raises(TypeError):
        QParam(0.5, eps_series=1e-12)


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


@pytest.mark.parametrize("q", [0.5, 0.99, 0.9977, 0.998, 0.999, 0.9999])
def test_table_is_the_sequential_product(q):
    # the build stops multiplying once the product is 0.0; every entry,
    # the limit and its error must be what the full loop gives, at the
    # default size and at sizes 64 to 65,536
    sizes = [_table_size(q), *(2**j for j in range(6, 17))]
    for n_max in sizes:
        vals = [1.0]
        prod = 1.0
        for k in range(1, n_max + 1):
            prod *= 1.0 - q**k
            vals.append(prod)
        table = _build_table(q, n_max)
        assert table == tuple(vals), n_max
        assert table[-1] == prod
        assert truncation_error(q, table) == prod * q ** (n_max + 1) / (1.0 - q)


def test_infinite_product_near_one():
    assert _build_table(0.999, _table_size(0.999))[-1] == 0.0
    assert _build_table(0.9985, _table_size(0.9985))[-1] == 5e-324


#: the largest double q at which the laws and the interlacing sampler take
#: <inf>_q for a normal double, decided once on q's product table
Q_EDGE = 0.9976935014128776


def _inf_edge_calls(q):
    # fdd at d = 5000: at Q_EDGE a query near 0 runs on until a
    # denominator underflows
    p = QParam(q)
    return {
        "pochhammer_table": lambda: pochhammer_table(p),
        "q_pochhammer": lambda: q_pochhammer(INFINITY, p),
        "euler_table": lambda: euler_table(q),
        "joint_rl_pmf": lambda: joint_rl_pmf(p, 0, 0),
        "fdd_probability": lambda: fdd_probability(p, FddQuery(1, (5000,)), EPS_SERIES),
        "batch_interlacing_windows":
            lambda: batch_interlacing_windows(0, 2, p, GeomStream(0, q), 2),
    }


def test_laws_and_interlacing_refuse_from_the_same_q():
    for call in _inf_edge_calls(Q_EDGE).values():
        call()
    for call in _inf_edge_calls(math.nextafter(Q_EDGE, 1.0)).values():
        with pytest.raises(DomainError, match=r"<inf>_q = .* is not a normal double"):
            call()


@pytest.mark.parametrize("q, value", [
    (0.9976935014128777, 2.225073858455945e-308), (0.9978, 2.5e-323), (0.998, 0.0),
])
def test_every_inf_refusal_names_the_exact_value(q, value):
    # not the product table's subnormal tail (3.85e-322 and 1.5e-323 at
    # 0.9978 and 0.998).  At the first refused q, exp magnifies the last ulp
    # of a sum near 708: 2.2250738584561644e-308 is 9.9e-14 off, relative.
    # Deeper, 1e-12 relative is below half an ulp, so there the match is exact
    assert oracles.poch_inf(q) == value
    for name, call in _inf_edge_calls(q).items():
        with pytest.raises(DomainError) as exc:
            call()
        named = re.match(r"<inf>_q = (\S+) is not a normal double", str(exc.value))
        assert named and float(named.group(1)) == pytest.approx(value, rel=1e-12, abs=0.0), name


def test_table_caches_keep_at_most_cache_tables():
    # a laws pass and a sampler call at more distinct q than the bound: each
    # cache drops its least recently read tables instead of growing with q
    for i in range(CACHE_TABLES + 8):
        q = 0.9 + i / 1000
        displacement_pmf(QParam(q), 2)
        q_factorial(5, QParam(q))
        batch_interlacing_windows(0, 0, QParam(q), GeomStream(0, q), 1)
    for cache in (_build_table, _log_table, _table_size):
        info = cache.cache_info()
        assert info.maxsize == CACHE_TABLES and info.currsize <= CACHE_TABLES
