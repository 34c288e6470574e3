"""Windows, inversion-count codecs, rebuild, and the window validator."""
from __future__ import annotations

import json
import math
import random
from itertools import permutations

import pytest

from mallows.errors import (
    DomainError,
    NotCertifiedError,
    NotInjectiveError,
    NotSelfContainedError,
    RejectSupportError,
)
from mallows.perm import (
    InversionCounts,
    PermWindow,
    VERDICT_CONSISTENT,
    VERDICT_SUSPECT,
    _chain_horizon,
    adjacent_swap_r,
    eliminate_left,
    eliminate_right,
    inversion_counts_window,
    inversions,
    invert_window,
    rebuild_sigma,
    reconstruct_ell,
    truncate,
    validate_r_window,
    window_balance,
)
from mallows.qseries import QParam
from mallows.streams import GeomStream

P5 = QParam(0.5)


def window_of(values, lo=1):
    return PermWindow(lo=lo, hi=lo + len(values) - 1, values=tuple(values))


# --------------------------------------------------------------------------
# PermWindow basics
# --------------------------------------------------------------------------

def test_window_validation():
    with pytest.raises(ValueError):
        PermWindow(lo=0, hi=2, values=(1, 2))  # width mismatch
    with pytest.raises(ValueError):
        PermWindow(lo=0, hi=2, values=(1, 1, 2))  # duplicate
    w = PermWindow(lo=-1, hi=1, values=(0, -1, 1))
    assert w.width == 3
    assert w.value_at(0) == -1
    assert w.self_contained


def test_window_json_round_trip():
    w = PermWindow(lo=-2, hi=1, values=(3, -2, 0, -1))
    blob = w.to_json()
    assert json.loads(json.dumps(blob)) == blob
    assert set(blob) == {"lo", "hi", "values"}
    assert PermWindow.from_json(blob) == w


def test_inversions_examples():
    assert inversions((3, 1, 2, 4)) == 2
    assert inversions((4, 3, 2, 1)) == 6
    assert inversions((1, 2, 3)) == 0


def test_inversion_counts_example():
    ic = inversion_counts_window(window_of((3, 1, 2, 4)))
    assert ic.r == (2, 0, 0, 0)
    assert ic.ell == (0, 1, 1, 0)
    assert all(ic.ell_certified)
    assert ic.residual_bound == 0.0


def test_inversion_counts_json_keys():
    ic = inversion_counts_window(window_of((2, 1)))
    blob = ic.to_json()
    assert set(blob) == {"lo", "hi", "r", "ell", "certified", "residual"}
    assert isinstance(blob["residual"], str)  # decimal string, not float
    assert InversionCounts.from_json(blob) == ic


def test_inversion_counts_refuse_nan_residual():
    ic = inversion_counts_window(window_of((2, 1)))
    with pytest.raises(ValueError):
        InversionCounts(lo=0, hi=0, r=(0,), ell=(0,), ell_certified=(True,),
                        residual_bound=float("nan"))
    with pytest.raises(ValueError):
        InversionCounts.from_json({**ic.to_json(), "residual": "nan"})


# --------------------------------------------------------------------------
# elimination codecs
# --------------------------------------------------------------------------

def test_eliminate_right_examples():
    assert eliminate_right((2, 0, 0, 0)).values == (3, 1, 2, 4)
    assert eliminate_right((3, 2, 1, 0)).values == (4, 3, 2, 1)
    assert eliminate_right((0,)).values == (1,)
    # random right counts: word entry i is the (r_i+1)-th smallest unused value
    rng = random.Random(5)
    for n in (1, 5, 300):
        for _ in range(20):
            r = [rng.randrange(n - i) for i in range(n)]
            unused = list(range(1, n + 1))
            want = tuple(unused.pop(ri) for ri in r)
            assert eliminate_right(r).values == want, f"r={r}"


def test_eliminate_left_examples():
    assert eliminate_left((0, 1, 1, 0)).values == (3, 1, 2, 4)
    assert eliminate_left((0, 1, 2, 3)).values == (4, 3, 2, 1)


def test_eliminate_right_support():
    with pytest.raises(RejectSupportError):
        eliminate_right((4, 0, 0, 0))  # r[0] must be <= 3
    with pytest.raises(RejectSupportError):
        eliminate_right((0, 0, 0, 1))  # last entry must be 0
    with pytest.raises(RejectSupportError, match=r"r\[2\] = -1 "):
        eliminate_right((0, 0, -1, 0))
    with pytest.raises(RejectSupportError):
        eliminate_left((1, 0, 0, 0))  # l[0] must be 0


def test_eliminate_left_support_names_the_rightmost_bad_entry():
    # support is checked right to left, the order the word is built in
    with pytest.raises(RejectSupportError, match=r"^ell\[0\] = 1 outside support 0\.\.0$"):
        eliminate_left((1, 0, 0, 0))
    with pytest.raises(RejectSupportError, match=r"^ell\[3\] = 4 outside support 0\.\.3$"):
        eliminate_left((1, 0, -1, 4))
    with pytest.raises(RejectSupportError, match=r"^ell\[2\] = -1 outside support 0\.\.2$"):
        eliminate_left((1, 0, -1, 0))


def test_codec_round_trip_small_n():
    # every permutation survives r -> word -> r and l -> word -> l
    for n in range(1, 7):
        for sigma in permutations(range(1, n + 1)):
            w = window_of(sigma)
            ic = inversion_counts_window(w)
            assert eliminate_right(ic.r).values == sigma, f"r-code {sigma}"
            assert eliminate_left(ic.ell).values == sigma, f"l-code {sigma}"
            total = inversions(sigma)
            assert sum(ic.r) == total
            assert sum(ic.ell) == total


# --------------------------------------------------------------------------
# adjacent swaps
# --------------------------------------------------------------------------

def test_adjacent_swap_examples():
    assert adjacent_swap_r(0, 0) == (1, 0)
    assert adjacent_swap_r(1, 0) == (0, 0)
    assert adjacent_swap_r(2, 2) == (3, 2)


def test_adjacent_swap_involution_and_weight():
    for a in range(13):
        for b in range(13):
            na, nb = adjacent_swap_r(a, b)
            assert adjacent_swap_r(na, nb) == (a, b), f"not involutive at {(a, b)}"
            delta = (na + nb) - (a + b)
            assert delta == (1 if a <= b else -1)


def test_adjacent_swap_matches_word_swap():
    for n in (4, 5):
        for sigma in permutations(range(1, n + 1)):
            r = inversion_counts_window(window_of(sigma)).r
            for i in range(n - 1):
                swapped = list(sigma)
                swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
                r2 = inversion_counts_window(window_of(tuple(swapped))).r
                na, nb = adjacent_swap_r(r[i], r[i + 1])
                assert r2 == r[:i] + (na, nb) + r[i + 2 :], f"{sigma} i={i}"


# --------------------------------------------------------------------------
# left-count reconstruction
# --------------------------------------------------------------------------

def test_reconstruct_ell_in_window_exact():
    # all leftward data inside the window is consumed exactly
    r = (2, 0, 0, 0)
    for j, want in [(1, 0), (2, 1), (3, 1), (4, 0)]:
        ell, certified, residual = reconstruct_ell(r, 1, j, P5, 1e-9)
        assert ell == want, f"j={j}"
        assert residual > 0.0
        assert not certified  # small window cannot certify at 1e-9


def test_reconstruct_ell_with_extension():
    # zero draws beyond the window only advance the state, never the count
    calls = 0

    def zeros():
        nonlocal calls
        calls += 1
        return 0

    ell, certified, residual = reconstruct_ell((0, 0, 0), 0, 2, P5, 1e-6, zeros)
    assert ell == 0
    assert certified
    assert residual <= 1e-6
    assert calls >= 15  # must walk until 0.5^(x+1)/0.5 <= 1e-6


def test_reconstruct_ell_geometric_extension_terminates():
    s = GeomStream(seed=99, q=0.5)
    for j in range(-2, 3):
        ell, certified, residual = reconstruct_ell(
            (1, 0, 2, 0, 1), -2, j, P5, 1e-9, lambda: int(s.geometrics(1)[0])
        )
        assert certified
        assert residual <= 1e-9
        assert ell >= 0


@pytest.mark.parametrize("eps_tv", [-1e-9, 0.0, math.nan, math.inf])
def test_chain_budgets_outside_zero_inf_are_refused_before_any_draw(eps_tv):
    calls = 0

    def zeros():
        nonlocal calls
        calls += 1
        return 0

    with pytest.raises(DomainError):
        reconstruct_ell((0, 0, 0), 0, 2, P5, eps_tv, zeros)
    assert calls == 0
    with pytest.raises(DomainError):
        validate_r_window([0, 1, 0], 0, P5, eps_tv)


@pytest.mark.parametrize("q", [0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95])
def test_chain_horizon_is_the_first_state_within_budget(q):
    # q^k/(1-q) puts eps_tv on the boundary, where a log estimate can land
    # one state past it
    for k in range(1, 60):
        for eps_tv in (q**k / (1.0 - q), q**k, 2.0**-k, 10.0 ** -(k % 15 + 1)):
            x = _chain_horizon(q, eps_tv)
            assert x >= 0 and q ** (x + 1) / (1.0 - q) <= eps_tv
            assert x == 0 or q**x / (1.0 - q) > eps_tv, f"k={k} eps_tv={eps_tv!r}"


# --------------------------------------------------------------------------
# rebuild
# --------------------------------------------------------------------------

def test_rebuild_sigma_round_trip():
    for sigma in permutations(range(1, 6)):
        w = window_of(sigma)
        ic = inversion_counts_window(w)
        assert rebuild_sigma(ic) == w


def test_rebuild_sigma_requires_certification():
    ic = InversionCounts(
        lo=0, hi=1, r=(1, 0), ell=(0, 0),
        ell_certified=(True, False), residual_bound=0.25,
    )
    with pytest.raises(NotCertifiedError):
        rebuild_sigma(ic)


def test_rebuild_sigma_detects_collision():
    ic = InversionCounts(
        lo=0, hi=1, r=(0, 0), ell=(0, 1),
        ell_certified=(True, True), residual_bound=0.0,
    )
    with pytest.raises(NotInjectiveError):
        rebuild_sigma(ic)


# --------------------------------------------------------------------------
# balance, truncation, inversion
# --------------------------------------------------------------------------

def test_window_balance_shift():
    # sigma(i) = i - b has balance b (b values cross the origin)
    for b in (-3, -1, 0, 2, 4):
        vals = tuple(i - b for i in range(-6, 7))
        diag = window_balance(PermWindow(lo=-6, hi=6, values=vals))
        assert diag.balance_estimate == b, f"shift {b}"
        assert diag.admissible_hint  # crossings sit well inside [-6..6]


def test_window_balance_edge_hint():
    # shift by 7 pushes a crossing onto the window edge: estimate unreliable
    vals = tuple(i - 7 for i in range(-6, 7))
    diag = window_balance(PermWindow(lo=-6, hi=6, values=vals))
    assert not diag.admissible_hint


def test_window_balance_identity():
    diag = window_balance(PermWindow(lo=-3, hi=3, values=tuple(range(-3, 4))))
    assert diag.balance_estimate == 0
    assert diag.admissible_hint
    assert diag.stable_from == 0


def test_truncate_examples():
    w = window_of((3, 1, 2, 4))  # positions 1..4
    t = truncate(w, 2, 3)
    # values (1, 2) at positions 2..3 relabel to (2, 3)
    assert t.lo == 2 and t.hi == 3
    assert t.values == (2, 3)


def test_truncate_tower_property():
    s = GeomStream(seed=17, q=0.5)
    from mallows.samplers import sample_two_sided_interlacing

    for _ in range(25):
        w, _ = sample_two_sided_interlacing(-6, 6, P5, s)
        outer = truncate(w, -4, 4)
        inner_direct = truncate(w, -2, 2)
        inner_via_outer = truncate(outer, -2, 2)
        assert inner_direct == inner_via_outer


def test_invert_window_involution():
    w = PermWindow(lo=-2, hi=2, values=(0, -2, 1, 2, -1))
    assert w.self_contained
    inv = invert_window(w)
    assert invert_window(inv) == w
    # value v at position i <-> value i at position v
    for i in range(-2, 3):
        assert inv.value_at(w.value_at(i)) == i


def test_invert_window_requires_self_contained():
    w = PermWindow(lo=0, hi=1, values=(5, 0))
    with pytest.raises(NotSelfContainedError):
        invert_window(w)


def test_truncation_and_inversion_do_not_commute():
    # witness: truncating the inverse differs from inverting the truncation
    w = PermWindow(lo=-2, hi=2, values=(1, -2, 0, 2, -1))
    assert w.self_contained
    a = truncate(invert_window(w), -1, 1)
    b = invert_window(truncate(w, -1, 1))
    assert a != b
    assert a.values == (1, 0, -1)
    assert b.values == (-1, 0, 1)


# --------------------------------------------------------------------------
# window validator
# --------------------------------------------------------------------------

def test_validate_identity_window():
    rep = validate_r_window([0] * 9, -4, P5, 1e-9)
    assert rep.verdict == VERDICT_CONSISTENT
    assert rep.zero_positions == tuple(range(-4, 5))
    assert rep.counts.ell == (0,) * 9


def _divergent_left_pattern(lo: int) -> list[int]:
    # right counts of the interleaving pattern sigma(-2k) = -k,
    # sigma(-2k-1) = 2k+1, sigma(j) = 2j: the left count at 0 diverges
    out = []
    for i in range(lo, 1):
        if i < 0 and (-i) % 2 == 1:
            k = (-i - 1) // 2
            out.append(3 * k + 1)
        else:
            out.append(0)
    return out


@pytest.mark.parametrize(
    "lo,eps_tv,verdict",
    [
        (-30, 1e-9, VERDICT_SUSPECT),
        (-15, 1e-9, VERDICT_CONSISTENT),
        (-12, 1e-3, VERDICT_SUSPECT),
        (-6, 1e-3, VERDICT_CONSISTENT),
    ],
)
def test_validate_divergent_pattern(lo, eps_tv, verdict):
    rep = validate_r_window(_divergent_left_pattern(lo), lo, P5, eps_tv)
    assert rep.verdict == verdict, f"lo={lo} eps={eps_tv}"


@pytest.mark.parametrize("r_right, verdict", [(2, VERDICT_SUSPECT), (1, VERDICT_CONSISTENT)])
def test_validate_suspect_from_a_left_inversion_at_the_horizon(r_right, verdict):
    # at q=0.5, eps_tv=0.25 the horizon is x* = 2: the chain of position 1
    # starts at r_right and meets 3 > r_right, a left inversion counted at
    # state r_right, which is past the horizon exactly when r_right >= 2
    assert _chain_horizon(0.5, 0.25) == 2
    rep = validate_r_window([3, r_right], 0, P5, 0.25)
    assert rep.counts.ell == (0, 1)
    assert rep.verdict == verdict


def test_validate_geometric_windows_consistent():
    s = GeomStream(seed=123, q=0.5)
    for trial in range(100):
        r = s.geometrics(30).tolist()
        rep = validate_r_window(r, -15, P5, 1e-9)
        assert rep.verdict == VERDICT_CONSISTENT, f"trial {trial}"


def test_validate_rejects_negative_counts():
    with pytest.raises(DomainError):
        validate_r_window([0, -1, 0], 0, P5, 1e-9)
