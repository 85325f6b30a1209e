"""Boundary-weight closed forms against each other and brute force."""

from __future__ import annotations

import os
import subprocess
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

import latpoly
import latpoly.closedforms as closedforms
import latpoly.engines as engines
import latpoly.orthopoly as orthopoly
import latpoly.paving as paving
from latpoly import (
    DmrParams,
    FourWeightParams,
    GuardViolation,
    IndexOutOfRange,
    InsufficientWeights,
    ONE,
    SizeLimit,
    StripQuery,
    WeightSpec,
    ZERO,
    brute_force,
    constant_term_ratio,
    dmr_ct,
    dmr_sum,
    enumerate_paths,
    extended_catalan,
    four_weight_ct,
    four_weight_sum,
    monomial,
    path_weight,
    rogers,
    rogers_weight_spec,
    stratified_weight,
    sym,
)

KAPPAS = [f"kappa_{i}" for i in range(1, 9)]
# decoration values as the closed benchmark draws them: never 0 or 1
RATIONALS = [Fraction(1, 2), Fraction(3, 2), Fraction(2, 3), Fraction(-1)]


def _decorations(symbols, case: int) -> list:
    """Half of the symbols (rounded up) kept, the rest replaced by rationals;
    which half and which rationals turn with the case number."""
    k = len(symbols)
    kept = {(case + 2 * i) % k for i in range((k + 1) // 2)}
    return [name if i in kept else RATIONALS[(case + i) % len(RATIONALS)]
            for i, name in enumerate(symbols)]


def test_extended_catalan_examples():
    assert extended_catalan(2, 2) == comb(4, 2) - comb(4, 1)  # == 2
    assert extended_catalan(2, 2) == 2
    for n in range(0, 6):
        assert extended_catalan(n, 0) == 1
    assert extended_catalan(3, -1) == 0
    assert extended_catalan(-1, 0) == 0
    assert extended_catalan(2, 5) == -1  # k = 2n + 1 keeps the second binomial


# The paper's printed ratios, in the hatted decorations kappa_hat =
# kappa - 1 and so on, kept as a reference for the constant terms that the
# library builds by cutting at the decorations.
RHO, INV = sym("rho"), monomial(1, rho=-1)


def _printed_dmr(p: DmrParams):
    """CT[ (rho + 1/rho)^(2r) (1 - rho^2) (A rho^L - B rho^-L)
                                  / (A C rho^L - B D rho^-L) ]
    with A = rho^2 - oh, B = 1 - oh rho^2, C = rho^2 - kh, D = 1 - kh rho^2."""
    kh, oh = sym("kappa_hat"), sym("omega_hat")
    up, down = monomial(1, rho=p.L), monomial(1, rho=-p.L)
    a, b = RHO ** 2 - oh, 1 - oh * RHO ** 2
    c, d = RHO ** 2 - kh, 1 - kh * RHO ** 2
    num = (RHO + INV) ** (2 * p.r) * (1 - RHO ** 2) * (a * up - b * down)
    ct = constant_term_ratio(num, a * c * up - b * d * down)
    return ct.substitute({"kappa_hat": p.kappa - 1, "omega_hat": p.omega - 1})


def _printed_four(p: FourWeightParams):
    """CT[ (rho + 1/rho)^(2r) (A B rho^L - Ab Bb rho^-L)
                             / (C B rho^L - Cb Bb rho^-L) (1/rho - rho) ]
    with A = 1 - kh2/rho^2, Ab = 1 - kh2 rho^2, B = rho - (oh1 + oh2)/rho -
    oh2/rho^3, Bb = 1/rho - (oh1 + oh2) rho - oh2 rho^3, and C, Cb as B, Bb
    with kh1, kh2 for oh1, oh2."""
    kh1, kh2, oh1, oh2 = (sym(n) for n in ("kh1", "kh2", "oh1", "oh2"))
    up, down = monomial(1, rho=p.L), monomial(1, rho=-p.L)
    a, a_bar = 1 - kh2 * INV ** 2, 1 - kh2 * RHO ** 2
    b = RHO - (oh1 + oh2) * INV - oh2 * INV ** 3
    b_bar = INV - (oh1 + oh2) * RHO - oh2 * RHO ** 3
    c = RHO - (kh1 + kh2) * INV - kh2 * INV ** 3
    c_bar = INV - (kh1 + kh2) * RHO - kh2 * RHO ** 3
    num = (RHO + INV) ** (2 * p.r) * (a * b * up - a_bar * b_bar * down) * (INV - RHO)
    ct = constant_term_ratio(num, c * b * up - c_bar * b_bar * down)
    return ct.substitute({"kh1": p.kappa1 - 1, "kh2": p.kappa2 - 1,
                          "oh1": p.omega1 - 1, "oh2": p.omega2 - 1})


def test_constant_terms_equal_the_printed_ratios():
    for L in range(2, 9):
        for r in range(0, 9):
            p = DmrParams(r, L)
            assert dmr_ct(p) == _printed_dmr(p), (r, L)
            if L >= 4:
                p = FourWeightParams(r, L)
                assert four_weight_ct(p) == _printed_four(p), (r, L)


def test_constant_terms_use_neither_recurrence_nor_substitution(monkeypatch):
    # the constant terms cut at the decorations and map each S_m straight
    # to T_m / D, so they stay a check independent of ortho_poly and
    # to_laurent
    def refuse(*args, **kwargs):
        raise AssertionError("the closed-form constant terms must not call this")

    for module, name in ((orthopoly, "ortho_poly"), (engines, "ortho_poly"),
                         (orthopoly, "to_laurent"), (engines, "to_laurent"),
                         (paving, "ortho_poly")):
        monkeypatch.setattr(module, name, refuse)
    k, o = sym("kappa"), sym("omega")
    assert dmr_ct(DmrParams(2, 2)) == k ** 2 + k * o
    k1, k2 = sym("kappa_1"), sym("kappa_2")
    assert four_weight_ct(FourWeightParams(2, 4)) == k1 ** 2 + k1 * k2
    for r, L in ((5, 3), (6, 5)):
        p = DmrParams(r, L, k, Fraction(1, 2))
        assert dmr_ct(p) == dmr_sum(p), (r, L)
        p = FourWeightParams(r, L + 1, k, 2, o, Fraction(3, 2))
        assert four_weight_ct(p) == four_weight_sum(p), (r, L)


def test_dmr_anchor_values():
    assert dmr_ct(DmrParams(0, 3)) == ONE
    assert dmr_ct(DmrParams(1, 2)) == sym("kappa")
    assert dmr_ct(DmrParams(2, 2)) == sym("kappa") ** 2 + sym("kappa") * sym("omega")
    assert dmr_sum(DmrParams(1, 4)) == sym("kappa")
    assert dmr_sum(DmrParams(2, 2)) == sym("kappa") ** 2 + sym("kappa") * sym("omega")


def test_dmr_triple_equality_small():
    for L in (2, 3, 4):
        for r in range(0, 5):
            p = DmrParams(r, L)
            ct = dmr_ct(p)
            sm = dmr_sum(p)
            bf = brute_force(StripQuery(2 * r, 0, 0, L), p.weight_spec())
            assert ct == sm == bf, (r, L)


def test_dmr_sum_equals_ct_mixed_decorations():
    for case, (L, r) in enumerate((L, r) for L in (2, 3, 4, 5) for r in range(0, 9)):
        p = DmrParams(r, L, *_decorations(["kappa", "omega"], case))
        assert dmr_sum(p) == dmr_ct(p), (r, L, p.kappa, p.omega)


def test_dmr_rational_values():
    p = DmrParams(3, 2, 2, 3)
    bf = brute_force(StripQuery(6, 0, 0, 2), p.weight_spec())
    assert dmr_ct(p) == dmr_sum(p) == bf
    assert dmr_ct(p).is_rational


def test_dmr_matches_general_rho_engine():
    from latpoly import rho_ct
    for r in range(0, 5):
        p = DmrParams(r, 3)
        assert rho_ct(StripQuery(2 * r, 0, 0, 3), p.weight_spec()) == dmr_ct(p)


def test_dmr_undecorated_specialization():
    # kappa = omega = 1 collapses to the plain strip ballot count
    for L in (2, 3):
        for r in range(0, 5):
            plain = brute_force(StripQuery(2 * r, 0, 0, L), WeightSpec(L, 0, 1))
            assert dmr_ct(DmrParams(r, L, 1, 1)) == plain
            assert dmr_sum(DmrParams(r, L, 1, 1)) == plain


def test_dmr_L_guard():
    with pytest.raises(ValueError):
        DmrParams(2, 1)


# a wrong support bound: C(r; -1), the single sum's guard layer, turns nonzero
_BROKEN_GUARD = """
import sys
import latpoly.closedforms as closedforms
exact = closedforms.extended_catalan
closedforms.extended_catalan = lambda n, k: 1 if k == -1 else exact(n, k)
print("optimize", sys.flags.optimize)
try:
    closedforms.dmr_sum(closedforms.DmrParams(2, 3))
except Exception as exc:
    print(type(exc).__name__, exc)
else:
    print("no error")
"""


def test_dmr_guard_survives_optimize():
    src = str(Path(latpoly.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", _BROKEN_GUARD], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "optimize 1"
    assert lines[1].startswith("GuardViolation guard layer of the single sum"), lines


def test_four_weight_guard_raises(monkeypatch):
    exact = closedforms._inner_triple
    monkeypatch.setattr(closedforms, "_inner_triple",
                        lambda u, r: ONE if u > 2 * r + 1 else exact(u, r))
    with pytest.raises(GuardViolation, match="guard layer of the double sum"):
        four_weight_sum(FourWeightParams(2, 4))


def test_dmr_p_diagonal_guard_raises(monkeypatch):
    # C(r; -2) is read only where k = r + 1: on the guard diagonal of the p
    # sums, never in the single sum
    exact = closedforms.extended_catalan
    monkeypatch.setattr(closedforms, "extended_catalan",
                        lambda n, k: 1 if k == -2 else exact(n, k))
    with pytest.raises(GuardViolation, match="guard diagonal of the p sums"):
        dmr_sum(DmrParams(2, 3))


def test_dmr_m_layer_guard_raises(monkeypatch):
    # one m layer too few: the last real layer becomes the guard layer
    exact = closedforms._last_m_layer
    monkeypatch.setattr(closedforms, "_last_m_layer", lambda r, w: exact(r, w) - 1)
    with pytest.raises(GuardViolation, match="guard layer of the m sum"):
        dmr_sum(DmrParams(4, 2))


def test_four_weight_v_diagonal_guard_raises(monkeypatch):
    # a triple at u < -2 is read only as the second piece, where u > 2r + 1:
    # on the guard diagonal of the v sums, never in the double sum
    exact = closedforms._inner_triple
    monkeypatch.setattr(closedforms, "_inner_triple",
                        lambda u, r: ONE if u < -2 else exact(u, r))
    with pytest.raises(GuardViolation, match="guard diagonal of the v sums"):
        four_weight_sum(FourWeightParams(2, 4))


def test_four_weight_m_layer_guard_raises(monkeypatch):
    # as for dmr; at r = 4, L = 5 the last layer below the bound is nonzero
    exact = closedforms._last_m_layer
    monkeypatch.setattr(closedforms, "_last_m_layer", lambda r, w: exact(r, w) - 1)
    with pytest.raises(GuardViolation, match="guard layer of the m sum"):
        four_weight_sum(FourWeightParams(4, 5))


def test_four_weight_anchor_values():
    assert four_weight_ct(FourWeightParams(0, 4)) == ONE
    k1, k2 = sym("kappa_1"), sym("kappa_2")
    assert four_weight_ct(FourWeightParams(1, 5)) == k1
    assert four_weight_ct(FourWeightParams(2, 4)) == k1 ** 2 + k1 * k2
    assert four_weight_sum(FourWeightParams(2, 4)) == k1 ** 2 + k1 * k2


def test_four_weight_triple_equality_small():
    for L in (4, 5):
        for r in range(0, 4):
            p = FourWeightParams(r, L)
            ct = four_weight_ct(p)
            sm = four_weight_sum(p)
            bf = brute_force(StripQuery(2 * r, 0, 0, L), p.weight_spec())
            assert ct == sm == bf, (r, L)


def test_four_weight_sum_equals_ct_beyond_the_small_cases():
    # past the small cases the sum has up to five m layers, and its walk
    # over the u where a triple is nonzero skips the most
    for L in range(4, 9):
        for r in range(0, 9):
            p = FourWeightParams(r, L)
            assert four_weight_sum(p) == four_weight_ct(p), (r, L)


def test_four_weight_sum_equals_ct_mixed_decorations():
    names = ["kappa_1", "kappa_2", "omega_1", "omega_2"]
    for case, (L, r) in enumerate((L, r) for L in (4, 5, 6) for r in range(0, 7)):
        p = FourWeightParams(r, L, *_decorations(names, case))
        assert four_weight_sum(p) == four_weight_ct(p), (r, L)


def test_four_weight_reduces_to_dmr():
    # trivial inner decorations leave only the wall pair
    kappa, omega = sym("kappa"), sym("omega")
    for r in range(0, 5):
        four = four_weight_ct(FourWeightParams(r, 5, kappa, 1, omega, 1))
        two = dmr_ct(DmrParams(r, 5, kappa, omega))
        assert four == two, r


def test_four_weight_L_guard():
    with pytest.raises(ValueError):
        FourWeightParams(2, 3)


def test_rogers_first_stratum():
    for n in (1, 3, 5):
        assert stratified_weight(n, 0, KAPPAS) == sym("kappa_1") ** n


def test_rogers_empty_path():
    assert rogers(0, 4, KAPPAS) == ONE
    assert rogers(0, None, KAPPAS) == ONE


def test_rogers_small_anchor():
    k1, k2 = sym("kappa_1"), sym("kappa_2")
    assert rogers(2, 3, KAPPAS) == k1 ** 2 + k1 * k2


def test_rogers_matches_brute():
    for n in range(0, 6):
        for L in (1, 2, 4, 6):
            w = rogers_weight_spec(L, KAPPAS)
            bf = brute_force(StripQuery(2 * n, 0, 0, L), w)
            assert rogers(n, L, KAPPAS) == bf, (n, L)


def test_rogers_matches_brute_mixed_decorations():
    for L in (3, 5):
        for n in range(1, 9):
            kappas = _decorations(KAPPAS[:min(n, L)], n)
            w = rogers_weight_spec(L, kappas)
            assert rogers(n, L, kappas) == brute_force(StripQuery(2 * n, 0, 0, L), w), (n, L)


def test_rogers_half_plane_equivalent():
    for n in range(1, 6):
        assert rogers(n, None, KAPPAS) == rogers(n, n, KAPPAS)


def test_strata_match_filtered_enumeration():
    """For n <= 8 every stratum l < n, each a one-level walk past l = 0, is
    the weight of the paths whose maximum height is l + 1, and the strata
    sum to the half-plane rogers; with symbolic kappas and with rational
    ones and a zero among symbols."""
    for n in range(1, 9):
        # the across steps weigh b = 0, so only the Dyck paths count
        dyck = [p for p in enumerate_paths(2 * n, 0, n, 0) if "across" not in p.steps]
        mixed = _decorations(KAPPAS[:n], n)
        mixed[n // 2] = 0
        for kappas in (KAPPAS[:n], mixed):
            w = rogers_weight_spec(n, kappas)
            by_height = {}
            for p in dyck:
                h = p.max_height()
                by_height[h] = by_height.get(h, ZERO) + path_weight(p, w)
            strata = [stratified_weight(n, l, kappas) for l in range(n)]
            assert strata == [by_height.get(l + 1, ZERO) for l in range(n)], (n, kappas)
            assert sum(strata, ZERO) == rogers(n, None, kappas), (n, kappas)


def test_strata_support_and_errors():
    assert stratified_weight(3, 5, KAPPAS) == ZERO
    assert stratified_weight(0, 0, KAPPAS) == ZERO
    with pytest.raises(IndexOutOfRange):
        stratified_weight(3, -1, KAPPAS)
    with pytest.raises(InsufficientWeights):
        stratified_weight(5, 3, KAPPAS[:2])
    with pytest.raises(InsufficientWeights):
        rogers(5, 4, KAPPAS[:2])
    # a model reads min(n, L) kappas, so it refuses fewer when it is built
    with pytest.raises(InsufficientWeights, match="need 3 down weights, got 1"):
        closedforms.RogersParams(3, 3, kappas=(2,))
    with pytest.raises(InsufficientWeights, match="need 2 down weights, got 1"):
        closedforms.RogersParams(2, kappas=(2,))


def test_rogers_and_strata_check_their_sizes_as_rogers_params_does():
    # a bool or a non-integer size is refused, not read as 1 or left to range()
    a = sym("a")
    for make in (lambda: rogers(3, True, [a, 1, 1]), lambda: rogers(True, None, [a]),
                 lambda: rogers(3, 2.5, [a, 1, 1]), lambda: rogers(-1, None, [a]),
                 lambda: rogers(2, -1, [a]), lambda: stratified_weight(2.0, 0, [1]),
                 lambda: stratified_weight(-1, 0, [1]), lambda: stratified_weight(2, 0.5, [1])):
        with pytest.raises(ValueError, match="must be"):
            make()
    with pytest.raises(IndexOutOfRange):
        stratified_weight(2, -1, [1])
    # the half plane is still None or infinity
    assert rogers(2, float("inf"), [a, 1]) == rogers(2, None, [a, 1]) == a ** 2 + a


def test_rogers_refuses_a_runaway_chain_count():
    # the half plane at n walks 2^(n-1) chains, which n = 40 would take
    # years to sum; the count is known before the walk, so it is refused
    many = [sym(f"k{i}") for i in range(40)]
    for make in (lambda: rogers(19, None, [1] * 19), lambda: rogers(40, None, many),
                 lambda: rogers(40, 30, many), lambda: stratified_weight(40, 20, many)):
        with pytest.raises(SizeLimit, match="chains"):
            make()
    # only the strata asked for count: one chain each here
    assert rogers(40, 1, many) == sym("k0") ** 40
    assert stratified_weight(40, 0, many) == sym("k0") ** 40


def test_rogers_all_ones_gives_catalan():
    ones = [1] * 8
    for n in range(0, 8):
        value = rogers(n, None, ones)
        assert value.is_rational
        assert value.as_fraction() == comb(2 * n, n) // (n + 1)
        if n >= 1:  # brute force in the tallest strip a path can use
            bf = brute_force(StripQuery(2 * n, 0, 0, n), WeightSpec(n, 0, 1))
            assert value == bf


def test_rogers_params_match_rogers_and_resolve_kappas_when_used():
    from latpoly import RogersParams
    k = [sym(f"kappa_{i}") for i in range(1, 5)]
    for n, L in [(3, None), (3, 2), (4, 4), (0, None), (2, 0)]:
        p = RogersParams(n, L)
        used = k[:max(min(n, n if L is None else L), 1)]
        assert p.closed_form() == p.closed_sum() == rogers(n, L, used)
        assert p.weight_spec() == rogers_weight_spec(n if L is None else L, used)
        q = StripQuery(2 * n, 0, 0, p.weight_spec().strip_height)
        assert brute_force(q, p.weight_spec()) == p.closed_form()
    assert RogersParams(3, float("inf")) == RogersParams(3)
    given = RogersParams(2, kappas=["a", 3])
    assert given.closed_form() == rogers(2, None, [sym("a"), 3])
    for params in (DmrParams(3, 3, 2), FourWeightParams(2, 5)):
        assert params.closed_form() == params.closed_sum()
