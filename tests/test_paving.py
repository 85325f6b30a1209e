"""Paving enumeration oracle, cut identities, background decompositions."""

from __future__ import annotations

import random

import pytest

from latpoly import (
    CutOutOfRange,
    LaurentPolynomial,
    ONE,
    SizeLimit,
    WeightSpec,
    chebyshev_s,
    decompose,
    edge_cut,
    enumerate_pavings,
    ortho_poly,
    paving_count,
    paving_polynomial,
    sym,
    vertex_cut,
)
from latpoly.paving import _decoration_cut, decoration_window_sizes
from util import random_weight_spec

X = sym("x")


def test_paving_counts_examples():
    assert len(enumerate_pavings(0, "ballot")) == 1
    assert len(enumerate_pavings(0, "motzkin")) == 1
    assert len(enumerate_pavings(4, "ballot")) == 5
    assert len(enumerate_pavings(3, "motzkin")) == 12


def test_paving_count_recurrences():
    ballot = [len(enumerate_pavings(k, "ballot")) for k in range(10)]
    motzkin = [len(enumerate_pavings(k, "motzkin")) for k in range(10)]
    for k in range(2, 10):
        assert ballot[k] == ballot[k - 1] + ballot[k - 2]
        assert motzkin[k] == 2 * motzkin[k - 1] + motzkin[k - 2]
        assert paving_count(k, "ballot") == ballot[k]
        assert paving_count(k, "motzkin") == motzkin[k]
    with pytest.raises(ValueError, match="kind must be 'motzkin' or 'ballot'"):
        paving_count(2, "dyck")


def test_paving_structure():
    for paving in enumerate_pavings(5, "motzkin"):
        covered = []
        for kind, pos in paving.pavers:
            covered.extend([pos, pos + 1] if kind == "dimer" else [pos])
        assert sorted(covered) == list(range(5))
    assert all(kind != "monomer"
               for paving in enumerate_pavings(6, "ballot")
               for kind, _ in paving.pavers)


def test_size_limit():
    with pytest.raises(SizeLimit):
        enumerate_pavings(30, "motzkin", cap=10_000)


def test_paving_polynomial_examples():
    w = WeightSpec.generic(5)
    for j in (0, 2):
        assert paving_polynomial(1, j, w) == X - sym(f"b{j}")
        assert paving_polynomial(0, j, w) == ONE
    # ballot order 2: both vertices uncovered, or one dimer
    w_ballot = WeightSpec(4, 0, 0, down={i: sym(f"lambda{i}") for i in range(1, 5)})
    for j in (0, 1):
        assert paving_polynomial(2, j, w_ballot) == X ** 2 - sym(f"lambda{1 + j}")


def test_paving_oracle_randomized():
    rng = random.Random(112233)
    cases = 0
    for k in range(0, 8):
        for j in range(0, 4):
            w = random_weight_spec(rng, min(k + j + 1, 6))
            assert paving_polynomial(k, j, w) == ortho_poly(k, j, w)
            cases += 1
    assert cases >= 30


def test_paving_weight_forms_no_product_of_its_own(monkeypatch):
    # the weights of a paving are multiplied as one _dot entry
    w = WeightSpec(4, 1, 2, across={1: sym("a")}, down={2: sym("d")})
    target = ortho_poly(4, 0, w)

    def refuse(self, other):
        raise AssertionError("Paving.weight formed a product")

    monkeypatch.setattr(LaurentPolynomial, "__mul__", refuse)
    monkeypatch.setattr(LaurentPolynomial, "__rmul__", refuse)
    assert paving_polynomial(4, 0, w) == target


def test_ascii_dump():
    pavings = {p.ascii() for p in enumerate_pavings(3, "motzkin")}
    assert "..." in pavings and "D-." in pavings and "MMM" in pavings
    assert len(pavings) == 12


def test_edge_cut_example():
    w = WeightSpec.generic(2)
    d = edge_cut(2, 0, 1, w)
    assert d.term_count == 2
    b0, b1, lam1 = sym("b0"), sym("b1"), sym("lambda1")
    assert d.expand() == (X - b0) * (X - b1) - lam1
    assert d.expand() == ortho_poly(2, 0, w)


def test_vertex_cut_examples():
    w = WeightSpec.generic(2)
    d = vertex_cut(2, 0, 1, w)
    assert d.expand() == ortho_poly(2, 0, w)
    degenerate = vertex_cut(1, 0, 0, w)
    assert degenerate.term_count == 1
    assert degenerate.expand() == X - sym("b0")


def test_cut_terms_fold_through_the_recurrence_polynomials():
    # a cut's factors are P_order^(shift) of the spec they are read with:
    # normalized_terms folds those of order <= 1 into the coefficient, so
    # P_1^(0) = x - b0 here and P_1^(2) = x - b2, and expand reads them all
    w = WeightSpec.generic(3)
    b0, b1, b2 = sym("b0"), sym("b1"), sym("b2")
    lam1 = sym("lambda1")
    d = edge_cut(3, 0, 1, w)
    assert d.normalized_terms() == [(-lam1 * (X - b2), ()), (X - b0, (2,))]
    assert d.expand() == ortho_poly(3, 0, w)
    d = vertex_cut(2, 0, 0, w)
    assert d.normalized_terms() == sorted(
        [((X - b0) * (X - b1), ()), (-lam1, ())], key=lambda t: t[0].render())
    assert d.expand() == ortho_poly(2, 0, w)
    # over a rational background with a decoration too
    other = WeightSpec(3, 1, 2, across={2: sym("beta")})
    assert edge_cut(3, 0, 1, other).expand() == ortho_poly(3, 0, other)


def test_cut_out_of_range():
    w = WeightSpec.generic(2)
    with pytest.raises(CutOutOfRange):
        edge_cut(2, 0, 0, w)
    with pytest.raises(CutOutOfRange):
        edge_cut(2, 0, 2, w)
    with pytest.raises(CutOutOfRange):
        vertex_cut(2, 0, 2, w)


def test_a_decomposition_is_read_with_the_spec_it_was_cut_from():
    # a rational background with a decoration: every factor, folded or
    # expanded, is P_order^(shift) of this spec and of no other
    beta = sym("beta")
    w = WeightSpec(3, 1, 2, across={2: beta})
    for d in (edge_cut(3, 0, 1, w), vertex_cut(3, 0, 1, w), decompose(3, 0, w)):
        assert d.w is w
        assert d.expand() == ortho_poly(3, 0, w)
    # edge 1: S_1 * P_2^(1) - lambda_1 * S_0 * P_1^(2), with P_1^(2) = x - 1 - beta
    assert edge_cut(3, 0, 1, w).normalized_terms() == [(-2 * (X - 1 - beta), ()),
                                                       (X - 1, (2,))]
    # vertex 2: (x - b_2) * S_2 * S_0 - lambda_2 * S_1 * S_0
    assert decompose(3, 0, w).normalized_terms() == [(-2 * (X - 1), ()),
                                                     (X - 1 - beta, (2,))]
    # a cut made without its spec, or expanded with another, is refused
    with pytest.raises(TypeError):
        edge_cut(3, 0, 1)
    with pytest.raises(TypeError):
        edge_cut(3, 0, 1, w).expand(WeightSpec.generic(3))


def test_decoration_window_sizes_count_the_decorated_heights():
    # down steps are visible at heights j+1..j+k-1, across steps at j..j+k-1
    rng = random.Random(5150)
    for _ in range(200):
        L = rng.randint(0, 6)
        w = random_weight_spec(rng, L, max_decorations=6)
        k = rng.randint(0, L + 1)
        j = rng.randint(0, L + 1 - k)
        assert decoration_window_sizes(k, j, w) == (
            sum(j + 1 <= h <= j + k - 1 for h in w.down_heights),
            sum(j <= h <= j + k - 1 for h in w.across_heights))


def test_cut_soundness_randomized():
    rng = random.Random(9090)
    for k in range(2, 7):
        for j in range(0, 3):
            w = random_weight_spec(rng, min(k + j, 6))
            target = ortho_poly(k, j, w)
            for c in range(1, k):
                assert edge_cut(k, j, c, w).expand() == target
            for c in range(0, k):
                assert vertex_cut(k, j, c, w).expand() == target
            # the cut at decorations alone, every factor an undecorated S_m
            expansion = 0
            for ds, orders in _decoration_cut(k, j, w):
                coeff = (-1) ** len(ds)
                for d in ds:
                    coeff = coeff * d
                for m in orders:
                    coeff = coeff * chebyshev_s(m, w.background_b, w.background_lambda)
                expansion = expansion + coeff
            assert expansion == target


def test_decoration_cut_multiplies_no_polynomial(monkeypatch):
    # a cut term is data, its decorations and orders: the one product of a
    # term is formed by its reader (cheb-ct's _dot entry), not by the cut
    rng = random.Random(9091)
    specs = [WeightSpec(6, 1, 2, across={0: sym("a0"), 3: 2, 5: sym("a5")},
                        down={2: sym("d2"), 4: sym("d4"), 6: -1})]
    specs += [random_weight_spec(rng, 6) for _ in range(4)]

    def refuse(self, other):
        raise AssertionError("_decoration_cut formed a product")

    monkeypatch.setattr(LaurentPolynomial, "__mul__", refuse)
    monkeypatch.setattr(LaurentPolynomial, "__rmul__", refuse)
    cuts = [_decoration_cut(k, j, w) for w in specs for k in range(8) for j in range(3)]
    assert max(len(ds) for cut in cuts for ds, _ in cut) >= 3


def test_decompose_no_decorations():
    w = WeightSpec(4, 1, 2)
    d = decompose(5, 0, w)
    assert d.term_count == 1
    assert d.terms[0].coefficient == ONE
    assert d.terms[0].factors == ((0, 5),)


def test_decompose_single_down_decoration():
    w = WeightSpec(6, 0, 1, down={3: sym("kappa") - 1})
    d = decompose(6, 0, w)
    assert d.term_count == 2
    assert d.expand() == ortho_poly(6, 0, w)


def test_decompose_boundary_pair_form():
    # two decorated down steps at the walls give the four-term shape
    # x^2 S_{L-1} - kappa x S_{L-2} - omega x S_{L-2} + kappa omega S_{L-3}
    kappa, omega = sym("kappa"), sym("omega")
    for L in (5, 6):
        w = WeightSpec(L, 0, 1, down={1: kappa - 1, L: omega - 1})
        d = decompose(L + 1, 0, w)
        assert d.term_count == 4
        expected = sorted([
            (X ** 2, (L - 1,)),
            (-kappa * X, (L - 2,)),
            (-omega * X, (L - 2,)),
            (kappa * omega, (L - 3,)),
        ], key=lambda t: (t[1], t[0].render()))
        got = d.normalized_terms()
        assert [(c.render(), o) for c, o in got] == [(c.render(), o) for c, o in expected]
        assert d.expand() == ortho_poly(L + 1, 0, w)


def test_decompose_bound_randomized():
    rng = random.Random(77441)
    checked = 0
    for _ in range(40):
        k = rng.randint(1, 9)
        j = rng.randint(0, 3)
        w = random_weight_spec(rng, min(k + j, 6), max_decorations=3)
        n_down, n_across = decoration_window_sizes(k, j, w)
        d = decompose(k, j, w)
        assert d.term_count <= 2 ** n_down * 3 ** n_across
        assert d.max_factor_count <= n_down + n_across + 1
        assert d.expand() == ortho_poly(k, j, w)
        checked += 1
    assert checked == 40


def test_decompose_bound_tight_when_separated():
    # decorations pairwise non-adjacent and away from the ends
    kappa, beta = sym("kappa"), sym("beta")
    w = WeightSpec(8, 0, 1, across={4: beta}, down={2: kappa, 7: kappa})
    k, j = 9, 0
    n_down, n_across = decoration_window_sizes(k, j, w)
    assert (n_down, n_across) == (2, 1)
    d = decompose(k, j, w)
    assert d.term_count == 2 ** 2 * 3
    assert d.expand() == ortho_poly(k, j, w)


def test_decompose_factors_reference_background_family():
    w = WeightSpec(6, 1, 1, down={3: sym("kappa")})
    d = decompose(7, 0, w)
    total = 0
    for term in d.terms:
        prod = term.coefficient
        for _, order in term.factors:
            prod = prod * chebyshev_s(order, 1, 1)
        total = total + prod
    assert total == ortho_poly(7, 0, w)
