"""Recurrence polynomials, reciprocals, Laurent forms, numeric closed form."""

from __future__ import annotations

import copy
import pickle
import random
from fractions import Fraction

import pytest

from latpoly import (
    NearBranchPoint,
    ONE,
    WeightSpec,
    ZeroLambda,
    chebyshev_closed_form_check,
    chebyshev_s,
    monomial,
    ortho_poly,
    reciprocal,
    sym,
    to_laurent,
)
from latpoly.cli import weights_to_json
from util import random_rational_weight_spec, random_weight_spec

X = sym("x")


def test_first_orders():
    w = WeightSpec.generic(4)
    assert ortho_poly(1, 0, w) == X - sym("b0")
    for j in range(4):
        assert ortho_poly(0, j, w) == ONE


def test_two_steps_by_hand():
    # hand oracle: P2 = (x - b1)(x - b0) - lambda1 with constant backgrounds
    b, lam = Fraction(1, 2), Fraction(2, 3)
    w = WeightSpec(3, b, lam)
    expected = (X - b) * (X - b) - lam
    assert ortho_poly(2, 0, w) == expected
    # and symbolically through the undecorated family
    bs, ls = sym("b"), sym("lam")
    assert chebyshev_s(2, bs, ls) == (X - bs) * (X - bs) - ls


def test_recurrence_residual_randomized():
    rng = random.Random(95217)
    for _ in range(8):
        L = rng.randint(2, 6)
        w = random_weight_spec(rng, L)
        for j in range(0, 5):
            for k in range(2, 13):
                pk = ortho_poly(k, j, w)
                p1 = ortho_poly(k - 1, j, w)
                p2 = ortho_poly(k - 2, j, w)
                residual = (pk - (X - w.effective_b(k + j - 1)) * p1
                            + w.effective_lambda(k + j - 1) * p2)
                assert residual.is_zero


def test_monic_and_reciprocal_constant():
    rng = random.Random(4711)
    for _ in range(8):
        w = random_weight_spec(rng, 4)
        for k in range(0, 8):
            p = ortho_poly(k, rng.randint(0, 3), w)
            assert p.coefficient_of("x", k) == ONE
            assert reciprocal(p).coefficient_of("x", 0) == ONE


def test_shift_consistency():
    rng = random.Random(333)
    for _ in range(6):
        L = rng.randint(3, 6)
        w = random_weight_spec(rng, L)
        for j in range(0, min(4, L) + 1):
            for k in range(0, 6):
                assert (ortho_poly(k, j, w)
                        == ortho_poly(k, 0, w.shifted_down(j)))


def test_chebyshev_examples():
    b, lam = sym("b"), sym("lam")
    assert chebyshev_s(0, b, lam) == ONE
    assert chebyshev_s(1, b, lam) == X - b
    assert chebyshev_s(3, 0, 1) == X ** 3 - 2 * X


def test_chebyshev_matches_undecorated_ortho():
    w = WeightSpec(5, Fraction(1, 2), Fraction(3))
    for j in (0, 1, 3):
        for k in range(0, 7):
            assert chebyshev_s(k, Fraction(1, 2), Fraction(3)) == ortho_poly(k, j, w)


def test_reciprocal_examples():
    w = WeightSpec.generic(3)
    p1 = ortho_poly(1, 0, w)
    assert reciprocal(p1) == 1 - sym("b0") * X
    assert reciprocal(ortho_poly(0, 0, w)) == ONE
    # degree-2 definition applied term by term
    w2 = WeightSpec(2, 0, 2)
    p2 = ortho_poly(2, 0, w2)  # x^2 - 2
    assert p2 == X ** 2 - 2
    assert reciprocal(p2) == 1 - 2 * X ** 2


def test_to_laurent_examples():
    w = WeightSpec(3, 2, 3)
    rho = sym("rho")
    assert to_laurent(ortho_poly(1, 0, w), 2, 3) == rho + monomial(3, rho=-1)
    assert to_laurent(ortho_poly(0, 0, w), 2, 3) == ONE
    w2 = WeightSpec(3, 0, 1)
    assert to_laurent(ortho_poly(2, 0, w2), 0, 1) == rho ** 2 + 1 + monomial(1, rho=-2)
    with pytest.raises(ZeroLambda):
        to_laurent(ortho_poly(1, 0, w), 2, 0)


def test_to_laurent_exponent_range():
    rng = random.Random(808)
    w = random_weight_spec(rng, 4)
    b, lam = w.background_b, w.background_lambda
    for k in range(1, 6):
        r = to_laurent(ortho_poly(k, 0, w), b, lam)
        assert r.min_exponent("rho") >= -k
        assert r.max_exponent("rho") == k


def test_divisibility_identity_small():
    # (lambda_{y+1} ... lambda_L) P_y - P_L P^(y+1)_{L-y} is divisible by
    # P_{L+1}, exactly, for rational weights
    rng = random.Random(606)
    for L in range(0, 6):
        w = random_rational_weight_spec(rng, L)
        for y in range(0, L + 1):
            lam_prod = ONE
            for l in range(y + 1, L + 1):
                lam_prod = lam_prod * w.effective_lambda(l)
            lhs = (lam_prod * ortho_poly(y, 0, w)
                   - ortho_poly(L, 0, w) * ortho_poly(L - y, y + 1, w))
            _, remainder = lhs.divmod_monic(ortho_poly(L + 1, 0, w), "x")
            assert remainder.is_zero, (L, y)


def test_closed_form_check_examples():
    rec, closed = chebyshev_closed_form_check(1, 0.7)
    assert rec == pytest.approx(0.7) and closed == pytest.approx(0.7)
    rec, closed = chebyshev_closed_form_check(0, 3.0)
    assert rec == 1.0 and closed == pytest.approx(1.0)
    rec, closed = chebyshev_closed_form_check(5, 0.7)
    assert abs(rec - closed) <= 1e-9 * max(1.0, abs(rec))


def test_closed_form_branch_point_guard():
    with pytest.raises(NearBranchPoint):
        chebyshev_closed_form_check(3, 2.0000001)
    with pytest.raises(NearBranchPoint):
        chebyshev_closed_form_check(3, -2.0)


def test_weight_spec_validation():
    with pytest.raises(ValueError):
        WeightSpec(2, down={3: sym("kappa")})
    with pytest.raises(ValueError):
        WeightSpec(2, across={-1: sym("kappa")})
    with pytest.raises(TypeError):
        WeightSpec(2, b=0.5)
    with pytest.raises(ValueError, match="a weight must be"):
        WeightSpec(2, down={1: 1.5})
    # symbolic effective lambdas are fine even over a zero background
    WeightSpec.generic(3)


def test_weight_spec_refuses_bool_heights():
    # True is an int to Python, but neither a strip height nor a height
    with pytest.raises(ValueError):
        WeightSpec(True)
    with pytest.raises(ValueError):
        WeightSpec(2, down={True: sym("kappa")})
    with pytest.raises(ValueError):
        WeightSpec(2, across={False: sym("kappa")})


def test_weight_spec_refuses_the_engines_variables():
    # viennot-ct, gf and paving run in x, rho-ct and cheb-ct in rho; a
    # decoration naming either would be read as that variable
    kappa = sym("kappa")
    for value in (sym("x"), sym("rho"), kappa * sym("x") + 1, monomial(2, rho=-1) + kappa):
        for decorations in ({"across": {0: value}}, {"down": {2: value}}):
            with pytest.raises(ValueError, match="reserve"):
                WeightSpec(2, **decorations)
    # a name that only starts with one of them is free
    assert WeightSpec(2, across={0: sym("xi")}, down={1: sym("rho1")}).across_heights == {0}


def test_weight_spec_whole_background_is_int():
    w = WeightSpec(1, Fraction(4, 2), 1)
    assert type(w.background_b) is int
    assert type(w.effective_b(0).terms()[()]) is int


def test_weight_spec_drops_zero_decorations():
    w = WeightSpec(2, 1, 1, across={0: 0}, down={1: sym("kappa") - sym("kappa")})
    assert not w.across_decorations and not w.down_decorations


def test_weight_spec_equality_and_hash():
    a = WeightSpec(2, 0, 1, down={1: sym("kappa")})
    b = WeightSpec(2, 0, 1, down={1: sym("kappa")})
    assert a == b and hash(a) == hash(b)
    assert a != WeightSpec(2, 0, 1)


def test_weight_spec_is_immutable_and_its_decorations_read_only():
    # equal specs are one object, so an edit would reach every holder
    beta, kappa = sym("beta"), sym("kappa")
    w = WeightSpec(3, 1, 2, across={0: beta}, down={2: kappa})
    for decorations in (w.across_decorations, w.down_decorations):
        with pytest.raises(TypeError):
            decorations[1] = sym("z")
        with pytest.raises(TypeError):
            del decorations[next(iter(decorations))]
    for name in ("strip_height", "background_b", "across_decorations", "_key"):
        with pytest.raises(AttributeError):
            setattr(w, name, 0)
        with pytest.raises(AttributeError):
            delattr(w, name)
    assert w.effective_b(0) == 1 + beta and w.effective_lambda(2) == 2 + kappa
    assert dict(w.across_decorations) == {0: beta}
    assert weights_to_json(w) == {"b": "1", "lambda": "2", "L": 3,
                                  "across_decorations": {"0": "beta"},
                                  "down_decorations": {"2": "kappa"}}
    assert w.shifted_down(1) == WeightSpec(2, 1, 2, down={1: kappa})
    assert repr(w) == "WeightSpec(L=3, b=1, lam=2, across={0: beta}, down={2: kappa})"


def test_weight_spec_pickles_and_copies_to_the_interned_spec():
    w = WeightSpec(2, Fraction(1, 2), -1, across={0: sym("beta")},
                   down={1: sym("kappa") - 1, 2: monomial(Fraction(2, 3), omega=2)})
    for twin in (pickle.loads(pickle.dumps(w)), copy.copy(w), copy.deepcopy(w)):
        assert twin == w and hash(twin) == hash(w)
        assert twin is w
