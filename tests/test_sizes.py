"""One rule for every size and index argument: an int, not a bool, in range.

Each entry point below is fed True, 2.5 and -1 in one size or index
argument, the others valid.  A bool or a non-int raises ValueError; a
negative int raises ValueError, or the error the entry point documents for
an index out of range (CutOutOfRange for a cut position, IndexOutOfRange
for a stratum).  None may return a result or raise a bare TypeError.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

import pytest

from latpoly import (
    CutOutOfRange,
    DmrParams,
    FourWeightParams,
    IndexOutOfRange,
    LatticePath,
    RogersParams,
    SchemaError,
    StripQuery,
    TruncatedSeries,
    WeightSpec,
    chebyshev_closed_form_check,
    chebyshev_s,
    decompose,
    edge_cut,
    enumerate_paths,
    enumerate_pavings,
    generating_function,
    ortho_poly,
    path_weight,
    paving_count,
    paving_polynomial,
    rogers,
    rogers_weight_spec,
    series_invert,
    stratified_weight,
    sym,
    vertex_cut,
)
from latpoly.cli import parse_weights

W = WeightSpec(3, 1, 2, across={1: sym("a")}, down={2: sym("k")})
RHO = sym("rho")
KAPPAS = [sym("a"), 1, 1]


def _json_L(v):
    return parse_weights(json.dumps({"b": 0, "lambda": 1, "L": v}))


# entry point and argument -> the call with v in that argument
ENTRY_POINTS = {
    "StripQuery.t": lambda v: StripQuery(v, 0, 0, 2),
    "StripQuery.y_start": lambda v: StripQuery(1, v, 0, 2),
    "StripQuery.y_end": lambda v: StripQuery(1, 0, v, 2),
    "StripQuery.L": lambda v: StripQuery(1, 0, 0, v),
    "WeightSpec.L": lambda v: WeightSpec(v),
    "WeightSpec.across height": lambda v: WeightSpec(3, across={v: 1}),
    "WeightSpec.down height": lambda v: WeightSpec(3, down={v: 1}),
    "WeightSpec.shifted_down": lambda v: W.shifted_down(v),
    "ortho_poly.k": lambda v: ortho_poly(v, 0, W),
    "ortho_poly.j": lambda v: ortho_poly(2, v, W),
    "chebyshev_s.k": lambda v: chebyshev_s(v),
    "chebyshev_closed_form_check.k": lambda v: chebyshev_closed_form_check(v, 0.5),
    "paving_count.k": lambda v: paving_count(v),
    "enumerate_pavings.k": lambda v: enumerate_pavings(v),
    "paving_polynomial.k": lambda v: paving_polynomial(v, 0, W),
    "paving_polynomial.j": lambda v: paving_polynomial(2, v, W),
    "Paving.weight.j": lambda v: enumerate_pavings(2)[1].weight(v, W),
    "decompose.k": lambda v: decompose(v, 0, W),
    "decompose.j": lambda v: decompose(2, v, W),
    "edge_cut.k": lambda v: edge_cut(v, 0, 1, W),
    "edge_cut.j": lambda v: edge_cut(3, v, 1, W),
    "edge_cut.c": lambda v: edge_cut(3, 0, v, W),
    "vertex_cut.k": lambda v: vertex_cut(v, 0, 1, W),
    "vertex_cut.j": lambda v: vertex_cut(3, v, 1, W),
    "vertex_cut.c": lambda v: vertex_cut(3, 0, v, W),
    "enumerate_paths.t": lambda v: list(enumerate_paths(v, 0, 2)),
    "enumerate_paths.y_start": lambda v: list(enumerate_paths(2, v, 2)),
    "enumerate_paths.L": lambda v: list(enumerate_paths(2, 0, v)),
    "enumerate_paths.y_end": lambda v: list(enumerate_paths(2, 0, 2, v)),
    "path_weight.start": lambda v: path_weight(LatticePath(v, ()), W),
    "generating_function.y_start": lambda v: generating_function(v, 0, 3, W, 2),
    "generating_function.order": lambda v: generating_function(0, 0, 3, W, v),
    "series_invert.order": lambda v: series_invert(1 + RHO, v),
    "LaurentPolynomial.__pow__": lambda v: (1 + RHO) ** v,
    "DmrParams.r": lambda v: DmrParams(v, 2),
    "DmrParams.L": lambda v: DmrParams(2, v),
    "FourWeightParams.r": lambda v: FourWeightParams(v, 4),
    "FourWeightParams.L": lambda v: FourWeightParams(2, v),
    "RogersParams.n": lambda v: RogersParams(v, 2),
    "RogersParams.L": lambda v: RogersParams(2, v),
    "rogers.n": lambda v: rogers(v, 2, KAPPAS),
    "rogers.L": lambda v: rogers(2, v, KAPPAS),
    "stratified_weight.n": lambda v: stratified_weight(v, 0, KAPPAS),
    "stratified_weight.l": lambda v: stratified_weight(3, v, KAPPAS),
    "rogers_weight_spec.L": lambda v: rogers_weight_spec(v, KAPPAS),
    "parse_weights.L": _json_L,
}


# (error of a negative int, error of a bool or a non-int) where it is not
# ValueError for both
ERRORS = {
    "edge_cut.c": (CutOutOfRange, ValueError),
    "vertex_cut.c": (CutOutOfRange, ValueError),
    "stratified_weight.l": (IndexOutOfRange, ValueError),
    "parse_weights.L": (SchemaError, SchemaError),
}


@pytest.mark.parametrize("value", [True, 2.5, -1], ids=repr)
@pytest.mark.parametrize("name", list(ENTRY_POINTS))
def test_every_size_and_index_follows_one_rule(name, value):
    negative, other = ERRORS.get(name, (ValueError, ValueError))
    if value == -1:
        error, wording = negative, r"must be (nonnegative|at least \d+|in \[\d+, \d+\]), got -1"
    else:
        error, wording = other, f"must be an integer, got {value!r}"
    with pytest.raises(error, match=wording):
        ENTRY_POINTS[name](value)


def test_a_cached_order_lets_no_float_or_bool_through():
    # equal keys hit one lru_cache entry unless the cache is typed, and a
    # hit never reaches the check in the body
    assert ortho_poly.cache_parameters()["typed"]
    ortho_poly(2, 0, W)
    for k, j in [(2.0, 0), (True, 0), (2, 0.0), (2, False)]:
        with pytest.raises(ValueError, match="must be an integer"):
            ortho_poly(k, j, W)


def test_a_series_order_is_an_int_of_either_sign():
    # a shifted inverse has a negative order, so only the type is refused
    assert TruncatedSeries("x", {-3: 1}, -1).truncation_order == -1
    for order in (2.7, 2.0, True):
        with pytest.raises(ValueError, match=f"must be an integer, got {order!r}"):
            TruncatedSeries("x", {0: 1}, order)


def test_a_series_exponent_is_an_int_of_either_sign():
    # a stored exponent, and the one coefficient reads or mul_poly keeps,
    # is an int of either sign, as the order is
    inv = series_invert(1 - sym("x"), 3, "x")
    assert TruncatedSeries("x", {-3: 1}, -1).coefficient(-3) == 1
    for e in (2.5, Fraction(3, 2), 2.0, True):
        with pytest.raises(ValueError, match=re.escape(f"exponent must be an integer, got {e!r}")):
            TruncatedSeries("x", {e: 1}, 3)
        with pytest.raises(ValueError, match="exponent must be an integer"):
            inv.coefficient(e)
        with pytest.raises(ValueError, match="exponent must be an integer"):
            inv.mul_poly(sym("x"), e)
