"""Orthogonal polynomials of a decorated three-term recurrence.

The recurrence P_k = (x - b_{k+j-1}) P_{k-1} - lambda_{k+j-1} P_{k-2} with
P_0 = 1, P_1 = x - b_j defines the shifted family P_k^(j).  Weights come
from a :class:`WeightSpec`: rational background values b, lambda plus
additive decorations (rational or symbolic) at chosen heights.  With no
decorations the family collapses to the Chebyshev-like S_k of the
background weights alone.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

from .errors import NearBranchPoint, ZeroLambda, _check_size
from .symbolic import (SERIES_VAR, LaurentPolynomial, ONE, _exact, _rho_poly, _whole, as_poly,
                       parse_polynomial, sym)

_X = sym("x")


def _coerce_background(value, what: str) -> int | Fraction:
    if not _exact(value):
        raise TypeError(f"{what} must be an exact rational, got {value!r}")
    return _whole(value)


def _weight(value, what: str) -> LaurentPolynomial:
    """The one rule that turns a weight into a polynomial: an int, a Fraction,
    a polynomial or its text (read by parse_polynomial) that names neither
    ``x`` nor ``rho``, the engines' own variables; else ValueError."""
    try:
        poly = parse_polynomial(value) if isinstance(value, str) else as_poly(value)
    except TypeError:  # as_poly's refusal of anything but an exact value
        raise ValueError("a weight must be an integer, a Fraction, a polynomial"
                         f" or its text; {what} is {value!r}") from None
    reserved = poly._bound and sorted(poly.symbols() & {"x", SERIES_VAR})  # 0 for a constant
    if reserved:
        raise ValueError(f"{what} names {reserved[0]!r}, "
                         "a variable the engines reserve for themselves")
    return poly


class WeightSpec:
    """Strip weights: rational backgrounds plus decorations on heights.

    Effective weights are b_i = b + across[i] and lambda_i = lam + down[i],
    with the background value alone at undecorated heights.  Down
    decorations live on heights 1..L, across decorations on 0..L.  Any
    weight may be zero: a zero lambda_i is a wall that no path steps down
    through.  Each decoration is read by :func:`_weight`, so it may be text
    and may not name ``x`` or ``rho``.  A spec is immutable and its
    decorations are read-only mappings.  Equal specs compare and hash by
    value, and a bounded cache hands every caller the one spec built for a
    value, so an engine cache keyed by a spec hits by identity; each
    effective weight is computed once, when that spec is built.
    """

    __slots__ = ("strip_height", "background_b", "background_lambda",
                 "across_decorations", "down_decorations", "_key", "_hash",
                 "_b", "_b_at", "_lambda", "_lambda_at")

    def __new__(cls, L: int, b=0, lam=1, across=None, down=None):
        _check_size(L, "strip height")
        return _interned_spec(cls, (
            _coerce_background(b, "background b"),
            _coerce_background(lam, "background lambda"), L,
            cls._check_decorations(across, 0, L, "across decoration"),
            cls._check_decorations(down, 1, L, "down decoration")))

    @staticmethod
    def _check_decorations(values, lo: int, hi: int, what: str) -> tuple:
        """The nonzero decorations as sorted (height, polynomial) pairs."""
        out = {}
        for height, value in (values or {}).items():
            _check_size(height, f"{what} height", lo, hi)
            poly = _weight(value, f"{what} at height {height}")
            if not poly.is_zero:
                out[height] = poly
        return tuple(sorted(out.items()))

    def __setattr__(self, name, *value):
        raise AttributeError("a WeightSpec is immutable: equal specs are one object")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), (self.strip_height, self.background_b, self.background_lambda,
                            dict(self.across_decorations), dict(self.down_decorations))

    def effective_b(self, i: int) -> LaurentPolynomial:
        """b_i = background + decoration (background alone beyond the strip)."""
        return self._b_at.get(i, self._b)

    def effective_lambda(self, i: int) -> LaurentPolynomial:
        return self._lambda_at.get(i, self._lambda)

    @property
    def across_heights(self) -> frozenset:
        return frozenset(self.across_decorations)

    @property
    def down_heights(self) -> frozenset:
        return frozenset(self.down_decorations)

    def shifted_down(self, j: int) -> "WeightSpec":
        """Move the strip and every decoration j heights down.

        Decorations falling below height 0 (1 for down steps) drop off."""
        _check_size(j, "shift", 0, self.strip_height)
        across = {h - j: v for h, v in self.across_decorations.items() if h - j >= 0}
        down = {h - j: v for h, v in self.down_decorations.items() if h - j >= 1}
        return WeightSpec(self.strip_height - j, self.background_b,
                          self.background_lambda, across, down)

    @classmethod
    def generic(cls, L: int) -> "WeightSpec":
        """Fully symbolic weights: b_i, lambda_i free symbols at every height."""
        return cls(
            L, 0, 0,
            across={i: sym(f"b{i}") for i in range(L + 1)},
            down={i: sym(f"lambda{i}") for i in range(1, L + 1)},
        )

    def __eq__(self, other):
        if not isinstance(other, WeightSpec):
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return (f"WeightSpec(L={self.strip_height}, b={self.background_b}, "
                f"lam={self.background_lambda}, "
                f"across={{{', '.join(f'{h}: {v}' for h, v in sorted(self.across_decorations.items()))}}}, "
                f"down={{{', '.join(f'{h}: {v}' for h, v in sorted(self.down_decorations.items()))}}})")


@lru_cache(maxsize=4096, typed=True)
def ortho_poly(k: int, j: int, w: WeightSpec) -> LaurentPolynomial:
    """Order-k shift-j polynomial P_k^(j) of the three-term recurrence for w,
    the only code that runs the recurrence.  The lower orders are filled
    into the cache bottom-up first, so the stack stays flat at any order.
    The cache is typed, so a 2.0 or a True never hits the entry of 2 or 1
    and is checked."""
    _check_size(k, "order k")
    _check_size(j, "shift j")
    if k == 0:
        return ONE
    if k == 1:
        return _X - w.effective_b(j)
    for i in range(2, k):
        ortho_poly(i, j, w)
    prev, prev2 = ortho_poly(k - 1, j, w), ortho_poly(k - 2, j, w)
    return (_X - w.effective_b(k + j - 1)) * prev - w.effective_lambda(k + j - 1) * prev2


@lru_cache(maxsize=64)
def _interned_spec(cls, key: tuple) -> WeightSpec:
    """The one spec of a validated key (b, lam, L, across, down)."""
    w = object.__new__(cls)
    b, lam, L, across, down = key
    b_poly, lam_poly = as_poly(b), as_poly(lam)
    for name, value in (
            ("strip_height", L), ("background_b", b), ("background_lambda", lam),
            ("across_decorations", MappingProxyType(dict(across))),
            ("down_decorations", MappingProxyType(dict(down))),
            ("_key", key), ("_hash", hash(key)), ("_b", b_poly), ("_lambda", lam_poly),
            ("_b_at", {i: b_poly + v for i, v in across}),
            ("_lambda_at", {i: lam_poly + v for i, v in down})):
        object.__setattr__(w, name, value)
    return w


def chebyshev_s(k: int, b=0, lam=1) -> LaurentPolynomial:
    """Constant-weight solution S_k of the recurrence: ortho_poly(k, 0, .)
    over weights with b and lam at every height, read as a WeightSpec reads
    a decoration (text included).  Equals ortho_poly(k, j, w) for every j
    when w carries no decorations."""
    _check_size(k, "order k")
    w = WeightSpec(k, 0, 0, across=dict.fromkeys(range(k + 1), b),
                   down=dict.fromkeys(range(1, k + 1), lam))
    return ortho_poly(k, 0, w)


def reciprocal(p: LaurentPolynomial) -> LaurentPolynomial:
    """x**k * p(1/x), k the degree of p in x: coefficient order reversed, so
    a monic P_k gets constant coefficient 1."""
    return p.reverse("x", p.max_exponent("x"))


def _laurent_backgrounds(b, lam) -> tuple:
    """(b, lam) as exact backgrounds of x -> rho + b + lam/rho, which needs a
    nonzero lam."""
    lam = _coerce_background(lam, "lambda")
    if lam == 0:
        raise ZeroLambda("lambda must be nonzero for the Laurent substitution")
    return _coerce_background(b, "b"), lam


@lru_cache(maxsize=4096)
def _to_laurent_cached(poly: LaurentPolynomial, b: int | Fraction,
                       lam: int | Fraction) -> LaurentPolynomial:
    return poly.substitute({"x": _rho_poly({1: 1, 0: b, -1: lam})})


def to_laurent(p: LaurentPolynomial, b, lam) -> LaurentPolynomial:
    """Laurent form of p under x -> rho + b + lam/rho; exponents in [-k, k]
    for p of degree k in x."""
    return _to_laurent_cached(p, *_laurent_backgrounds(b, lam))


def chebyshev_closed_form_check(k: int, x0: float) -> tuple[float, float]:
    """Pair (recurrence value, surd formula value) of S_k at x0 for b=0, lam=1.

    chebyshev_s(k) is evaluated exactly at Fraction(x0) and converted to
    float at the end; the closed form uses complex arithmetic so both sides
    of x*x = 4 work.  Used only as a numeric validation pair, never as a
    computation path.
    """
    _check_size(k, "order k")
    if abs(x0 * x0 - 4.0) < 1e-6:
        raise NearBranchPoint(f"x0={x0} too close to a branch point")
    exact = chebyshev_s(k).substitute({"x": Fraction(x0)}).as_fraction()
    root = cmath.sqrt(complex(x0 * x0 - 4.0))
    closed = ((x0 + root) ** (k + 1) - (x0 - root) ** (k + 1)) / (2 ** (k + 1) * root)
    return (float(exact), closed.real)
