"""Closed forms for decorated Dyck path weight polynomials.

Three weight families, each with two independent evaluations:

* two boundary weights (one decorated down step at each wall, heights 1
  and L): a constant term in rho, and an equivalent 5-fold binomial sum
  over extended Catalan numbers,
* four boundary weights (two decorated rows at each wall, heights 1, 2,
  L-1, L): a constant term and a 9-fold sum,
* the nested-sum formula of Rogers type for arbitrarily many down weights,
  stratified by the exact maximum height a path attains.

The constant terms are the paper's constant-term theorem, through cuts at
the decorations (:func:`~latpoly.engines.cheb_ct`).  Only the sums use the
hatted differences kappa_hat = kappa - 1, omega_hat = omega - 1 (those keep
their intermediate polynomials sparse), substituting the user's symbols or
rationals at output.

The outer sums of the binomial expansions are infinite as written; each
summand vanishes outside the support of its binomial factors, which yields
finite ranges derived below.  One extra layer beyond the derived range is
always evaluated and checked to be zero, so a wrong bound fails loudly
instead of truncating silently.

Each sum builds every binomial triple and every power it uses once per
call (:class:`~latpoly.symbolic._Powers` grows a power by one product from
the one below), gathers a layer's pieces as tuples of their factors and
adds their products in one dict with :func:`~latpoly.symbolic._dot`, so no
piece is multiplied out first; a guard is checked on its summed layer.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, inf

from .engines import StripQuery, cheb_ct
from .errors import (GuardViolation, IndexOutOfRange, InsufficientWeights, SizeLimit,
                     _check_size)
from .symbolic import LaurentPolynomial, ONE, ZERO, _Powers, _dot, sym
from .orthopoly import WeightSpec, _weight

_KH = sym("kappa_hat")
_OH = sym("omega_hat")
_KH1 = sym("kappa_hat_1")
_KH2 = sym("kappa_hat_2")
_OH1 = sym("omega_hat_1")
_OH2 = sym("omega_hat_2")

_MAX_CHAINS = 1 << 17  # the most chains one Rogers query may walk


def binom(n: int, k: int) -> int:
    """Binomial coefficient, zero whenever n < 0, k < 0 or k > n."""
    if n < 0 or k < 0 or k > n:
        return 0
    return comb(n, k)


def extended_catalan(n: int, k: int) -> int:
    """C(2n, k) - C(2n, k-1) under the vanishing convention above."""
    return binom(2 * n, k) - binom(2 * n, k - 1)


def _check_guard(value, what: str) -> None:
    """A guard layer lies past a derived support bound, so it must be zero."""
    if value:
        raise GuardViolation(f"{what} must vanish, got {value}")


def _last_m_layer(r: int, width: int) -> int:
    """Last layer of an m sum that can be nonzero: each term of layer m
    needs m * width <= r + 1, where width is L in :func:`dmr_sum` and
    L - 2 in :func:`four_weight_sum`."""
    return (r + 1) // width


@dataclass(frozen=True)
class DmrParams:
    """Dyck paths of length 2r in a strip of height L >= 2, with the down
    weight at height 1 equal to kappa and at height L equal to omega
    (background b=0, lambda=1)."""
    r: int = None
    L: int = None
    kappa: LaurentPolynomial = field(default_factory=lambda: sym("kappa"))
    omega: LaurentPolynomial = field(default_factory=lambda: sym("omega"))

    def __post_init__(self):
        _check_size(self.r, "half-length r")
        _check_size(self.L, "strip height L", 2)
        object.__setattr__(self, "kappa", _weight(self.kappa, "kappa"))
        object.__setattr__(self, "omega", _weight(self.omega, "omega"))

    def weight_spec(self) -> WeightSpec:
        return self._spec

    @cached_property
    def _spec(self) -> WeightSpec:  # built once per model, for every engine
        return WeightSpec(self.L, 0, 1,
                          down={1: self.kappa - 1, self.L: self.omega - 1})

    def closed_form(self) -> LaurentPolynomial:
        return dmr_ct(self)

    def closed_sum(self) -> LaurentPolynomial:
        return dmr_sum(self)


@dataclass(frozen=True)
class FourWeightParams:
    """Dyck paths of length 2r in a strip of height L >= 4, with down
    weights kappa1, kappa2 at heights 1, 2 and omega2, omega1 at heights
    L-1, L (background b=0, lambda=1)."""
    r: int = None
    L: int = None
    kappa1: LaurentPolynomial = field(default_factory=lambda: sym("kappa_1"))
    kappa2: LaurentPolynomial = field(default_factory=lambda: sym("kappa_2"))
    omega1: LaurentPolynomial = field(default_factory=lambda: sym("omega_1"))
    omega2: LaurentPolynomial = field(default_factory=lambda: sym("omega_2"))

    def __post_init__(self):
        _check_size(self.r, "half-length r")
        _check_size(self.L, "strip height L", 4)
        for name in ("kappa1", "kappa2", "omega1", "omega2"):
            object.__setattr__(self, name, _weight(getattr(self, name), name))

    def weight_spec(self) -> WeightSpec:
        return self._spec

    @cached_property
    def _spec(self) -> WeightSpec:  # built once per model, for every engine
        return WeightSpec(self.L, 0, 1, down={
            1: self.kappa1 - 1,
            2: self.kappa2 - 1,
            self.L - 1: self.omega2 - 1,
            self.L: self.omega1 - 1,
        })

    def closed_form(self) -> LaurentPolynomial:
        return four_weight_ct(self)

    def closed_sum(self) -> LaurentPolynomial:
        return four_weight_sum(self)


def dmr_ct(p: DmrParams) -> LaurentPolynomial:
    """Two-wall weight polynomial as the paper's constant term in rho."""
    return cheb_ct(StripQuery(2 * p.r, 0, 0, p.L), p.weight_spec())


def dmr_sum(p: DmrParams) -> LaurentPolynomial:
    """Two-wall weight polynomial as the 5-fold extended-Catalan sum.

    The summand carries C_{r; r-k-1} and C_{r; r-k} with
    k = p1 + p2 - s1 - s2 + (L+2)m - 1, which vanish once k > r; with
    s1, s2 <= m that bounds m by (r+1)/L and, per (m, s1, s2), bounds
    p1 + p2 by r + 1 + s1 + s2 - (L+2)m.  The sums run one layer past
    those bounds and the extra layer is checked to be zero.

    Each power of kappa_hat and omega_hat is built once per call, each
    piece's rational factor is one Fraction, and each layer (the single
    sum, an m layer, its guard diagonal) is summed in one dict; a guard
    is checked on its summed layer.
    """
    r, L = p.r, p.L
    kh, oh = _Powers(_KH), _Powers(_OH)
    pieces = []
    # single sum over m >= 0: support of C_{r; r-m} ends at m = r
    for m in range(0, r + 2):
        term = extended_catalan(r, r - m)
        if m == r + 1:
            _check_guard(term, "guard layer of the single sum")
        if term:
            pieces.append((term, kh[m]))
    layers = [_dot(pieces)]

    m_max = _last_m_layer(r, L)
    for m in range(1, m_max + 2):
        pieces, guard = [], []
        for s1 in range(0, m + 1):
            for s2 in range(0, m + 1):
                sign = -1 if (s1 + s2) % 2 else 1
                pref = sign * binom(m, s1) * binom(m, s2)  # nonzero: s1, s2 <= m
                p_bound = r + 1 + s1 + s2 - (L + 2) * m  # support of p1 + p2
                p_cap = max(p_bound, -1) + 1  # one guard diagonal
                for p1 in range(0, p_cap + 1):
                    for p2 in range(0, p_cap - p1 + 1):
                        k = p1 + p2 - s1 - s2 + (L + 2) * m - 1
                        c_low = extended_catalan(r, r - k - 1)
                        c_high = extended_catalan(r, r - k)
                        if not c_low and not c_high:
                            continue
                        # pref * binomials * (c_low - (m - s2)/(m + p2) * c_high)
                        coeff = Fraction(
                            pref * binom(m - 1 + p1, p1) * binom(m + p2, p2)
                            * (c_low * (m + p2) - (m - s2) * c_high),
                            m + p2)
                        if not coeff:
                            continue
                        piece = (coeff, kh[s2 + p2], oh[s1 + p1])
                        (guard if p1 + p2 == p_cap else pieces).append(piece)
        _check_guard(_dot(guard), "guard diagonal of the p sums")
        layer = _dot(pieces)
        if m == m_max + 1:
            _check_guard(layer, "guard layer of the m sum")
        layers.append(layer)
    return _dot([(1, layer) for layer in layers]).substitute(
        {"kappa_hat": p.kappa - 1, "omega_hat": p.omega - 1})


def four_weight_ct(p: FourWeightParams) -> LaurentPolynomial:
    """Four-wall weight polynomial as the paper's constant term in rho."""
    return cheb_ct(StripQuery(2 * p.r, 0, 0, p.L), p.weight_spec())


def _inner_triple(u: int, r: int) -> LaurentPolynomial:
    """kh2 * C(2r, u+2) - (kh2 + 1) * C(2r, u+1) + C(2r, u) as a polynomial
    in kappa_hat_2."""
    hi = binom(2 * r, u + 2)
    mid = binom(2 * r, u + 1)
    lo = binom(2 * r, u)
    return _KH2 * (hi - mid) + (lo - mid)


def four_weight_sum(p: FourWeightParams) -> LaurentPolynomial:
    """Four-wall weight polynomial as the 9-fold binomial sum.

    The binomial triples vanish once u exceeds 2r + 1.  With u1 bounded
    below by r + m(L-2) + v1 + v2 (using s <= m, i <= s, j <= v), the m
    layers stop at (r+1)//(L-2) and, per m, v1 + v2 is bounded by
    r + 1 - m(L-2).  One guard layer is evaluated and checked in both the
    m and the v directions.  The second piece of the bracket is skipped
    when its binomial prefactor vanishes; that is exactly what keeps the
    exponent of (kappa_hat_1 + kappa_hat_2) nonnegative.

    An m layer first lists, in order, every u its pieces can reach at
    which triple(u) or triple(2r - 1 - u) is nonzero.  Each (v1, v2) then
    visits only the listed u between u1 and u1 + v1 + v2 and splits each
    into j1 + j2; the v sums stop where u1 passes the last listed u.  The
    pieces left out are those whose two triples are both zero, so every
    layer and every guard diagonal sums exactly what the full ranges give,
    and the guards are checked as before.

    Each binomial triple (one per u, through ``_inner_triple``) and each
    power of kappa_hat_1 + kappa_hat_2, omega_hat_1 + omega_hat_2,
    kappa_hat_2 and omega_hat_2 is built once per call, and each layer
    (an i layer, an m layer, its guard diagonal) is summed in one dict; a
    guard is checked on its summed layer.
    """
    r, L = p.r, p.L
    kh12, oh12 = _Powers(_KH1 + _KH2), _Powers(_OH1 + _OH2)
    kh2, oh2 = _Powers(_KH2), _Powers(_OH2)
    # one table per call; _inner_triple is looked up when it runs, so a
    # test may replace it
    triple = lru_cache(maxsize=None)(lambda u: _inner_triple(u, r))
    layers = []

    # double sum: support ends at i = r since u0 = r + 2i - j >= r + i
    for i in range(0, r + 2):
        pieces = []
        for j in range(0, i + 1):
            t = triple(r + 2 * i - j)
            if not t.is_zero:
                pieces.append((binom(i, j), kh12[j], kh2[i - j], t))
        layer = _dot(pieces)
        if i == r + 1:
            _check_guard(layer, "guard layer of the double sum")
        layers.append(layer)

    m_max = _last_m_layer(r, L - 2)
    for m in range(1, m_max + 2):
        pieces, guard = [], []
        v_cap = max(r + 1 - m * (L - 2), -1) + 1  # one guard diagonal
        # every u a piece of this layer can reach where either triple is nonzero
        live = [u for u in range(r + m * L + 2 * m + 2 * v_cap + 1)
                if not (triple(u).is_zero and triple(2 * r - 1 - u).is_zero)]
        last = live[-1] if live else -1
        for s1 in range(0, m + 1):
            c1_s = binom(m, s1)
            c2_s = binom(m - 1, s1)
            for i1 in range(0, s1 + 1):
                for s2 in range(0, m + 1):
                    b_s2 = binom(m, s2)
                    for i2 in range(0, s2 + 1):
                        sign = -1 if (s1 + s2 + i1 + i2) % 2 else 1
                        base = sign * binom(s1, i1) * b_s2 * binom(s2, i2)
                        u0 = r + m * L + s1 + s2 - 2 * i1 - 2 * i2
                        # u >= u0 + v1 + v2, so past last - u0 no u is live
                        reach = min(v_cap, last - u0)
                        for v1 in range(0, reach + 1):
                            c1 = c1_s * binom(v1 + m, m)
                            c2 = c2_s * binom(v1 + m - 1, m - 1)
                            for v2 in range(0, reach - v1 + 1):
                                pref_v = base * binom(v2 + m - 1, m - 1)
                                u1 = u0 + v1 + v2
                                out = guard if v1 + v2 == v_cap else pieces
                                for u in live[bisect_left(live, u1):
                                              bisect_right(live, u1 + v1 + v2)]:
                                    piece1 = triple(u)
                                    piece2 = triple(2 * r - 1 - u)
                                    k = u - u1  # j1 + j2, with j1 <= v1, j2 <= v2
                                    for j1 in range(max(0, k - v2), min(v1, k) + 1):
                                        j2 = k - j1
                                        pref = pref_v * binom(v1, j1) * binom(v2, j2)
                                        e1 = m + v1 - s1 - j1
                                        common = (kh2[i1 + j1], oh2[i2 + j2],
                                                  oh12[m + v2 - s2 - j2])
                                        if not piece1.is_zero:
                                            out.append((pref * c1, *common,
                                                        kh12[e1], piece1))
                                        if c2 and not piece2.is_zero:
                                            # c2 != 0 forces s1 <= m-1, so the
                                            # exponent e1 - 1 is nonnegative
                                            out.append((-pref * c2, *common,
                                                        kh12[e1 - 1], piece2))
        _check_guard(_dot(guard), "guard diagonal of the v sums")
        layer = _dot(pieces)
        if m == m_max + 1:
            _check_guard(layer, "guard layer of the m sum")
        layers.append(layer)
    return _dot([(1, layer) for layer in layers]).substitute(
        {"kappa_hat_1": p.kappa1 - 1, "kappa_hat_2": p.kappa2 - 1,
         "omega_hat_1": p.omega1 - 1, "omega_hat_2": p.omega2 - 1})


def _needed(n: int, L) -> int:
    """The down weights a Rogers model reads: min(n, L), n if L is None."""
    return n if L is None else min(n, L)


class _Kappas(tuple):
    """Kappas that are weights already: each read by _weight, or a kappa_i
    symbol.  A RogersParams holds its kappas as one, so the sum and the spec
    it hands them to check their count alone."""


def _kappa_weights(kappas, n: int = 0, L=None) -> _Kappas:
    """The kappas, each read by _weight unless they are _Kappas already;
    InsufficientWeights when there are fewer than the _needed(n, L) that a
    Rogers model reads."""
    if type(kappas) is not _Kappas:
        kappas = _Kappas(_weight(k, "kappa") for k in kappas)
    needed = _needed(n, L)
    if len(kappas) < needed:
        raise InsufficientWeights(f"need {needed} down weights, got {len(kappas)}")
    return kappas


def stratified_weight(n: int, l: int, kappas) -> LaurentPolynomial:
    """Weight polynomial of the length-2n Dyck paths whose maximum height is
    exactly l + 1, with down weight kappa_i at height i.

    The stratum is the nested sum over strictly decreasing index chains
    n > j_1 > j_2 > ... > j_l > 0, each chain contributing

        prod_k  C(j_k - j_{k+2} - 1, j_k - j_{k+1} - 1)
                * kappa_1^(n - j_1) * ... * kappa_{l+1}^(j_l)

    (j_0 = n, j_{l+1} = 0).  The chain records how many down steps fall
    from each height; the binomial counts the interleavings of the level
    k+2 excursions among the level k+1 arches.  It needs the kappas of the
    strip of height l + 1, min(n, l + 1).
    """
    _check_size(n, "half-length n")
    _check_size(l, "stratum index l", error=IndexOutOfRange)
    kappas = _kappa_weights(kappas, n, l + 1)
    if l >= n:
        return ZERO  # a length-2n Dyck path cannot reach height n + 1
    return _strata(n, range(l, l + 1), [_Powers(k) for k in kappas[:l + 1]])


def _strata(n: int, levels: range, powers: list) -> LaurentPolynomial:
    """The sum of the strata l in ``levels`` (0 <= l < n) of
    :func:`stratified_weight`, kappa_i**e read as powers[i-1][e]: one
    depth-first walk over the chains n = j_0 > j_1 > ... > 0 closes a chain
    with j_(l+1) = 0 at each l in ``levels``.  It carries j_(k-1), j_k, the
    binomials and the product of the powers so far (1 at the root), so
    siblings share their prefix, and a chain closes as the entry (binomials,
    prefix, last power) of one sum; j_(-1) = n + 1 makes the first binomial
    C(n - j_1, 0) = 1, and on a strictly decreasing chain every binomial is
    positive.  Stratum l has C(n - 1, l) chains, 2^(n-1) in all for the half
    plane; more than ``_MAX_CHAINS`` are refused before the walk."""
    chains = sum(comb(n - 1, l) for l in levels)
    if chains > _MAX_CHAINS:
        raise SizeLimit(f"the strata asked for hold {chains} chains, past {_MAX_CHAINS}")
    entries = []

    def walk(k: int, before: int, j: int, coeff: int, prefix: LaurentPolynomial):
        if k in levels:
            entries.append((coeff * binom(before - 1, before - j - 1), prefix, powers[k][j]))
        if k + 1 < levels.stop:
            for nxt in range(max(levels.start - k, 1), j):
                # the root's prefix is 1, so its children's is one power
                walk(k + 1, j, nxt, coeff * binom(before - nxt - 1, before - j - 1),
                     prefix * powers[k][j - nxt] if k else powers[0][j - nxt])

    walk(0, n + 1, n, 1, ONE)
    return _dot(entries)


def rogers(n: int, L, kappas) -> LaurentPolynomial:
    """Weight polynomial of all length-2n Dyck paths in a strip of height L
    (L may be None or infinity for the half plane), as the sum of the
    maximum-height strata.  Needs min(n, L) down weights (n for the half
    plane), and one walk over the chains serves every stratum."""
    _check_size(n, "half-length n")
    if L is not None and L != inf:  # min(n, inf) is n, as for None
        _check_size(L, "strip height L")
    kappas = _kappa_weights(kappas, n, L)
    if n == 0:
        return ONE  # the empty path, below any stratum
    return _strata(n, range(_needed(n, L)), [_Powers(k) for k in kappas])  # none for L = 0


def rogers_weight_spec(L: int, kappas) -> WeightSpec:
    """Strip weights matching :func:`rogers`: down weight kappa_i at height i
    (1 above the last kappa)."""
    kappas = _kappa_weights(kappas)[:_check_size(L, "strip height L")]
    return WeightSpec(L, 0, 1, down={i: k - 1 for i, k in enumerate(kappas, 1)})


@dataclass(frozen=True)
class RogersParams:
    """Dyck paths of length 2n in a strip of height L (None or infinity for
    the half plane), with down weight kappas[i-1] at height i (background
    b=0, lambda=1): kappa_1..kappa_min(n, L), n for the half plane; fewer
    raise InsufficientWeights.  Without kappas they are those symbols,
    worked out from n and L when they are used."""
    n: int = None
    L: int | None = None
    kappas: tuple | None = None

    def __post_init__(self):
        _check_size(self.n, "half-length n")
        if self.L == inf:
            object.__setattr__(self, "L", None)
        if self.L is not None:
            _check_size(self.L, "strip height L")
        if self.kappas is not None:
            object.__setattr__(self, "kappas", _kappa_weights(self.kappas, self.n, self.L))

    def _kappas(self) -> _Kappas:
        if self.kappas is not None:
            return self.kappas
        return _Kappas(sym(f"kappa_{i}") for i in range(1, max(_needed(self.n, self.L), 1) + 1))

    def weight_spec(self) -> WeightSpec:
        return self._spec

    @cached_property
    def _spec(self) -> WeightSpec:  # built once per model, for every engine
        # a length-2n path cannot rise above height n
        return rogers_weight_spec(self.n if self.L is None else self.L, self._kappas())

    def closed_form(self) -> LaurentPolynomial:
        return rogers(self.n, self.L, self._kappas())

    closed_sum = closed_form  # the nested sum is the only closed form
