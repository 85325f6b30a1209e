"""Five independent engines for strip path weight polynomials.

Z_t(y', y; L) sums the weights of all length-t paths from height y' to
height y that stay inside 0..L, stepping up (+1, weight 1), across (0,
weight b_height) or down (-1, weight lambda_height of the step's top).
The engines compute it by

* brute force: depth-first enumeration of every path,
* transfer matrix: entry (y', y) of the t-th power of the Jacobi matrix,
* a series form in x: coefficient of x^t in the rational generating
  function built from reciprocal recurrence polynomials,
* a constant-term form in rho: the same rational structure after
  x -> rho + b + lambda/rho, evaluated by series inversion,
* the truncated generating function itself.

All five agree exactly; mutual agreement is the library's main test
surface, with brute force as ground truth.  :func:`cheb_ct` reads the same
constant term with each recurrence polynomial cut at its decorations
instead of expanded; the closed-form constant terms of ``closedforms`` are
it, and the tests check it against the five.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .errors import SizeLimit, _check_size
from .symbolic import (
    LaurentPolynomial,
    ONE,
    TruncatedSeries,
    ZERO,
    _Powers,
    _Quotient,
    _dot,
    _inversion_order,
    _ratio_coefficient,
    _reduced,
    _rho_poly,
    constant_term_ratio,
    series_invert,
)
from .orthopoly import WeightSpec, _laurent_backgrounds, ortho_poly, to_laurent
from .paving import _decoration_cut

DEFAULT_BRUTE_CAP = 18

# packed signature layout: 6 bits per field, fields 0..L count across steps
# at each height, fields L+1..2L count down steps from heights 1..L
_FIELD_BITS = 6
_FIELD_MASK = (1 << _FIELD_BITS) - 1
_FIELD_MAX = _FIELD_MASK


@dataclass(frozen=True)
class StripQuery:
    """One evaluation point: length t, start y_start, end y_end, strip L."""
    t: int
    y_start: int
    y_end: int
    L: int

    def __post_init__(self):
        _check_size(self.t, "path length")
        _check_size(self.L, "strip height")
        _check_size(self.y_start, "y_start", 0, self.L)
        _check_size(self.y_end, "y_end", 0, self.L)

    @property
    def y_lo(self) -> int:
        return min(self.y_start, self.y_end)

    @property
    def y_hi(self) -> int:
        return max(self.y_start, self.y_end)

    def label(self) -> str:
        return f"L={self.L};t={self.t};y0={self.y_start};y1={self.y_end}"


@dataclass(frozen=True)
class LatticePath:
    """A path as a start height and a tuple of 'up'/'across'/'down' steps."""
    start: int
    steps: tuple

    def heights(self) -> list:
        out = [self.start]
        for s in self.steps:
            out.append(out[-1] + {"up": 1, "across": 0, "down": -1}[s])
        return out

    @property
    def length(self) -> int:
        return len(self.steps)

    @property
    def end(self) -> int:
        return self.heights()[-1]

    def max_height(self) -> int:
        return max(self.heights())


def _check_strip(L: int, w: WeightSpec, what: str = "query strip") -> None:
    """Refuse a strip height that is not the one the weights are for."""
    if L != w.strip_height:
        raise ValueError(f"{what} L={L} != weights strip L={w.strip_height}")


def path_weight(p: LatticePath, w: WeightSpec) -> LaurentPolynomial:
    """Product of edge weights: up -> 1, across at h -> b_h, down from h ->
    lambda_h, multiplied as one product.  The path must stay inside the
    strip of w."""
    factors = []
    L = w.strip_height
    h = _check_size(p.start, "start height", 0, L)
    for s in p.steps:
        if s == "up":
            h += 1
        elif s == "across":
            factors.append(w.effective_b(h))
        elif s == "down":
            factors.append(w.effective_lambda(h))
            h -= 1
        else:
            raise ValueError(f"bad step {s!r}")
        if not 0 <= h <= L:
            raise ValueError(f"path leaves the strip [0, {L}] at height {h}")
    return _dot([(1, *factors)])


def enumerate_paths(t: int, y_start: int, L: int, y_end: int | None = None):
    """Yield every length-t strip path from y_start (optionally to y_end)."""
    _check_size(t, "path length")
    _check_size(L, "strip height")
    _check_size(y_start, "start height", 0, L)
    if y_end is not None:
        _check_size(y_end, "end height", 0, L)
    steps: list = []

    def walk(h: int, remaining: int):
        if remaining == 0:
            if y_end is None or h == y_end:
                yield LatticePath(y_start, tuple(steps))
            return
        if y_end is not None and abs(y_end - h) > remaining:
            return
        for step, dh in (("up", 1), ("across", 0), ("down", -1)):
            nh = h + dh
            if 0 <= nh <= L:
                steps.append(step)
                yield from walk(nh, remaining - 1)
                steps.pop()

    yield from walk(y_start, t)


@lru_cache(maxsize=64)
def _signature_cells(L: int, y_start: int, t: int, zero_across: frozenset,
                     y_end: int | None = None):
    """Packed weight signatures of every length-t path from y_start, or,
    with y_end given, of every such path that ends at y_end.

    Returns {y_end: {packed signature: path count}} for every height a
    path may end at (a height that no path reaches has an empty cell).
    The signature records, per height, how many across steps and down
    steps the path used; together with unit up weights it determines the
    path weight.
    Pure depth-first enumeration, no recurrences and no merged states.  It
    prunes a step that leaves the strip, an across step at a height whose
    weight is known to be rational zero (such paths contribute nothing)
    and, with y_end given, a step after which y_end is farther away than
    the steps left: with r steps left a path stays between lo[r] and hi[r].
    A path's last step is counted where it is taken, not pushed.
    """
    across_bit = [None if i in zero_across else 1 << (_FIELD_BITS * i)
                  for i in range(L + 1)]
    down_bit = [None] + [1 << (_FIELD_BITS * (L + i)) for i in range(1, L + 1)]
    if y_end is None:
        lo, hi = [0] * (t + 1), [L] * (t + 1)
    else:  # lo[r] = max(y_end - r, 0) and hi[r] = min(y_end + r, L)
        lo = (list(range(y_end, 0, -1)) + [0] * (t + 1))[:t + 1]
        hi = (list(range(y_end, L)) + [L] * (t + 1))[:t + 1]
    cells = {y: {} for y in range(lo[0], hi[0] + 1)}
    stack = []
    if lo[t] <= y_start <= hi[t]:
        if t:
            stack.append((y_start, t, 0))
        else:
            cells[y_start][0] = 1
    while stack:
        y, remaining, sig = stack.pop()
        remaining -= 1
        across = across_bit[y]
        if remaining:
            if across is not None and lo[remaining] <= y <= hi[remaining]:
                stack.append((y, remaining, sig + across))
            if y < hi[remaining]:
                stack.append((y + 1, remaining, sig))
            if y > lo[remaining]:
                stack.append((y - 1, remaining, sig + down_bit[y]))
            continue
        # cells holds exactly the heights a path may end at
        if across is not None and y in cells:
            cell, key = cells[y], sig + across
            cell[key] = cell.get(key, 0) + 1
        if y + 1 in cells:
            cell = cells[y + 1]
            cell[sig] = cell.get(sig, 0) + 1
        if y - 1 in cells:
            cell, key = cells[y - 1], sig + down_bit[y]
            cell[key] = cell.get(key, 0) + 1
    return cells


# (L, y_start, t, zero_across) -> the one end brute force was asked of it,
# or None once it was asked a second: a single end is enumerated alone,
# and every end of a key asked of more than one shares one walk.  It is
# only a hint, so it needs no lock: either walk it picks holds the asked end
_ENDS_ASKED: dict = {}
_ENDS_KEPT = 1024


@lru_cache(maxsize=16)
def _brute_weights(w: WeightSpec) -> tuple:
    """What brute force reads of w, built once per spec: the heights whose
    across weight is zero, each packed field's slot among the distinct
    effective weights (field i is b_i for i <= L, lambda_(i-L) above) and
    one shared power table per distinct weight.  A job queries one spec
    many times before it moves on, so a few specs are kept."""
    L = w.strip_height
    weights = ([w.effective_b(i) for i in range(L + 1)]
               + [w.effective_lambda(i) for i in range(1, L + 1)])
    distinct = list(dict.fromkeys(weights))
    zero_across = frozenset(i for i in range(L + 1) if weights[i].is_zero)
    return zero_across, [distinct.index(v) for v in weights], [_Powers(v) for v in distinct]


def _evaluate_signatures(cell: dict, slots: list, powers: list) -> LaurentPolynomial:
    """Sum of count * product-of-weight-powers over a signature cell, with
    ``_brute_weights``' slots and power tables; fields of equal weight add
    their counts into one exponent."""
    grouped: dict = {}
    for sig, count in cell.items():
        exponents = [0] * len(powers)
        for slot in slots:
            exponents[slot] += sig & _FIELD_MASK
            sig >>= _FIELD_BITS
        key = tuple(exponents)
        grouped[key] = grouped.get(key, 0) + count

    # a path of up steps alone weighs 1, so its entry is its count alone
    return _dot([(count, *[powers[j][e] for j, e in enumerate(exponents) if e])
                 for exponents, count in grouped.items()])


def brute_force(q: StripQuery, w: WeightSpec, cap: int = DEFAULT_BRUTE_CAP) -> LaurentPolynomial:
    """Ground truth: exact sum of path_weight over every valid path.

    Depth-first enumeration of exactly the length-t paths, pruned at the
    strip and, for the first end asked of a start and length, toward that
    end; each path contributes its per-height step-usage signature, and
    signatures are evaluated against the effective weights afterwards
    (identical weight products are grouped, nothing else is shared between
    paths)."""
    if q.t > cap:
        raise SizeLimit(f"t={q.t} exceeds the brute-force cap {cap}")
    if q.t > _FIELD_MAX:
        raise SizeLimit(f"t={q.t} exceeds the signature field width {_FIELD_MAX}")
    _check_strip(q.L, w)
    zero_across, slots, powers = _brute_weights(w)
    key = (q.L, q.y_start, q.t, zero_across)
    if len(_ENDS_ASKED) >= _ENDS_KEPT:
        _ENDS_ASKED.clear()
    end = q.y_end if _ENDS_ASKED.setdefault(key, q.y_end) == q.y_end else None
    if end is None:
        _ENDS_ASKED[key] = None
    cells = _signature_cells(*key, end)
    return _evaluate_signatures(cells.get(q.y_end, {}), slots, powers)


@lru_cache(maxsize=8192)
def _transfer_row(L: int, w: WeightSpec, y_start: int, t: int) -> tuple:
    """Row y_start of the t-th transfer matrix power (iterated multiplication)."""
    if t == 0:
        return tuple(ONE if y == y_start else ZERO for y in range(L + 1))
    prev = _transfer_row(L, w, y_start, t - 1)
    out = []
    for y in range(L + 1):
        pairs = [(prev[y], w.effective_b(y))]
        if y - 1 >= 0:
            pairs.append((1, prev[y - 1]))  # up step into y has weight 1
        if y + 1 <= L:
            pairs.append((prev[y + 1], w.effective_lambda(y + 1)))
        out.append(_dot(pairs))
    return tuple(out)


def transfer_matrix(q: StripQuery, w: WeightSpec) -> LaurentPolynomial:
    """Entry (y_start, y_end) of the t-th power of the Jacobi matrix.  The
    rows are filled into the cache bottom-up, so none recurses further than
    the row below it, at any t."""
    _check_strip(q.L, w)
    for t in range(q.t + 1):
        row = _transfer_row(q.L, w, q.y_start, t)
    return row[q.y_end]


def h_factor(q: StripQuery, w: WeightSpec) -> LaurentPolynomial:
    """Product of effective lambda_l over y_end < l <= y_start (1 otherwise);
    compensates a start height above the end height."""
    _check_strip(q.L, w)
    return _dot([(1, *map(w.effective_lambda, range(q.y_end + 1, q.y_start + 1)))])


def _windows(q: StripQuery) -> tuple:
    """(order, shift) of P_Y', P^(Y+1)_{L-Y} and P_{L+1} in Viennot's ratio
    P_Y' * h * P^(Y+1)_{L-Y} / P_{L+1}, Y' and Y the lower and upper of the
    two boundary heights and h :func:`h_factor`; every engine that reads the
    ratio takes its windows from here."""
    return (q.y_lo, 0), (q.L - q.y_hi, q.y_hi + 1), (q.L + 1, 0)


@lru_cache(maxsize=1024)
def _ratio(y_start: int, y_end: int, L: int, w: WeightSpec) -> tuple:
    """Numerator and denominator of Viennot's ratio (see ``_windows``) in x,
    each P_k reversed at k, its degree, as ``reciprocal`` does but with no
    scan for the degree.  It does not depend on the path length, so every t
    of viennot-ct and gf reads one cached pair.  The numerator is zero
    exactly when h has a zero lambda, a wall between the two heights."""
    q = StripQuery(0, y_start, y_end, L)
    lo, hi, den = (ortho_poly(k, j, w).reverse("x", k) for k, j in _windows(q))
    return _dot([(1, lo, h_factor(q, w), hi)]), den


def viennot_ct(q: StripQuery, w: WeightSpec) -> LaurentPolynomial:
    """Coefficient of x^t in the rational generating function x^(Y-Y')
    times Viennot's ratio (see ``_ratio``) of reciprocal polynomials.  The
    denominator has constant coefficient 1 (reciprocal of a monic
    polynomial), so the series inversion is valid with fully symbolic
    weights."""
    _check_strip(q.L, w)
    e = q.t - (q.y_hi - q.y_lo)
    if e < 0:
        return ZERO
    return _ratio_coefficient(*_ratio(q.y_start, q.y_end, q.L, w), e, "x")


def generating_function(y_start: int, y_end: int, L: int, w: WeightSpec,
                        order: int) -> TruncatedSeries:
    """Truncated series in x whose x^t coefficient is Z_t(y_start, y_end; L)."""
    _check_size(order, "series order")
    q = StripQuery(0, y_start, y_end, L)
    _check_strip(L, w, "argument")
    d = q.y_hi - q.y_lo
    num, den = _ratio(y_start, y_end, L, w)
    if num.is_zero:
        return TruncatedSeries._trusted("x", {}, order)
    # the cached numerator is multiplied as it is, so its split is reused
    inv = series_invert(den, _inversion_order(num, den, order - d, "x"), var="x")
    product = inv.mul_poly(num)
    coeffs = {e: product.coefficient(e - d) for e in range(d, order + 1)}
    return TruncatedSeries._trusted("x", coeffs, order)


@lru_cache(maxsize=4096)
def _kernel_power(b: int | Fraction, lam: int | Fraction, t: int) -> LaurentPolynomial:
    """(rho + b + lam/rho)^t in O(t) whole-number steps.  With d the least
    common denominator of b and lam, B = d*b, M = d^2*lam and g = s^2 + B*s + M,
    the power is sum_n a_n d^(n-2t) rho^(n-t), a_n the coefficients of g^t.
    g * (g^t)' = t * g' * g^t gives a_2t = 1 and the exact division
    (2t-n+1) a_(n-1) = M (n+1) a_(n+1) - B (t-n) a_n, for n = 2t .. 1.  The
    power is written as the whole numbers a_n d^n over d^(2t), so its
    numerators, keyed by the exponent of rho, are what rho_ct reads."""
    d = lcm(b.denominator, lam.denominator)
    B, M = int(b * d), int(lam * d * d)
    a = [0] * (2 * t + 2)
    a[2 * t] = 1
    for n in range(2 * t, 0, -1):
        a[n - 1] = (M * (n + 1) * a[n + 1] - B * (t - n) * a[n]) // (2 * t - n + 1)
    return _rho_poly({n - t: c * d ** n for n, c in enumerate(a[:-1])}, d ** (2 * t))


@lru_cache(maxsize=512)
def _rho_denominator_inverse(y_start: int, y_end: int, L: int, w: WeightSpec):
    """The series of (lam/rho - rho) times Viennot's ratio (see ``_windows``)
    in rho, each P mapped by ``to_laurent`` with w's backgrounds, for every t."""
    q = StripQuery(0, y_start, y_end, L)
    b, lam = w.background_b, w.background_lambda
    lo, hi, den = (to_laurent(ortho_poly(k, j, w), b, lam) for k, j in _windows(q))
    return _Quotient(den, "rho", _dot([(1, lo, h_factor(q, w), hi,
                                        _rho_poly({-1: lam, 1: -1}))]))


def rho_ct(q: StripQuery, w: WeightSpec) -> LaurentPolynomial:
    """Constant term in rho of

        (rho + b + lam/rho)^t * (lam/rho - rho) * ratio

    where ratio is Viennot's ratio (see ``_ratio``) after the change of
    variable x -> rho + b + lam/rho, and b, lam are the backgrounds of w.
    They must be rational and lam nonzero (the lowest coefficient of
    P_{L+1} is then the unit lam^(L+1); ``to_laurent`` raises ZeroLambda
    otherwise); decorations may stay symbolic or zero.  (lam/rho - rho) *
    ratio is a cached series rho^s * sum_k c_k rho^k, so the constant term is
    the sum over k <= t - s of c_k times the kernel's coefficient of rho^(-s-k).
    That sum is one ``_dot`` whose scalars are the kernel's whole numerators,
    keyed by the exponent of rho, scaled once by the kernel's denominator."""
    _check_strip(q.L, w)
    state = _rho_denominator_inverse(q.y_start, q.y_end, q.L, w)
    kernel = _kernel_power(w.background_b, w.background_lambda, q.t)
    num, s = kernel._num, state.shift
    ct = _dot([(num[-s - k], c) for k, c in enumerate(state.upto(q.t - s)) if -s - k in num])
    return _reduced(ct._den * kernel._den, ct._num, ct._bound)


def cheb_ct(q: StripQuery, w: WeightSpec) -> LaurentPolynomial:
    """rho_ct's constant term, each P of Viennot's ratio cut at its decorations
    (``paving._decoration_cut``).  After x -> rho + b + lam/rho, S_0 = 1,
    S_1 = rho + lam/rho and S_m = T_m / D, with T_m = rho^(m+1) -
    (lam/rho)^(m+1) and D = rho - lam/rho, so each P is N / D^e.  The
    background lam must be nonzero, as for rho_ct."""
    _check_strip(q.L, w)
    b, lam = _laurent_backgrounds(w.background_b, w.background_lambda)
    d = _rho_poly({1: 1, -1: -lam})
    d_pow = _Powers(d)

    def s(m: int) -> LaurentPolynomial:  # S_m, times D past m = 1
        if m < 2:
            return _rho_poly({1: 1, -1: lam}) if m else ONE
        return _rho_poly({m + 1: 1, -m - 1: -lam ** (m + 1)})

    def over_d(k: int, j: int) -> tuple:  # (N, e) with P_k^(j) = N / D^e
        terms = [(ds, orders, sum(m > 1 for m in orders))
                 for ds, orders in _decoration_cut(k, j, w)]
        e = max(n for *_, n in terms)
        return _dot([((-1) ** len(ds), *ds, *map(s, orders), d_pow[e - n])
                     for ds, orders, n in terms]), e

    (lo, e_lo), (hi, e_hi), (den, e) = (over_d(k, j) for k, j in _windows(q))
    e -= e_lo + e_hi  # the leftover D goes where its power is nonnegative
    num = _dot([(-1, d, _kernel_power(b, lam, q.t), lo, h_factor(q, w), hi,
                 d_pow[max(e, 0)])])
    return constant_term_ratio(num, _dot([(den, d_pow[max(-e, 0)])]))
