"""Pavings of a path graph and the cutting identities they prove.

An order-k paving covers vertices 0..k-1 with monomers (one vertex), dimers
(two adjacent vertices) and uncovered vertices, no overlaps.  Weighted with
shift j (uncovered -> x, monomer at vertex i -> -b_{i+j}, dimer on vertices
i-1,i -> -lambda_{i+j}) and summed, the pavings reproduce the recurrence
polynomial P_k^(j), which gives a recurrence-free oracle for it.

Cutting a paving set at an edge or vertex splits P_k^(j) into products of
smaller polynomials with the cut weight pulled out as a coefficient.
Applied at every decorated position this rewrites a decorated P_k^(j) over
the undecorated background family S_m; :func:`decompose` returns that form.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CutOutOfRange, SizeLimit, _check_size
from .symbolic import LaurentPolynomial, ONE, _dot, sym
from .orthopoly import WeightSpec, ortho_poly

DEFAULT_PAVING_CAP = 500_000

_X = sym("x")


@dataclass(frozen=True)
class Paving:
    """A single paving: order plus ("uncovered"|"monomer"|"dimer", position).

    A dimer's position is its left vertex, so it covers position and
    position + 1.  The pavers jointly cover each vertex exactly once.
    """
    order: int
    pavers: tuple

    def weight(self, j: int, w: WeightSpec) -> LaurentPolynomial:
        _check_size(j, "shift j")
        sign, factors = 1, []
        for kind, pos in self.pavers:
            if kind == "uncovered":
                factors.append(_X)
            else:
                sign = -sign
                # a dimer on vertices pos, pos+1 is edge number pos+1
                factors.append(w.effective_b(pos + j) if kind == "monomer"
                               else w.effective_lambda(pos + 1 + j))
        return _dot([(sign, *factors)])

    def ascii(self) -> str:
        """Debug rendering: . uncovered, M monomer, D- dimer pair."""
        cells = [""] * self.order
        for kind, pos in self.pavers:
            if kind == "uncovered":
                cells[pos] = "."
            elif kind == "monomer":
                cells[pos] = "M"
            else:
                cells[pos] = "D"
                cells[pos + 1] = "-"
        return "".join(cells)


def paving_count(k: int, kind: str = "motzkin") -> int:
    """Number of pavings of order k without enumerating them."""
    _check_size(k, "order k")
    if kind not in ("motzkin", "ballot"):
        raise ValueError(f"kind must be 'motzkin' or 'ballot', got {kind!r}")
    a, b = 1, 2 if kind == "motzkin" else 1  # orders 0 and 1
    if k == 0:
        return a
    for _ in range(k - 1):
        a, b = b, (2 * b + a) if kind == "motzkin" else (b + a)
    return b


def enumerate_pavings(k: int, kind: str = "motzkin",
                      cap: int = DEFAULT_PAVING_CAP) -> list:
    """All pavings of order k; Ballot pavings exclude monomers."""
    total = paving_count(k, kind)
    if total > cap:
        raise SizeLimit(f"{total} pavings of order {k} exceed the cap {cap}")
    monomers = kind == "motzkin"
    out = []

    def build(pos: int, acc: list):
        if pos == k:
            out.append(Paving(k, tuple(acc)))
            return
        acc.append(("uncovered", pos))
        build(pos + 1, acc)
        acc.pop()
        if monomers:
            acc.append(("monomer", pos))
            build(pos + 1, acc)
            acc.pop()
        if pos + 1 < k:
            acc.append(("dimer", pos))
            build(pos + 2, acc)
            acc.pop()

    build(0, [])
    return out


def paving_polynomial(k: int, j: int, w: WeightSpec,
                      cap: int = DEFAULT_PAVING_CAP) -> LaurentPolynomial:
    """Sum of weighted pavings of order k with shift j; equals ortho_poly."""
    _check_size(j, "shift j")
    return _dot((1, paving.weight(j, w)) for paving in enumerate_pavings(k, "motzkin", cap))


@dataclass(frozen=True)
class DecompositionTerm:
    coefficient: LaurentPolynomial
    factors: tuple  # of (shift, order) pairs


@dataclass(frozen=True)
class Decomposition:
    """A sum of coefficient * product-of-factor-polynomials equal to P_k^(j)
    of the weight spec w it was cut from, and read only with that spec.

    A factor (shift, order) stands for P_order^(shift) of w.  A factor of
    :func:`decompose` has no decoration in its window, so it is the
    background S_order there.
    """
    k: int
    j: int
    w: WeightSpec
    terms: tuple

    @property
    def term_count(self) -> int:
        return len(self.terms)

    @property
    def max_factor_count(self) -> int:
        return max((len(t.factors) for t in self.terms), default=0)

    def expand(self) -> LaurentPolynomial:
        return _dot((term.coefficient, *(ortho_poly(order, shift, self.w)
                                         for shift, order in term.factors))
                    for term in self.terms)

    def normalized_terms(self) -> list:
        """Terms with order <= 1 factors folded into the coefficient, as
        (coefficient, sorted tuple of orders >= 2) pairs sorted canonically.
        Lets a term like S_1 * S_1 * S_5 compare equal to an expected
        x^2 * S_5."""
        out = []
        for term in self.terms:
            coeff = term.coefficient
            orders = []
            for shift, order in term.factors:
                if order <= 1:
                    coeff = coeff * ortho_poly(order, shift, self.w)
                else:
                    orders.append(order)
            out.append((coeff, tuple(sorted(orders))))
        return sorted(out, key=lambda t: (t[1], t[0].render()))


def edge_cut(k: int, j: int, c: int, w: WeightSpec) -> Decomposition:
    """Split P_k^(j) of w at edge c (the edge joining vertices c-1 and c).

    Either the edge carries no dimer, giving P_c^(j) * P_{k-c}^(j+c), or it
    carries one, giving -lambda_{c+j} * P_{c-1}^(j) * P_{k-c-1}^(j+c+1).
    """
    _check_size(k, "order k")
    _check_size(j, "shift j")
    _check_size(c, f"edge cut c of order {k}", 1, k - 1, CutOutOfRange)
    return Decomposition(k, j, w, (
        DecompositionTerm(ONE, ((j, c), (j + c, k - c))),
        DecompositionTerm(-w.effective_lambda(c + j),
                          ((j, c - 1), (j + c + 1, k - c - 1)))))


def vertex_cut(k: int, j: int, c: int, w: WeightSpec) -> Decomposition:
    """Split P_k^(j) of w at vertex c.

    Vertex c is uncovered or a monomer (coefficient x - b_{c+j}), the left
    end of a dimer (coefficient -lambda_{c+j+1}), or the right end of one
    (coefficient -lambda_{c+j}).  Terms whose factor order would go negative
    are dropped, matching P_m = 0 for m < 0.
    """
    _check_size(k, "order k")
    _check_size(j, "shift j")
    _check_size(c, f"vertex cut c of order {k}", 0, k - 1, CutOutOfRange)
    terms = [DecompositionTerm(_X - w.effective_b(c + j),
                               ((j, c), (j + c + 1, k - c - 1)))]
    if k - c - 2 >= 0:
        terms.append(DecompositionTerm(-w.effective_lambda(c + j + 1),
                                       ((j, c), (j + c + 2, k - c - 2))))
    if c - 1 >= 0:
        terms.append(DecompositionTerm(-w.effective_lambda(c + j),
                                       ((j, c - 1), (j + c + 1, k - c - 1))))
    return Decomposition(k, j, w, tuple(terms))


def _decorated_positions(k: int, j: int, w: WeightSpec) -> list:
    """(position, decoration) of each decorated edge and vertex in the window
    of P_k^(j), leftmost first.  Vertex c sits at position 2c and edge c,
    between vertices c-1 and c, at 2c - 1, so the two kinds interleave."""
    down, across = w.down_decorations, w.across_decorations
    return sorted([(2 * c - 1, down[c + j]) for c in range(1, k) if c + j in down]
                  + [(2 * c, across[c + j]) for c in range(k) if c + j in across],
                  key=lambda cut: cut[0])


def _decoration_cut(k: int, j: int, w: WeightSpec) -> list:
    """P_k^(j) as (decorations ds, orders) pairs, each term (-1)**len(ds)
    times its ds and the undecorated S_m of its orders, left unmultiplied.
    P is linear in its lowest decoration d, so P = P[d removed] - d * P_left
    * P_right: P_{c-1} and P_{k-c-1} for a down d on edge c, P_c and
    P_{k-c-1} for an across d at vertex c.  Nothing lies below d, so P_left
    is an S_m; the rest is cut again."""

    def cut(k: int, cuts: list) -> list:
        if not cuts:
            return [((), (k,))]
        (pos, d), rest = cuts[0], cuts[1:]
        c = (pos + 1) // 2
        skip = 2 * c + 2  # the right window starts at vertex c + 1
        right = cut(k - c - 1, [(p - skip, v) for p, v in rest if p >= skip])
        return cut(k, rest) + [((d, *ds), (pos // 2, *orders)) for ds, orders in right]

    return cut(k, _decorated_positions(k, j, w))


def decompose(k: int, j: int, w: WeightSpec) -> Decomposition:
    """Rewrite P_k^(j) of w over the undecorated background family S_m.

    Cuts at the leftmost decorated edge or vertex and decomposes the
    right factor again; the left one is decoration free by that choice.
    Every decoration ends up in a coefficient and every factor window is
    decoration free: an undecorated window is its one factor (none for
    k = 0).  An edge cut doubles and a vertex cut at most triples the term
    count, so with a down decorations and b across decorations inside the
    window the result has at most 2**a * 3**b terms and at most a + b + 1
    factors per term; bunched decorations give fewer.
    """
    _check_size(k, "order k")
    _check_size(j, "shift j")
    positions = _decorated_positions(k, j, w)
    if not positions:
        return Decomposition(k, j, w, (DecompositionTerm(ONE, ((j, k),) if k else ()),))
    pos = positions[0][0]
    cut = edge_cut if pos % 2 else vertex_cut
    terms = []
    for term in cut(k, j, (pos + 1) // 2, w).terms:
        left, (sub_j, sub_k) = term.factors
        kept = (left,) if left[1] > 0 else ()
        terms += [DecompositionTerm(term.coefficient * sub.coefficient, kept + sub.factors)
                  for sub in decompose(sub_k, sub_j, w).terms]
    return Decomposition(k, j, w, tuple(terms))


def decoration_window_sizes(k: int, j: int, w: WeightSpec) -> tuple:
    """(down, across) decoration counts visible to P_k^(j): down-step heights
    in [j+1, j+k-1] (odd positions of :func:`_decorated_positions`),
    across-step heights in [j, j+k-1] (even ones)."""
    positions = _decorated_positions(k, j, w)
    down = sum(pos % 2 for pos, _ in positions)
    return down, len(positions) - down
