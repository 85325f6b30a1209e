"""Exact sparse multivariate Laurent polynomials over the rationals.

A polynomial is a mapping from monomials to coefficients.  At the boundary
(the constructor and :meth:`LaurentPolynomial.terms`) a monomial is a
sorted tuple of (symbol, exponent) pairs with every exponent a nonzero
``int``; the empty tuple is the constant monomial.  Coefficients are exact
and zero coefficients are never stored, so structural equality of
normalized values coincides with mathematical equality.  Floats are
rejected outright, and so is an exponent that is not an ``int`` (or is a
``bool``).

Inside, a monomial is packed into one ``int`` key, as in Monagan and
Pearce's sparse multiplication: each symbol owns a fixed-width field of
``_FIELD_BITS`` bits, and the key is the sum of exponent << field offset.
A product of monomials is then one integer addition.  Fields are handed
out on a symbol's first use by an append-only, lock-guarded slot registry;
``rho`` owns slot 0, the lowest bits, and is the only signed field.  Every
polynomial carries a bound on its largest |exponent| (products add the
bounds, sums take the larger), and an operation whose bound would reach
``_LIMIT`` raises :class:`SizeLimit` instead of letting an exponent carry
into the next field.  Keys are decoded back to tuples only at the boundary
(``terms``, ``symbols``, rendering, ``substitute``), through a bounded
cache.

One rule holds for every coefficient that :meth:`LaurentPolynomial.terms`
returns: a value whose denominator is 1 is an ``int``, anything else a
``Fraction`` (see :func:`_whole`).  Inside, a polynomial is held as int
numerators over one common denominator in lowest terms, which makes the
held form unique.  Sums and products run integer arithmetic on the
numerators and reduce once, so whole and non-whole coefficients cost about
the same; the coefficients themselves are formed when first read.  A
constant polynomial hashes as its value, since it compares equal to it.

A sum of products, which is how every engine reads its answer, goes
through :func:`_dot`: each term product of an entry's factors, however
many, is added into one accumulator, as in Monagan and Pearce, and the sum
is reduced once, so no product is built as a polynomial of its own.  An
entry's first factor may be an exact scalar, which scales the rest with no
ring product: ``*`` is the case of one pair, and ``+`` and ``-`` of two,
with partners 1 and -1.

Only the distinguished series variable ``rho`` may carry negative exponents.
All other symbols live in an ordinary polynomial ring; that restriction
makes the precondition of :func:`series_invert` checkable in one pass over
the lowest coefficient.

:class:`TruncatedSeries` holds finitely many coefficients of a Laurent
series in one designated variable, each coefficient a polynomial in the
remaining symbols, together with the largest exponent that can be trusted.
"""

from __future__ import annotations

import re
import threading
from fractions import Fraction
from functools import lru_cache
from math import gcd, inf, lcm

from .errors import (
    NonInvertibleSubstitution,
    NonUnitLeadingCoefficient,
    SizeLimit,
    TruncationInsufficient,
    _check_size,
)

#: the single variable allowed negative exponents
SERIES_VAR = "rho"

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

# a monomial is one int key: the exponent of the symbol in slot i, times
# 2**(_FIELD_BITS * i), summed over the symbols; the constant monomial is 0
_FIELD_BITS = 32
_FIELD_MASK = (1 << _FIELD_BITS) - 1
#: every |exponent| stays below this, so no field carries into the next
_LIMIT = 1 << (_FIELD_BITS - 1)

_NAMES = [SERIES_VAR]         # slot -> symbol, append-only
_SLOTS = {SERIES_VAR: 0}      # symbol -> slot
_SLOTS_LOCK = threading.Lock()


def _slot(name: str) -> int:
    """The field of ``name``, handed out on its first use and never moved."""
    slot = _SLOTS.get(name)
    if slot is None:
        with _SLOTS_LOCK:
            slot = _SLOTS.get(name)
            if slot is None:
                slot = len(_NAMES)
                _NAMES.append(name)
                _SLOTS[name] = slot
    return slot


def _read_field(keys, slot: int) -> list:
    """The exponent held in field ``slot`` of each key.  Slot 0 (rho) is
    signed; adding _LIMIT first undoes the borrow a negative one takes."""
    if slot:
        shift = _FIELD_BITS * slot
        return [((m + _LIMIT) >> shift) & _FIELD_MASK for m in keys]
    return [((m + _LIMIT) & _FIELD_MASK) - _LIMIT for m in keys]


def _checked(bound: int) -> int:
    if bound >= _LIMIT:
        raise SizeLimit(f"an exponent could reach {bound}, "
                        f"past the {_FIELD_BITS}-bit field limit {_LIMIT - 1}")
    return bound


def _encode(mono) -> tuple:
    """Key and largest |exponent| of (symbol, exponent) pairs; a symbol
    named twice gets the sum of its exponents."""
    exps: dict = {}
    for name, e in mono:
        if isinstance(e, bool) or not isinstance(e, int):
            raise TypeError(f"exponent must be an int, got {e!r}")
        name = str(name)
        exps[name] = exps.get(name, 0) + e
    key = bound = 0
    for name, e in exps.items():
        if not e:
            continue
        if e < 0 and name != SERIES_VAR:
            raise ValueError(
                f"negative exponent on {name!r}: only {SERIES_VAR!r} may be negative")
        if not _NAME_RE.match(name):
            raise ValueError(f"bad symbol name {name!r}")
        bound = _checked(max(bound, abs(e)))
        key += e << (_FIELD_BITS * _slot(name))
    return key, bound


@lru_cache(maxsize=4096)
def _decode(key: int) -> tuple:
    """The sorted (symbol, exponent) pairs of a key; the loop jumps from
    one nonzero field to the next by the lowest set bit."""
    low, = _read_field((key,), 0)
    rest = key - low
    pairs = [(SERIES_VAR, low)] if low else []
    while rest:
        slot = ((rest & -rest).bit_length() - 1) // _FIELD_BITS
        shift = _FIELD_BITS * slot
        e = (rest >> shift) & _FIELD_MASK
        pairs.append((_NAMES[slot], e))
        rest -= e << shift
    return tuple(sorted(pairs))


def _exact(value) -> bool:
    """int or Fraction, but not bool."""
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


def _whole(value) -> int | Fraction:
    """The coefficient rule: an exact value whose denominator is 1 as int."""
    if type(value) is Fraction and value.denominator == 1:
        return value.numerator
    return value


def _coerce_coeff(value) -> int | Fraction:
    if _exact(value):
        return value
    raise TypeError(f"exact coefficient required, got {type(value).__name__}")


def _reduced(d: int, nums: dict, bound: int) -> "LaurentPolynomial":
    """The polynomial nums / d (packed keys, nonzero int values, every
    |exponent| at most ``bound``), brought to lowest terms; every
    polynomial but the constructor's is made here."""
    if d != 1:
        g = gcd(d, *nums.values())
        if g != 1:
            d //= g
            nums = {m: v // g for m, v in nums.items()}
    p = object.__new__(LaurentPolynomial)
    p._den = d
    p._num = nums
    p._bound = bound
    p._t = None
    p._hash = None
    p._parts = None
    return p


def _rho_poly(coeffs: dict, den: int = 1) -> "LaurentPolynomial":
    """The sum of c/den * rho**e over {e: c}, each e an int, each c an int
    or a Fraction, den a positive int: rho owns slot 0, so the key of rho**e
    is e itself.  Zero coefficients are dropped, the result is in lowest
    terms, and an |e| at the field limit raises SizeLimit, as the
    constructor does.  Every polynomial in rho alone that an engine writes
    is made here, with no tuple monomial and no per-term Fraction."""
    bound = _checked(max(map(abs, coeffs), default=0))
    d = lcm(*[c.denominator for c in coeffs.values()])
    return _reduced(d * den, {e: c.numerator * (d // c.denominator)
                              for e, c in coeffs.items() if c}, bound)


def _scaled(nums: dict, c: int) -> dict:
    """A new dict of c times every numerator: a copy when c is 1, empty
    when c is 0.  It is not inlined in _dot, where a comprehension would
    turn the locals it reads into closure cells that every call pays for."""
    if c == 1:
        return dict(nums)
    return {m: c * v for m, v in nums.items()} if c else {}


def _factors(entry) -> tuple:
    """What _dot reads of an entry (a, f1, ..., fk) that is not a pair: the
    summed bound s of its factors, the product d of their denominators and
    two numerator dicts x and y whose term products are the entry's.  A
    constant factor only scales; of the others, y is the one with the most
    terms and x the rest multiplied out, keyed only once s is checked.  A
    zero factor makes the entry empty."""
    a = entry[0]
    if type(a) is LaurentPolynomial:
        c, d, rest = 1, 1, entry
    else:
        c, d, rest = a.numerator, a.denominator, entry[1:]
    s, nums = 0, []
    for f in rest:
        num = f._num
        d *= f._den
        if len(num) == 1 and 0 in num:
            c *= num[0]
        elif num:
            s += f._bound
            nums.append(num)
        else:
            return 0, 1, {}, {}
    _checked(s)
    nums.sort(key=len)
    y = nums.pop() if nums else {0: 1}
    x = _scaled(nums.pop(0), c) if nums else {0: c}
    for num in nums:
        grown: dict = {}
        for m1, c1 in x.items():
            for m2, c2 in num.items():
                m = m1 + m2
                grown[m] = grown.get(m, 0) + c1 * c2
        x = grown
    return s, d, x, y


def _dot(entries) -> "LaurentPolynomial":
    """The sum of the products of an iterable of entries, in one pass.  An
    entry is a tuple (a, f1, ..., fk): every f is a polynomial, and a is one
    too or an exact scalar (int or Fraction), which scales the f as one
    constant term with no ring product.  Every term product is added into
    one dict over a common denominator, rescaled only when an entry's
    denominator does not divide it, and the sum is reduced once; an entry's
    summed bound is checked before any of its keys.  A pair (a, b) takes a
    path of its own (see :func:`_factors` for the rest), and a scalar pair
    that meets an empty sum fills it in one step, so ``+`` and ``-`` add
    term by term only their second operand."""
    D, bound, out = 1, 0, {}
    get = out.get
    for entry in entries:
        if len(entry) == 2:
            a, b = entry
            y = b._num
            if type(a) is LaurentPolynomial:
                s, x, d = a._bound + b._bound, a._num, a._den * b._den
                if len(x) > len(y):
                    x, y = y, x
            else:
                s, x, d = b._bound, None, a.denominator * b._den
        else:
            s, d, x, y = _factors(entry)
        if s > bound:
            bound = _checked(s)
        if D % d:
            grow = d // gcd(D, d)
            D *= grow
            for m in out:
                out[m] *= grow
        k = D // d
        if x is None:
            if not out:
                # a scalar pair into an empty sum: no two terms can meet
                out = _scaled(y, a.numerator * k)
                get = out.get
                continue
            x = {0: a.numerator}
        for m1, c1 in x.items():
            c1 *= k
            for m2, c2 in y.items():
                m = m1 + m2
                v = get(m, 0) + c1 * c2
                if v:
                    out[m] = v
                elif m in out:
                    del out[m]
    return _reduced(D, out, bound)


def _split(p: "LaurentPolynomial", var: str) -> dict:
    """{exponent of var: its coefficient} of p in one pass over the terms;
    :meth:`LaurentPolynomial.split` keeps what this returns."""
    slot = _SLOTS.get(var)
    if slot is None:
        return {0: p} if p._num else {}
    shift = _FIELD_BITS * slot
    parts: dict = {}
    for (m, c), e in zip(p._num.items(), _read_field(p._num, slot)):
        parts.setdefault(e, {})[m - (e << shift)] = c
    return {e: _reduced(p._den, t, p._bound) for e, t in parts.items()}


class LaurentPolynomial:
    """Immutable exact polynomial, Laurent in ``rho`` only.

    Build values with :func:`sym`, :func:`monomial` and ordinary arithmetic;
    the class overloads +, -, * and ** (nonnegative integer powers), and
    mixes freely with int and Fraction operands.
    """

    # the value is _num / _den in lowest terms: _num maps each packed
    # monomial key to a nonzero int and _den is the least common
    # denominator; _bound is at least every |exponent| of every field; _t
    # holds the terms with decoded monomials, formed when first read, and
    # _parts the last split, (var, {exponent: coefficient})
    __slots__ = ("_den", "_num", "_bound", "_t", "_hash", "_parts")

    def __init__(self, terms=None):
        normalized: dict = {}
        bound = 0
        for mono, coeff in (terms or {}).items():
            coeff = _coerce_coeff(coeff)
            key, b = _encode(mono)
            if coeff == 0:
                continue
            bound = max(bound, b)
            normalized[key] = normalized.get(key, 0) + coeff
        normalized = {m: c for m, c in normalized.items() if c != 0}
        # the least common denominator of reduced fractions leaves the
        # numerators with no factor in common with it: lowest terms
        d = lcm(*[c.denominator for c in normalized.values()])
        self._den = d
        self._num = {m: c.numerator * (d // c.denominator) for m, c in normalized.items()}
        self._bound = bound
        self._t = None
        self._hash = None
        self._parts = None

    # -- inspection ---------------------------------------------------------

    def terms(self):
        """Mapping of monomial tuples to coefficients (do not mutate)."""
        t = self._t
        if t is None:
            d = self._den
            t = self._t = {_decode(m): Fraction(v, d) if v % d else v // d
                           for m, v in self._num.items()}
        return t

    @property
    def is_zero(self) -> bool:
        return not self._num

    @property
    def is_rational(self) -> bool:
        """True when no symbols occur (the zero polynomial counts)."""
        return all(not m for m in self._num)

    def as_fraction(self) -> Fraction:
        """The value of a constant polynomial, as a Fraction."""
        if not self._num:
            return Fraction(0)
        if len(self._num) == 1 and 0 in self._num:
            return Fraction(self._num[0], self._den)
        raise ValueError(f"not a constant polynomial: {self}")

    def symbols(self) -> set:
        return {name for m in self._num for name, _ in _decode(m)}

    def term_count(self) -> int:
        return len(self._num)

    def _exponents(self, var: str) -> list:
        """The exponent of ``var`` in each term, read from its field."""
        if not self._num:
            raise ValueError("zero polynomial has no extremal exponent")
        slot = _SLOTS.get(var)
        return [0] if slot is None else _read_field(self._num, slot)

    def min_exponent(self, var: str) -> int:
        return min(self._exponents(var))

    def max_exponent(self, var: str) -> int:
        return max(self._exponents(var))

    def split(self, var: str) -> dict:
        """{exponent of var: its coefficient, a polynomial in the other
        symbols}, built in one pass over the terms when first asked for
        ``var`` and kept; each call returns a new dict."""
        return dict(self._kept_split(var))

    def _kept_split(self, var: str) -> dict:
        """The kept split by ``var`` itself, made if need be: read, never
        mutate."""
        kept = self._parts
        if kept is None or kept[0] != var:
            kept = self._parts = (var, _split(self, var))
        return kept[1]

    def coefficient_of(self, var: str, exponent: int) -> "LaurentPolynomial":
        """Coefficient of var**exponent, as a polynomial in the other symbols."""
        return self.split(var).get(exponent, ZERO)

    def constant_term(self, var: str = SERIES_VAR) -> "LaurentPolynomial":
        """Coefficient of var**0 (all terms not containing var)."""
        return self.coefficient_of(var, 0)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        return _dot(((1, self), (1, as_poly(other))))

    __radd__ = __add__

    def __neg__(self):
        return _reduced(self._den, {m: -v for m, v in self._num.items()}, self._bound)

    def __sub__(self, other):
        return _dot(((1, self), (-1, as_poly(other))))

    def __rsub__(self, other):
        return _dot(((1, as_poly(other)), (-1, self)))

    def __mul__(self, other):
        if type(other) is LaurentPolynomial:
            return _dot(((self, other),))
        return _dot(((_coerce_coeff(other), self),))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        _check_size(n, "polynomial power")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n >> 1
            if base_needed:
                base = base * base
            n = base_needed
        return result

    def __eq__(self, other):
        if not isinstance(other, LaurentPolynomial):
            if not _exact(other):
                return NotImplemented
            other = as_poly(other)
        # lowest terms make (_den, _num) unique to the value
        return self._den == other._den and self._num == other._num

    def __hash__(self):
        if self._hash is None:
            num = self._num
            if len(num) > 1 or (num and 0 not in num):
                self._hash = hash((self._den, frozenset(num.items())))
            else:
                # a constant equals its value, so it hashes as that value;
                # a whole one as its int, with no Fraction built
                c = num.get(0, 0)
                self._hash = hash(c if self._den == 1 else Fraction(c, self._den))
        return self._hash

    def __bool__(self):
        return bool(self._num)

    def __reduce__(self):
        # slots differ from process to process, so a pickle holds the terms
        return LaurentPolynomial, (self.terms(),)

    # -- structural operations ----------------------------------------------

    def substitute(self, bindings: dict) -> "LaurentPolynomial":
        """Simultaneously replace symbols by polynomials or rationals.

        A symbol appearing with a negative exponent may only be bound to an
        invertible monomial (single term whose inverse stays in the ring);
        anything else raises NonInvertibleSubstitution.
        """
        bound = {name: as_poly(v) for name, v in bindings.items()}
        tables: dict = {}  # (name, e < 0) -> powers of the binding or its inverse

        def bound_power(name: str, e: int) -> LaurentPolynomial:
            table = tables.get((name, e < 0))
            if table is None:
                p = bound[name]
                if e < 0:
                    p = _monomial_inverse(p)
                    if p is None:
                        raise NonInvertibleSubstitution(
                            f"binding of {name!r} to power {e} is not one term in rho")
                table = tables[(name, e < 0)] = _Powers(p)
            return table[abs(e)]

        entries = []
        for m, c in self._num.items():
            kept = m
            factors = []
            for name, e in _decode(m):
                if name in bound:
                    factors.append(bound_power(name, e))
                    kept -= e << (_FIELD_BITS * _SLOTS[name])
            term = _reduced(self._den, {kept: c}, self._bound)
            entries.append((term, *factors) if factors else (1, term))
        return _dot(entries)

    def reverse(self, var: str, k: int) -> "LaurentPolynomial":
        """Exponent reversal e -> k - e in ``var`` (i.e. var**k * p(1/var)).

        Requires 0 <= e <= k for every exponent of ``var`` so the result
        stays in the ordinary polynomial ring.
        """
        slot = _slot(var)
        shift = _FIELD_BITS * slot
        bound = _checked(max(self._bound, k))
        out = {}
        for (m, c), e in zip(self._num.items(), _read_field(self._num, slot)):
            if e < 0 or e > k:
                raise ValueError(f"exponent {e} of {var!r} outside [0, {k}]")
            out[m + ((k - 2 * e) << shift)] = c
        return _reduced(self._den, out, bound)

    def divmod_monic(self, divisor: "LaurentPolynomial", var: str):
        """Quotient and remainder by a divisor monic in ``var``.

        Monic means the leading coefficient (as a polynomial in ``var``) is
        the constant 1, so no coefficient division is ever needed.
        """
        if divisor.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        d_deg = divisor.max_exponent(var)
        if divisor.coefficient_of(var, d_deg) != ONE:
            raise ValueError(f"divisor is not monic in {var!r}")
        quotient = ZERO
        remainder = self
        while not remainder.is_zero and remainder.max_exponent(var) >= d_deg:
            e = remainder.max_exponent(var)
            lead = remainder.coefficient_of(var, e)
            shift = lead * monomial(1, **{var: e - d_deg})
            quotient = quotient + shift
            remainder = remainder - shift * divisor
        return quotient, remainder

    # -- rendering ------------------------------------------------------------

    def _sorted_terms(self):
        """(monomial tuple, numerator) pairs in rendering order."""
        items = [(_decode(m), v) for m, v in self._num.items()]
        names = sorted({n for mono, _ in items for n, _ in mono})
        index = {n: i for i, n in enumerate(names)}

        def key(item):
            vec = [0] * len(names)
            degree = 0
            for n, e in item[0]:
                vec[index[n]] = e
                degree += e
            return degree, vec

        return sorted(items, key=key, reverse=True)

    def render(self) -> str:
        """Canonical text form: terms by descending total degree, then
        descending lexicographic exponent vector over the sorted symbols.
        The text depends on the value alone, so equal values are formatted
        once, through a small cache."""
        return _render(self)

    def latex(self) -> str:
        """LaTeX rendering (presentation only, same term order as render).
        ``b0`` and ``b_0`` both print as ``b_{0}``."""
        def factor(n, e):
            base = _latex_symbol(n)
            return base if e == 1 else f"{base}^{{{e}}}"

        def magnitude(num, den):
            return f"\\frac{{{num}}}{{{den}}}" if den != 1 else str(num)

        return self._format(factor, magnitude, " ")

    def _format(self, factor, magnitude, sep: str) -> str:
        """The term loop of render and latex: each term is its sign, then its
        magnitude num/den in lowest terms (left out when it is 1 and the
        term has symbols) and its factors joined by ``sep``."""
        text = ""
        for mono, v in self._sorted_terms():
            g = gcd(v, self._den)
            num, den = abs(v) // g, self._den // g
            parts = [factor(n, e) for n, e in mono]
            if num != 1 or den != 1 or not parts:
                parts.insert(0, magnitude(num, den))
            body = sep.join(parts)
            if not text:
                text = body if v > 0 else f"-{body}"
            else:
                text += f" {'-' if v < 0 else '+'} {body}"
        return text or "0"

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"LaurentPolynomial({self.render()})"


_GREEK = {
    "alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta",
    "iota", "kappa", "lambda", "mu", "nu", "xi", "pi", "rho", "sigma",
    "tau", "upsilon", "phi", "chi", "psi", "omega",
}


def _latex_symbol(name: str) -> str:
    m = re.fullmatch(r"([A-Za-z]+)(?:_?(\d+))?", name)
    if m:
        stem, sub = m.groups()
        tex = f"\\{stem}" if stem in _GREEK else stem
        return f"{tex}_{{{sub}}}" if sub else tex
    return name.replace("_", "\\_")


# a query's equal answers come one after another, so a small bound serves
@lru_cache(maxsize=32)
def _render(p: LaurentPolynomial) -> str:
    return p._format(lambda n, e: n if e == 1 else f"{n}^{e}",
                     lambda num, den: f"{num}/{den}" if den != 1 else str(num), "*")


ZERO = LaurentPolynomial()
ONE = LaurentPolynomial({(): 1})


def as_poly(value) -> LaurentPolynomial:
    """Coerce an int, Fraction or polynomial to a LaurentPolynomial."""
    if isinstance(value, LaurentPolynomial):
        return value
    if _exact(value):
        if not value:
            return ZERO
        return _reduced(value.denominator, {0: value.numerator}, 0)
    raise TypeError(f"cannot interpret {type(value).__name__} as a polynomial")


def sym(name: str) -> LaurentPolynomial:
    """The polynomial consisting of the single symbol ``name``."""
    if not _NAME_RE.match(name):
        raise ValueError(f"bad symbol name {name!r}")
    return _reduced(1, {1 << (_FIELD_BITS * _slot(name)): 1}, 1)


def monomial(coeff, **exponents) -> LaurentPolynomial:
    """Single-term polynomial, e.g. monomial(3, rho=-2, x=1)."""
    return LaurentPolynomial({tuple(exponents.items()): _coerce_coeff(coeff)})


class TruncatedSeries:
    """Finitely many coefficients of a Laurent series in one variable.

    ``coefficients`` maps exponents of ``var`` to polynomials in the other
    symbols; every stored exponent is at most ``truncation_order``, the
    largest exponent whose coefficient is trusted.  A series made by
    ``mul_poly(p, exponent=e)`` knows the coefficient of var**e alone and
    refuses to read or multiply anything else.

    The constructor checks the order and every exponent and coefficient it
    is given.  :func:`series_invert`, :meth:`mul_poly` and the engines'
    generating function compute their exponents from ints already checked,
    none past the order, so they build their results through ``_trusted``,
    which only drops zero coefficients.
    """

    __slots__ = ("var", "_coeffs", "truncation_order", "_only")

    def __init__(self, var: str, coefficients: dict, truncation_order: int):
        # a shifted inverse has a negative order, so only the type is checked
        _check_size(truncation_order, "truncation order", lo=-inf)
        self.var = var
        self._coeffs = {}
        for e, c in coefficients.items():
            _check_size(e, "exponent", lo=-inf)
            c = as_poly(c)
            if c.is_zero:
                continue
            if e > truncation_order:
                raise ValueError(
                    f"stored exponent {e} beyond truncation order {truncation_order}")
            self._coeffs[e] = c
        self.truncation_order = truncation_order
        self._only = None

    @classmethod
    def _trusted(cls, var: str, coefficients: dict, truncation_order: int,
                 only: int | None = None) -> "TruncatedSeries":
        """The series of {int exponent, none past the order: polynomial},
        with its zero coefficients dropped and nothing else checked; with
        ``only`` set it knows the coefficient of var**only alone."""
        s = object.__new__(cls)
        s.var, s.truncation_order, s._only = var, truncation_order, only
        s._coeffs = {e: c for e, c in coefficients.items() if c._num}
        return s

    def coefficients(self) -> dict:
        return dict(self._coeffs)

    def min_index(self) -> int:
        """Smallest stored exponent (0 for the all-zero series)."""
        return min(self._coeffs, default=0)

    def _check_known(self, exponent: int | None = None) -> None:
        """Refuse what a single-coefficient series does not know: any other
        coefficient, or (with no exponent) the whole series."""
        if self._only is not None and exponent != self._only:
            raise TruncationInsufficient(
                f"only the coefficient of {self.var}^{self._only} was computed")

    def coefficient(self, exponent: int) -> LaurentPolynomial:
        """Coefficient of var**exponent; beyond the trusted order is an error."""
        if _check_size(exponent, "exponent", lo=-inf) > self.truncation_order:
            raise TruncationInsufficient(
                f"exponent {exponent} beyond truncation order {self.truncation_order}")
        self._check_known(exponent)
        return self._coeffs.get(exponent, ZERO)

    def constant_term(self) -> LaurentPolynomial:
        return self.coefficient(0)

    def mul_poly(self, p, exponent: int | None = None) -> "TruncatedSeries":
        """Multiply by a polynomial; the trusted order shifts by its lowest
        exponent in ``var`` (unknown tail terms pollute everything above).

        Each coefficient is the sum of self[e - pe] * p[pe] over the
        exponents pe of p.  It is computed for every e that some pair of
        terms reaches, up to the trusted order, or, with ``exponent`` set,
        for that e alone, and the result holds that coefficient alone."""
        self._check_known()
        parts = as_poly(p)._kept_split(self.var)
        order = self.truncation_order + min(parts, default=0)
        coeffs = self._coeffs
        if exponent is None:
            reached = {se + pe for pe in parts for se in coeffs if se + pe <= order}
        elif _check_size(exponent, "exponent", lo=-inf) > order:
            raise TruncationInsufficient(
                f"exponent {exponent} beyond truncation order {order}")
        else:
            reached = (exponent,)
        return TruncatedSeries._trusted(self.var, {
            e: _dot([(coeffs[e - pe], pc) for pe, pc in parts.items() if e - pe in coeffs])
            for e in reached}, order, exponent)

    def __mul__(self, other):
        return self.mul_poly(other)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (self.var == other.var
                and self.truncation_order == other.truncation_order
                and self._only == other._only
                and self._coeffs == other._coeffs)

    def render(self) -> str:
        return self._format(LaurentPolynomial.render,
                            lambda e: f"{self.var}^{e}", "*")

    def latex(self) -> str:
        """LaTeX rendering (presentation only, same term order as render)."""
        return self._format(LaurentPolynomial.latex,
                            lambda e: f"{self.var}^{{{e}}}", " ")

    def _format(self, coeff_text, power, sep: str) -> str:
        """The term loop of render and latex: coefficients by ascending
        exponent, each joined to its power by ``sep`` (bare when it is 1,
        parenthesized when it has several terms, its sign pulled out when it
        has one), then the order term."""
        text = ""
        for e in sorted(self._coeffs):
            c = self._coeffs[e]
            negative = c.term_count() == 1 and next(iter(c._num.values())) < 0
            if negative:
                c = -c
            p = self.var if e == 1 else power(e)
            if e == 0:
                body = coeff_text(c)
            elif c == ONE:
                body = p
            elif c.term_count() == 1:
                body = f"{coeff_text(c)}{sep}{p}"
            else:
                body = f"({coeff_text(c)}){sep}{p}"
            if not text:
                text = f"-{body}" if negative else body
            else:
                text += f" {'-' if negative else '+'} {body}"
        return f"{text or '0'} + O({power(self.truncation_order + 1)})"

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"TruncatedSeries({self.render()})"


@lru_cache(maxsize=64)
def _unit_split(d: LaurentPolynomial, var: str) -> tuple:
    """Checked split d = var**m * u * (1 - sum_i t_i*var**i), u a nonzero
    rational: m, 1/u and the pairs (i, t_i), shared by every quotient over d.
    The cache keeps d alive, so d's split is read but not kept: the t_i
    already hold it."""
    if d.is_zero:
        raise NonUnitLeadingCoefficient("cannot invert the zero polynomial")
    parts = _split(d, var)
    m = min(parts)
    lowest = parts.pop(m)
    if not lowest.is_rational:
        raise NonUnitLeadingCoefficient(
            f"lowest coefficient {lowest} carries symbols; "
            "series coefficients would not be polynomials")
    # nonzero: split never yields a zero coefficient
    unit_inv = Fraction(1) / lowest.as_fraction()
    return m, unit_inv, [(e - m, c * -unit_inv) for e, c in parts.items()]


class _Quotient:
    """n/d = var**shift * (c_0 + c_1*var + ...): with (m, 1/u, t) the
    ``_unit_split`` of d and lo the lowest exponent of ``var`` in n (0 for
    n = 0), shift = lo - m and c_k = [var**(lo+k)]n / u + sum_i t_i*c_(k-i).
    The c_k only grow, under the lock; 1/d is the case n = 1."""

    def __init__(self, d: LaurentPolynomial, var: str, n: LaurentPolynomial = ONE):
        m, self._unit_inv, self._tail = _unit_split(d, var)
        top = n.split(var)
        lo = min(top, default=0)
        self.shift, self._c, self._lock = lo - m, [], threading.Lock()
        self._num = {e - lo: c for e, c in top.items()}

    def upto(self, order: int) -> list:
        """c_0 .. c_order as a new list (empty below 0), computing any not yet known."""
        with self._lock:
            c = self._c
            for k in range(len(c), order + 1):
                pairs = [(t, c[k - i]) for i, t in self._tail if i <= k]
                if k in self._num:
                    pairs.append((self._unit_inv, self._num[k]))
                c.append(_dot(pairs))
            return c[:max(order + 1, 0)]


def _monomial_inverse(p: LaurentPolynomial) -> LaurentPolynomial | None:
    """1/p when p is one term in rho alone, the only inverse that stays in
    the ring; None for any other p.  Each caller raises its own error."""
    if len(p._num) != 1 or _read_field(p._num, 0) != list(p._num):
        return None
    (m, v), = p._num.items()
    c = Fraction(p._den, v)
    return _reduced(c.denominator, {-m: c.numerator}, p._bound)


class _Powers:
    """base**0, base**1, ... of one polynomial, each built once, by one
    product from the power below it; the list only grows, under the lock."""

    __slots__ = ("_base", "_pw", "_lock")

    def __init__(self, base: LaurentPolynomial):
        self._base, self._pw, self._lock = base, [ONE, base], threading.Lock()

    def __getitem__(self, e: int) -> LaurentPolynomial:
        if e < 0:
            raise ValueError(f"polynomial power requires a nonnegative integer, got {e}")
        pw = self._pw
        if len(pw) <= e:
            with self._lock:
                while len(pw) <= e:
                    pw.append(pw[-1] * self._base)
        return pw[e]


# the state of 1/d, one per (d, var), shared by every order of series_invert
_inverse_state = lru_cache(maxsize=64)(_Quotient)


def series_invert(d, order: int, var: str = SERIES_VAR) -> TruncatedSeries:
    """Invert a polynomial as a series around the origin.

    Writes d = var**m * (u + higher orders) with m the minimal exponent of
    ``var``.  The lowest coefficient u must be a nonzero rational constant:
    that is exactly when 1/d expands as a series whose coefficients stay
    polynomials in the remaining symbols.  The result s satisfies
    d*s = 1 + O(var**(order+1)).

    The coefficients of 1/d are computed once per (d, var) and kept in a
    bounded cache: a higher order extends them, a lower order reads their
    prefix, and every call returns a series of its own.
    """
    _check_size(order, "series order")
    state = _inverse_state(as_poly(d), var)
    coeffs = {k + state.shift: c for k, c in enumerate(state.upto(order))}
    return TruncatedSeries._trusted(var, coeffs, order + state.shift)


def _inversion_order(num: LaurentPolynomial, den: LaurentPolynomial,
                     exponent: int, var: str) -> int:
    """Least order to which ``den`` is inverted so that the coefficient of
    var**exponent of num/den can be read: ``series_invert(den, order, var)``
    is trusted up to order - den's lowest exponent, and multiplying by
    ``num`` (nonzero) shifts that by num's lowest exponent, read from the
    split by ``var`` that ``mul_poly`` then reads too.  den's lowest
    exponent is read from its cached ``_unit_split``, which refuses a den
    that cannot be inverted before anything else reads it."""
    return max(exponent + _unit_split(den, var)[0] - min(num._kept_split(var)), 0)


def _ratio_coefficient(num, den, e: int, var: str) -> LaurentPolynomial:
    """Coefficient of var**e in num/den under the series expansion around
    the origin, with den inverted just far enough to read it."""
    if num.is_zero:
        return ZERO
    inv = series_invert(den, _inversion_order(num, den, e, var), var)
    return inv.mul_poly(num, e).coefficient(e)


def constant_term_ratio(num, den) -> LaurentPolynomial:
    """Constant term in rho of num/den under the series expansion around the
    origin, with den inverted just far enough to read it."""
    return _ratio_coefficient(as_poly(num), as_poly(den), 0, SERIES_VAR)


# -- expression parsing -------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<float>\d+\.\d*|\.\d+)|(?P<number>\d+(?:/\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>\*\*|[-+*^()]))", re.ASCII)


def _tokenize(text: str):
    text = text.strip()
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError(f"unexpected character at {text[pos:]!r}")
        if m.lastgroup == "float" or m.group("float"):
            raise ValueError(f"floating literal {m.group('float')!r} not allowed; use p/q")
        if m.group("number"):
            try:
                tokens.append(("num", Fraction(m.group("number"))))
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in {m.group('number')!r}") from None
        elif m.group("name"):
            tokens.append(("name", m.group("name")))
        else:
            op = m.group("op")
            tokens.append(("op", "^" if op == "**" else op))
        pos = m.end()
    tokens.append(("end", None))
    return tokens


def parse_polynomial(text: str, allowed_symbols=None) -> LaurentPolynomial:
    """Parse an exact polynomial expression.

    Grammar: sums/differences of products of powers; atoms are integer or
    p/q rational literals, symbol names, and parenthesized expressions.
    Exponents are integers (negative only where the ring allows it).
    Floating literals, an empty expression and one nested past the
    interpreter's recursion limit are refused with ``ValueError``, and
    anything but a ``str`` with ``TypeError``.  A symbol outside
    ``allowed_symbols``, when given, is refused with ``ValueError``.  Each
    distinct text and set of allowed symbols is parsed once, through a
    bounded cache: the polynomial is immutable, so sharing it is exact.
    """
    if not isinstance(text, str):
        raise TypeError(f"a polynomial is parsed from a str, got {type(text).__name__}")
    return _parse_cached(text, None if allowed_symbols is None else frozenset(allowed_symbols))


@lru_cache(maxsize=256)
def _parse_cached(text: str, allowed) -> LaurentPolynomial:
    tokens = _tokenize(text)
    pos = 0

    def peek():
        return tokens[pos]

    def take(kind, value=None):
        nonlocal pos
        tk, tv = tokens[pos]
        if tk != kind or (value is not None and tv != value):
            where = "at the end" if tk == "end" else f"near token {tv!r}"
            raise ValueError(f"expected {value or kind} {where}")
        pos += 1
        return tv

    def parse_expr():
        sign = 1
        while peek() == ("op", "+") or peek() == ("op", "-"):
            if take("op") == "-":
                sign = -sign
        value = parse_product() * sign
        while peek()[0] == "op" and peek()[1] in "+-":
            op = take("op")
            rhs = parse_product()
            value = value + rhs if op == "+" else value - rhs
        return value

    def parse_product():
        value = parse_power()
        while peek() == ("op", "*"):
            take("op")
            value = value * parse_power()
        return value

    def parse_power():
        base = parse_atom()
        if peek() == ("op", "^"):
            take("op")
            sign = 1
            if peek() == ("op", "-"):
                take("op")
                sign = -1
            exp_val = take("num")
            if exp_val.denominator != 1:
                raise ValueError("exponent must be an integer")
            e = sign * exp_val.numerator
            if e < 0:
                inv = _monomial_inverse(base)
                if inv is None:
                    raise ValueError(f"negative power of {base}, not one term in rho")
                return inv ** (-e)
            return base ** e
        return base

    def parse_atom():
        kind, value = peek()
        if kind == "num":
            take("num")
            return as_poly(value)
        if kind == "name":
            name = take("name")
            if allowed is not None and name not in allowed:
                raise ValueError(f"unknown symbol {name!r}")
            return sym(name)
        if (kind, value) == ("op", "("):
            take("op", "(")
            inner = parse_expr()
            take("op", ")")
            return inner
        if kind == "end":
            raise ValueError("unexpected end of expression" if pos else "the expression is empty")
        raise ValueError(f"unexpected token {value!r}")

    try:
        result = parse_expr()
    except RecursionError:
        raise ValueError("the expression is nested too deeply") from None
    take("end")
    return result
