"""Independent oracle: plain Fraction arithmetic, no latpoly code.

Every answer the benchmark times is evaluated at one seeded rational point
and compared with a transfer-matrix dynamic programme over the strip run on
the same point.  A bug in latpoly's shared ring would make all engines agree
on a wrong polynomial; it cannot make them agree with this module.
"""

from __future__ import annotations

import re
from fractions import Fraction


def strip_rows(b: list, lam: list, y0: int, tmax: int) -> list:
    """rows[t][y] = weighted count of length-t strip paths from y0 to y.

    ``b[y]`` weighs an across step at height y, ``lam[y]`` a down step from
    height y (``lam[0]`` is unused); up steps weigh 1.
    """
    top = len(b) - 1
    row = [Fraction(0)] * (top + 1)
    row[y0] = Fraction(1)
    rows = [row]
    for _ in range(tmax):
        nxt = []
        for y in range(top + 1):
            v = row[y] * b[y]
            if y > 0:
                v += row[y - 1]
            if y < top:
                v += row[y + 1] * lam[y + 1]
            nxt.append(v)
        row = nxt
        rows.append(row)
    return rows


def evaluate_terms(terms, point: dict) -> Fraction:
    """Value of a polynomial given as {((name, exp), ...): coeff} at point."""
    total = Fraction(0)
    for mono, coeff in terms.items():
        v = Fraction(coeff)
        for name, e in mono:
            v *= point[name] ** e
        total += v
    return total


_RENDER_TERM = re.compile(r"(\d+(?:/\d+)?)?((?:\*?[A-Za-z_][A-Za-z0-9_]*(?:\^\d+)?)*)\Z")


def parse_rendered(text: str) -> dict:
    """Terms of a polynomial printed in latpoly's plain render format.

    The format is ``[-]term (+|-) term ...`` where a term is an optional
    rational magnitude followed by ``*``-joined ``name`` or ``name^e``
    factors.  Parsed here without latpoly so CLI output can be checked
    against the oracle.
    """
    text = text.strip()
    if text == "0":
        return {}
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:]
    terms = {}
    for i, piece in enumerate(re.split(r" ([+-]) ", text)):
        if i % 2:
            sign = 1 if piece == "+" else -1
            continue
        m = _RENDER_TERM.match(piece)
        if not m or not piece:
            raise ValueError(f"unparsable term {piece!r} in {text!r}")
        mag = Fraction(m.group(1)) if m.group(1) else Fraction(1)
        mono = []
        for factor in filter(None, m.group(2).split("*")):
            name, _, e = factor.partition("^")
            mono.append((name, int(e) if e else 1))
        key = tuple(sorted(mono))
        if key in terms:
            raise ValueError(f"repeated monomial {piece!r} in {text!r}")
        terms[key] = sign * mag
    return terms
