"""The three benchmark workloads: inputs from a seed, requests, verification.

A workload builds a fixed list of requests for one pass.  The seed draws
values only, never the shape, so every seed gives the same request and
query counts.  ``run`` is the timed part and calls
latpoly only through module attributes looked up at call time, so the
tracer's rebinding is seen.  ``verify`` is untimed: it checks the answer
against the independent oracle using only ``terms()`` and strings.
"""

from __future__ import annotations

import contextlib
import io
import random
from fractions import Fraction

import latpoly as lp
import latpoly.cli as lp_cli

from oracle import evaluate_terms, parse_rendered, strip_rows

# Background pools: nonzero, so no weight vanishes and the work keeps its shape.
BACKGROUND_B = (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2))
BACKGROUND_LAMBDA = (Fraction(1), Fraction(-2), Fraction(2), Fraction(1, 2))
# decoration values for the closed forms: never 0 (a zero down weight) and
# never 1 (which would delete the decoration and change the shape)
DECORATION = ("2", "3", "-1", "1/2", "-2", "3/2", "2/3")


def _backgrounds(rng: random.Random, n: int) -> list:
    """n distinct (b, lambda) pairs, each pool value used about equally often.

    The cost of a spec depends on its backgrounds, and two equal specs share
    the engine caches, so a pass gets a balanced set of distinct pairs and
    the seed decides which spec gets which; seeds then cost about the same.
    """
    bs = rng.sample(BACKGROUND_B, len(BACKGROUND_B))
    lams = rng.sample(BACKGROUND_LAMBDA, len(BACKGROUND_LAMBDA))
    k = len(bs)
    if n > k * k:
        raise ValueError(f"only {k * k} distinct background pairs, {n} wanted")
    pairs = [(bs[i % k], lams[(i + i // k) % k]) for i in range(n)]
    rng.shuffle(pairs)
    return pairs


def _point_value(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 7))


class WeightText:
    """A weight spec as a user would write it: rational backgrounds and
    decorations as expression text.  Each decoration here is one bare
    symbol, so the oracle can evaluate it without parsing."""

    def __init__(self, L: int, b: Fraction, lam: Fraction, across: dict, down: dict):
        self.L, self.b, self.lam = L, b, lam
        self.across, self.down = across, down

    def build(self):
        """The latpoly WeightSpec, parsing every decoration (timed work)."""
        parse = lp.parse_polynomial
        return lp.WeightSpec(self.L, self.b, self.lam,
                             {h: parse(s) for h, s in self.across.items()},
                             {h: parse(s) for h, s in self.down.items()})

    def symbols(self):
        return sorted(set(self.across.values()) | set(self.down.values()))

    def oracle_weights(self, point: dict):
        b = [self.b + point[self.across[y]] if y in self.across else self.b
             for y in range(self.L + 1)]
        lam = [self.lam + point[self.down[y]] if y in self.down else self.lam
               for y in range(self.L + 1)]
        return b, lam


def _check_answer(terms, expected: Fraction, point: dict) -> str | None:
    try:
        got = evaluate_terms(terms, point)
    except KeyError as exc:
        return f"answer carries unknown symbol {exc}"
    return None if got == expected else f"oracle {expected} != answer {got}"


class Grid:
    """Criterion-1 five-way agreement job on seeded weights."""

    name = "grid"
    HEIGHTS = (1, 2, 3, 4, 5, 5)
    TMAX = 5
    TINY_HEIGHTS = (1, 2)
    TINY_TMAX = 3

    def __init__(self, tiny: bool = False):
        self.heights = self.TINY_HEIGHTS if tiny else self.HEIGHTS
        self.tmax = self.TINY_TMAX if tiny else self.TMAX

    def build(self, rng: random.Random):
        requests = []
        for L, (b, lam) in zip(self.heights, _backgrounds(rng, len(self.heights))):
            # one across and one down decoration, two or more heights apart
            # where the strip allows: the kinds and the gap between them set
            # most of the work, so they are fixed and the seed moves the rest
            gap = min(2, L - 1)
            across, down = rng.choice([(a, d) for a in range(L + 1) for d in range(1, L + 1)
                                       if abs(a - d) >= gap])
            weights = WeightText(L, b, lam, {across: "beta"}, {down: "kappa"})
            for y0 in range(L + 1):
                for y1 in range(L + 1):
                    requests.append((weights, y0, y1))
        return requests

    def run(self, request):
        weights, y0, y1 = request
        w = weights.build()
        L, tmax = weights.L, self.tmax
        gf = lp.generating_function(y0, y1, L, w, tmax)
        answers = []
        for t in range(tmax + 1):
            q = lp.StripQuery(t, y0, y1, L)
            values = (lp.brute_force(q, w), lp.transfer_matrix(q, w),
                      lp.viennot_ct(q, w), lp.rho_ct(q, w), gf.coefficient(t))
            answers.append([(v.render(), v) for v in values])
        return answers

    def verify(self, request, answer, rng: random.Random):
        weights, y0, y1 = request
        point = {s: _point_value(rng) for s in weights.symbols()}
        rows = strip_rows(*weights.oracle_weights(point), y0, self.tmax)
        for t, values in enumerate(answer):
            problem = _check_query(values, rows[t][y1], point)
            if problem:
                return f"t={t}: {problem}"
        return None

    @staticmethod
    def queries(answer) -> int:
        return len(answer)


def _check_query(values, expected: Fraction, point: dict):
    """Engines must agree exactly and each distinct answer must match the
    oracle (identical renderings share one evaluation)."""
    distinct = {}
    for text, value in values:
        distinct.setdefault(text, value)
    for value in distinct.values():
        problem = _check_answer(value.terms(), expected, point)
        if problem:
            return problem
    if len(distinct) != 1:
        return f"engines disagree: {sorted(distinct)}"
    return None


class Swell:
    """Fully symbolic weights, one free symbol per height: expression swell."""

    name = "swell"
    SWEEPS = ((1, 8), (2, 5), (3, 3))      # (L, largest t)
    TINY_SWEEPS = ((2, 2),)

    def __init__(self, tiny: bool = False):
        self.sweeps = self.TINY_SWEEPS if tiny else self.SWEEPS

    def build(self, rng: random.Random):
        # one weight spec per (L, start height), so a pass averages many draws
        specs = [(L, tmax, y0) for L, tmax in self.sweeps for y0 in range(L + 1)]
        requests = []
        for (L, tmax, y0), (b, lam) in zip(specs, _backgrounds(rng, len(specs))):
            weights = WeightText(L, b, lam, {i: f"b{i}" for i in range(L + 1)},
                                 {i: f"l{i}" for i in range(1, L + 1)})
            for y1 in range(y0, L + 1):
                for t in range(tmax + 1):
                    requests.append((weights, t, y0, y1))
        return requests

    def run(self, request):
        weights, t, y0, y1 = request
        w = weights.build()
        q = lp.StripQuery(t, y0, y1, weights.L)
        values = (lp.rho_ct(q, w), lp.viennot_ct(q, w),
                  lp.transfer_matrix(q, w), lp.brute_force(q, w))
        return [(v.render(), v) for v in values]

    def verify(self, request, answer, rng: random.Random):
        weights, t, y0, y1 = request
        point = {s: _point_value(rng) for s in weights.symbols()}
        rows = strip_rows(*weights.oracle_weights(point), y0, t)
        return _check_query(answer, rows[t][y1], point)

    @staticmethod
    def queries(answer) -> int:
        return 1


class Closed:
    """The paper's closed forms through the CLI, checked against brute force."""

    name = "closed"
    # (family, half-length r or n, strip height L)
    CASES = tuple(
        [("dmr", r, L) for L in (2, 3, 4, 5) for r in range(0, 9)]
        + [("four", r, L) for L in (4, 5, 6) for r in range(0, 7)]
        + [("rogers", n, L) for L in (2, 3, 4, 5, 6, 7) for n in range(1, 9)])
    TINY_CASES = (("dmr", 2, 2), ("four", 2, 4), ("rogers", 3, 3))
    ENGINES = ("closed-form", "closed-sum", "brute")

    def __init__(self, tiny: bool = False):
        self.cases = self.TINY_CASES if tiny else self.CASES

    @staticmethod
    def _slots(family: str, r: int, L: int) -> list:
        """(CLI parameter, symbol, height) of each down-weight decoration."""
        if family == "dmr":
            return [("kappa", "kappa", 1), ("omega", "omega", L)]
        if family == "four":
            return [("kappa1", "kappa_1", 1), ("kappa2", "kappa_2", 2),
                    ("omega2", "omega_2", L - 1), ("omega1", "omega_1", L)]
        return [(None, f"kappa_{i}", i) for i in range(1, min(r, L) + 1)]

    def build(self, rng: random.Random):
        requests = []
        for family, r, L in self.cases:
            slots = self._slots(family, r, L)
            # half of a case's decorations (rounded down) stay symbolic and
            # the rest take pool values, so every seed costs about the same
            symbolic = set(rng.sample(range(len(slots)), len(slots) // 2))
            texts = [symbol if i in symbolic else rng.choice(DECORATION)
                     for i, (_, symbol, _) in enumerate(slots)]
            if family == "rogers":
                params = [f"n={r}", f"L={L}", "kappas=" + ",".join(texts)]
            else:
                params = [f"r={r}", f"L={L}"] + [
                    f"{name}={text}" for (name, _, _), text in zip(slots, texts)]
            argv = ["compute", "--model", family]
            for p in params:
                argv += ["--param", p]
            # the down weight at each decorated height, as the CLI reads it
            lam = {h: text for (_, _, h), text in zip(slots, texts)}
            requests.append((argv, 2 * r, L, lam))
        return requests

    def run(self, request):
        argv = request[0]
        outputs = []
        for engine in self.ENGINES:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = lp_cli.main(argv + ["--engines", engine])
            outputs.append((code, out.getvalue(), err.getvalue()))
        return outputs

    def verify(self, request, answer, rng: random.Random):
        _, t, L, lam_text = request
        for engine, (code, out, err) in zip(self.ENGINES, answer):
            if code != 0:
                return f"{engine} exited {code}: {err.strip()}"
        texts = {out for _, out, _ in answer}
        if len(texts) != 1:
            return f"outputs differ: {[out for _, out, _ in answer]}"
        point, lam = {}, [Fraction(1)] * (L + 1)
        for h, text in lam_text.items():
            try:
                lam[h] = Fraction(text)
            except ValueError:
                lam[h] = point[text] = _point_value(rng)
        rows = strip_rows([Fraction(0)] * (L + 1), lam, 0, t)
        try:
            terms = parse_rendered(texts.pop())
        except ValueError as exc:
            return str(exc)
        return _check_answer(terms, rows[t][0], point)

    @staticmethod
    def queries(answer) -> int:
        return 1


WORKLOADS = {cls.name: cls for cls in (Grid, Swell, Closed)}
