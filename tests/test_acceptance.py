"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Every check is exact polynomial equality except the single floating-point
closed-form comparison (criterion 8, relative tolerance 1e-9).  Run with
``pytest -s tests/test_acceptance.py`` to see the summary lines.
"""

from __future__ import annotations

import csv
import io
import random
from fractions import Fraction

from latpoly import (
    DmrParams,
    FourWeightParams,
    ONE,
    StripQuery,
    WeightSpec,
    ZERO,
    brute_force,
    chebyshev_closed_form_check,
    decompose,
    dmr_ct,
    dmr_sum,
    edge_cut,
    enumerate_paths,
    four_weight_ct,
    four_weight_sum,
    generating_function,
    ortho_poly,
    path_weight,
    paving_polynomial,
    rho_ct,
    rogers,
    rogers_weight_spec,
    stratified_weight,
    sym,
    transfer_matrix,
    vertex_cut,
    viennot_ct,
)
from latpoly.cli import main as cli_main
from latpoly.paving import decoration_window_sizes
from util import random_rational_weight_spec, random_weight_spec

KAPPA = sym("kappa")
OMEGA = sym("omega")
BETA = sym("beta")
GAMMA = sym("gamma")


def _report(number: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {number}: {description}{suffix}")
    assert ok, f"criterion {number} failed: {description} {detail}"


def _decoration_placements(L: int):
    """Deterministic decoration sets of size 0, 1 and 2 per strip height,
    covering across and down decorations at the walls and in the interior."""
    placements = [({}, {})]
    if L == 0:
        placements.append(({0: BETA}, {}))
        return placements
    mid = (L + 1) // 2
    placements.append(({}, {1: KAPPA}))
    placements.append(({0: BETA}, {}))
    if L >= 2:
        placements.append(({}, {1: KAPPA, L: OMEGA}))
    placements.append(({mid: BETA}, {max(1, mid): KAPPA}))
    placements.append(({0: BETA, L: GAMMA}, {}))
    return placements


def test_criterion_1_five_way_agreement():
    queries = 0
    failures = []
    for L in range(0, 6):
        for b, lam in ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(1))):
            for across, down in _decoration_placements(L):
                w = WeightSpec(L, b, lam, across, down)
                for y0 in range(L + 1):
                    for y1 in range(L + 1):
                        gf = generating_function(y0, y1, L, w, 10)
                        for t in range(0, 11):
                            q = StripQuery(t, y0, y1, L)
                            values = {
                                "brute": brute_force(q, w),
                                "tmatrix": transfer_matrix(q, w),
                                "viennot-ct": viennot_ct(q, w),
                                "rho-ct": rho_ct(q, w),
                                "gf": gf.coefficient(t),
                            }
                            queries += 1
                            if len({v.render() for v in values.values()}) != 1:
                                failures.append((q, {k: v.render()
                                                     for k, v in values.items()}))
    _report(1, "five-way engine agreement, exact, t<=10, L<=5, "
               "both backgrounds, symbolic decoration sets of size <= 2",
            not failures, f"{queries} queries" if not failures else str(failures[0]))


def test_criterion_2_two_weight_closed_forms():
    checked = 0
    failures = []
    anchor_1 = dmr_ct(DmrParams(1, 2))
    anchor_2 = dmr_ct(DmrParams(2, 2))
    if anchor_1 != KAPPA or anchor_2 != KAPPA ** 2 + KAPPA * OMEGA:
        failures.append("anchor values")
    for L in range(2, 7):
        for r in range(0, 9):
            p = DmrParams(r, L)
            ct = dmr_ct(p)
            sm = dmr_sum(p)
            bf = brute_force(StripQuery(2 * r, 0, 0, L), p.weight_spec())
            if not (ct == sm == bf):
                failures.append((r, L))
            checked += 1
    _report(2, "two-wall model: constant term = 5-fold sum = brute force, "
               "symbolic, r<=8, L in 2..6",
            not failures, f"{checked} cases" if not failures else str(failures[0]))


def test_criterion_3_four_weight_closed_forms():
    checked = 0
    failures = []
    for L in range(4, 8):
        for r in range(0, 7):
            p = FourWeightParams(r, L)
            ct = four_weight_ct(p)
            sm = four_weight_sum(p)
            bf = brute_force(StripQuery(2 * r, 0, 0, L), p.weight_spec())
            if not (ct == sm == bf):
                failures.append((r, L))
            checked += 1
    _report(3, "four-wall model: constant term = 9-fold sum = brute force, "
               "symbolic, r<=6, L in 4..7",
            not failures, f"{checked} cases" if not failures else str(failures[0]))


def test_criterion_4_nested_sum_formula():
    kappas = [f"kappa_{i}" for i in range(1, 9)]
    failures = []
    checked = 0
    for n in range(0, 8):
        for L in list(range(1, 7)) + [n if n >= 1 else 1]:
            w = rogers_weight_spec(L, kappas)
            bf = brute_force(StripQuery(2 * n, 0, 0, L), w)
            if rogers(n, L, kappas) != bf:
                failures.append((n, L))
            checked += 1
    for n in range(1, 8):
        if stratified_weight(n, 0, kappas) != sym("kappa_1") ** n:
            failures.append(("s0", n))
        for l in range(0, n):
            strip = l + 1
            w = rogers_weight_spec(strip, kappas)
            total = ZERO
            for p in enumerate_paths(2 * n, 0, strip, 0):
                if p.max_height() == l + 1:
                    total = total + path_weight(p, w)
            if stratified_weight(n, l, kappas) != total:
                failures.append(("stratum", n, l))
            checked += 1
    _report(4, "nested-sum formula = brute force (n<=7, L<=6 and L=n), "
               "strata match max-height-filtered enumeration, s0 = kappa_1^n",
            not failures, f"{checked} cases" if not failures else str(failures[0]))


def test_criterion_5_paving_oracle_and_cuts():
    rng = random.Random(20260809)
    failures = []
    cases = 0
    for k in range(0, 11):
        for j in range(0, 4):
            for _ in range(3):
                w = random_weight_spec(rng, min(k + j + 1, 7))
                if paving_polynomial(k, j, w) != ortho_poly(k, j, w):
                    failures.append(("paving", k, j))
                cases += 1
    cut_cases = 0
    for k in range(1, 9):
        for j in range(0, 3):
            w = random_weight_spec(rng, min(k + j, 7))
            target = ortho_poly(k, j, w)
            for c in range(1, k):
                if edge_cut(k, j, c, w).expand() != target:
                    failures.append(("edge", k, j, c))
                cut_cases += 1
            for c in range(0, k):
                if vertex_cut(k, j, c, w).expand() != target:
                    failures.append(("vertex", k, j, c))
                cut_cases += 1
    _report(5, "paving sum equals recurrence polynomial (randomized, k<=10, "
               "j<=3) and cut identities hold (k<=8, all valid c)",
            not failures and cases >= 100,
            f"{cases} paving cases, {cut_cases} cuts" if not failures else str(failures[0]))


def test_criterion_6_decomposition_bound_and_boundary_form():
    rng = random.Random(977)
    failures = []
    cases = 0
    while cases < 110:
        k = rng.randint(1, 10)
        j = rng.randint(0, 3)
        w = random_weight_spec(rng, min(k + j, 7), max_decorations=3)
        n_down, n_across = decoration_window_sizes(k, j, w)
        d = decompose(k, j, w)
        if d.term_count > 2 ** n_down * 3 ** n_across:
            failures.append(("bound", k, j))
        if d.max_factor_count > n_down + n_across + 1:
            failures.append(("factors", k, j))
        if d.expand() != ortho_poly(k, j, w):
            failures.append(("expand", k, j))
        cases += 1
    # the boundary-pair decomposition reproduces the published four-term
    # form x^2 S_{L-1} - kappa x S_{L-2} - omega x S_{L-2} + kappa omega S_{L-3}
    x = sym("x")
    for L in (5, 6):
        w = WeightSpec(L, 0, 1, down={1: KAPPA - 1, L: OMEGA - 1})
        d = decompose(L + 1, 0, w)
        expected = sorted(
            [(x ** 2, (L - 1,)), (-KAPPA * x, (L - 2,)),
             (-OMEGA * x, (L - 2,)), (KAPPA * OMEGA, (L - 3,))],
            key=lambda item: (item[1], item[0].render()))
        got = d.normalized_terms()
        if [(c.render(), o) for c, o in got] != [(c.render(), o) for c, o in expected]:
            failures.append(("boundary form", L))
        if d.term_count != 4:
            failures.append(("boundary count", L))
    _report(6, "decomposition term count within 2^a 3^b on randomized "
               "placements; boundary pair gives the four-term background form",
            not failures, f"{cases} placements" if not failures else str(failures[0]))


def test_criterion_7_divisibility():
    rng = random.Random(5511)
    failures = []
    checked = 0
    for L in range(0, 9):
        for _ in range(2):
            w = random_rational_weight_spec(rng, L)
            divisor = ortho_poly(L + 1, 0, w)
            for y in range(0, L + 1):
                lam_prod = ONE
                for l in range(y + 1, L + 1):
                    lam_prod = lam_prod * w.effective_lambda(l)
                lhs = (lam_prod * ortho_poly(y, 0, w)
                       - ortho_poly(L, 0, w)
                       * ortho_poly(L - y, y + 1, w))
                _, remainder = lhs.divmod_monic(divisor, "x")
                if not remainder.is_zero:
                    failures.append((L, y))
                checked += 1
    _report(7, "wall product identity is divisible by the order-(L+1) "
               "polynomial, exact remainder zero, 0<=y<=L<=8",
            not failures, f"{checked} cases" if not failures else str(failures[0]))


def test_criterion_8_numeric_closed_form():
    xs = [-1.9 + k * (3.8 / 13) for k in range(1, 13)]
    xs += [2.1 + k * (1.9 / 9) for k in range(0, 8)]
    assert len(xs) == 20
    worst = 0.0
    failures = []
    for x0 in xs:
        for k in range(0, 13):
            rec, closed = chebyshev_closed_form_check(k, x0)
            scale = max(abs(rec), abs(closed), 1.0)
            err = abs(rec - closed) / scale
            worst = max(worst, err)
            if err > 1e-9:
                failures.append((k, x0, err))
    _report(8, "surd closed form matches the exact recurrence within 1e-9 "
               "relative error at 20 points, k<=12",
            not failures, f"worst {worst:.2e}" if not failures else str(failures[0]))


def test_criterion_9_bench_csv(capsys):
    code_t = cli_main(["bench", "--sweep", "t:1:8", "--L", "3",
                       "--engines", "rho-ct"])
    out_t = capsys.readouterr().out
    code_n = cli_main(["bench", "--sweep", "n:1:6", "--model", "rogers",
                       "--engines", "closed-form"])
    out_n = capsys.readouterr().out
    ok = code_t == 0 and code_n == 0
    rows_t = list(csv.DictReader(io.StringIO(out_t)))
    rows_n = list(csv.DictReader(io.StringIO(out_n)))
    ok = ok and len(rows_t) == 8 and len(rows_n) == 6
    ok = ok and all(int(r["micros"]) > 0 for r in rows_t + rows_n)
    ok = ok and all(set(r) == {"query", "engine", "micros", "terms"}
                    for r in rows_t + rows_n)
    detail = (f"rho-ct micros over t: {[int(r['micros']) for r in rows_t]}; "
              f"nested-sum micros over n: {[int(r['micros']) for r in rows_n]}")
    _report(9, "bench emits parseable CSV with positive timings for the "
               "rho constant-term engine over t and the nested sum over n",
            ok, detail)
