"""Path weights, the five engines, and their mutual agreement on small grids."""

from __future__ import annotations

import inspect
import random
import sys
import threading
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from latpoly import (
    DmrParams,
    FourWeightParams,
    LatticePath,
    LaurentPolynomial,
    ONE,
    RogersParams,
    SizeLimit,
    StripQuery,
    WeightSpec,
    ZERO,
    ZeroLambda,
    brute_force,
    enumerate_paths,
    generating_function,
    h_factor,
    monomial,
    parse_polynomial,
    path_weight,
    rho_ct,
    sym,
    transfer_matrix,
    viennot_ct,
)
import latpoly.closedforms as closedforms
import latpoly.engines as engines
import latpoly.orthopoly as orthopoly
import latpoly.symbolic as symbolic
from latpoly.engines import _brute_weights, _kernel_power, _ratio, _signature_cells, cheb_ct
from util import (
    BACKGROUND_B_POOL,
    BACKGROUND_L_POOL,
    RATIONAL_POOL,
    random_weight_spec,
)


def _all_engine_values(q, w):
    gf = generating_function(q.y_start, q.y_end, q.L, w, q.t)
    return {
        "brute": brute_force(q, w),
        "tmatrix": transfer_matrix(q, w),
        "viennot": viennot_ct(q, w),
        "rho": rho_ct(q, w),
        "cheb": cheb_ct(q, w),
        "gf": gf.coefficient(q.t),
    }


def test_path_weight_fifteen_step_example():
    # three across at 0, one across at 1, two across at 2, two downs from
    # each of 1 and 2, five ups, inside a strip of height 2
    steps = ("across", "across", "across", "up", "across", "up", "across",
             "across", "down", "down", "up", "up", "down", "down", "up")
    p = LatticePath(0, steps)
    assert p.length == 15 and p.end == 1
    w = WeightSpec.generic(2)
    b0, b1, b2 = sym("b0"), sym("b1"), sym("b2")
    l1, l2 = sym("lambda1"), sym("lambda2")
    assert path_weight(p, w) == b0 ** 3 * b1 * b2 ** 2 * l1 ** 2 * l2 ** 2


def test_path_weight_trivial():
    w = WeightSpec.generic(2)
    assert path_weight(LatticePath(1, ()), w) == ONE
    assert path_weight(LatticePath(0, ("up",)), w) == ONE


def test_path_weight_strip_violation():
    w = WeightSpec(1, 0, 1)
    with pytest.raises(ValueError):
        path_weight(LatticePath(1, ("up",)), w)
    with pytest.raises(ValueError):
        path_weight(LatticePath(0, ("down",)), w)
    with pytest.raises(ValueError, match="bad step 'sideways'"):
        path_weight(LatticePath(0, ("sideways",)), w)


def test_path_weight_forms_no_product_of_its_own(monkeypatch):
    # the weights of a path are multiplied as one _dot entry
    w = WeightSpec.generic(2)
    p = LatticePath(0, ("across", "up", "across", "up", "down", "across", "down"))
    expected = path_weight(p, w)
    assert expected == sym("b0") * sym("b1") * sym("lambda2") * sym("b1") * sym("lambda1")

    def refuse(self, other):
        raise AssertionError("path_weight formed a product")

    monkeypatch.setattr(LaurentPolynomial, "__mul__", refuse)
    monkeypatch.setattr(LaurentPolynomial, "__rmul__", refuse)
    assert path_weight(p, w) == expected


def test_enumerate_paths_refuses_a_negative_length():
    with pytest.raises(ValueError, match="path length must be nonnegative"):
        list(enumerate_paths(-1, 0, 2))


def test_enumerate_paths_counts():
    # Motzkin numbers: unconstrained when the strip is tall enough
    motzkin = [1, 1, 2, 4, 9, 21, 51]
    for t, m in enumerate(motzkin):
        assert sum(1 for _ in enumerate_paths(t, 0, 10, 0)) == m
    # strip restriction bites: 8 two-state walks instead of 9 unconstrained
    assert sum(1 for _ in enumerate_paths(4, 0, 1, 0)) == 8


def test_brute_force_examples():
    w = WeightSpec.generic(2)
    assert brute_force(StripQuery(0, 1, 1, 2), w) == ONE
    assert brute_force(StripQuery(0, 0, 1, 2), w) == ZERO
    assert brute_force(StripQuery(1, 0, 0, 2), w) == sym("b0")
    dyck = WeightSpec(2, 0, 1)
    assert brute_force(StripQuery(4, 0, 0, 2), dyck) == 2


def test_brute_force_matches_path_enumeration():
    rng = random.Random(515)
    for _ in range(6):
        L = rng.randint(1, 3)
        w = random_weight_spec(rng, L)
        t = rng.randint(0, 5)
        y0, y1 = rng.randint(0, L), rng.randint(0, L)
        direct = ZERO
        for p in enumerate_paths(t, y0, L, y1):
            direct = direct + path_weight(p, w)
        assert brute_force(StripQuery(t, y0, y1, L), w) == direct


def test_brute_force_groups_equal_weights():
    # kappa decorates across heights 0 and 2 and down height 1, so
    # b_0 = b_2 = lambda_1, and the rational decoration -1 makes b_1 equal
    # the background lambda_2: brute force gives equal weights one exponent.
    # Summing path_weight is slow, so past t = 10 the transfer matrix alone
    # is the reference.
    kappa = sym("kappa")
    w = WeightSpec(2, 2, 1, across={0: kappa, 1: -1, 2: kappa}, down={1: kappa + 1})
    assert w.effective_b(0) == w.effective_b(2) == w.effective_lambda(1)
    assert w.effective_b(1) == w.effective_lambda(2) == ONE
    for t in range(15):
        for y0 in range(3):
            for y1 in range(3):
                q = StripQuery(t, y0, y1, 2)
                value = brute_force(q, w)
                assert value == transfer_matrix(q, w), q
                if t <= 10:
                    paths = enumerate_paths(t, y0, 2, y1)
                    direct = Counter(path_weight(p, w) for p in paths)
                    assert value == sum((c * v for v, c in direct.items()), ZERO), q


def test_brute_force_sums_to_an_int():
    # b_0 = 1/4 and b_1 = 3/4 are distinct weights, so the two paths from
    # 0 to 1 are two pieces of the signature cell that sum to 1
    w = WeightSpec(1, Fraction(1, 4), 1, across={1: Fraction(1, 2)})
    value = brute_force(StripQuery(2, 0, 1, 1), w)
    assert value == 1 and type(value.terms()[()]) is int


def test_brute_force_cap():
    w = WeightSpec(1, 0, 1)
    with pytest.raises(SizeLimit):
        brute_force(StripQuery(19, 0, 0, 1), w)
    with pytest.raises(SizeLimit):
        brute_force(StripQuery(70, 0, 0, 1), w, cap=100)


def test_brute_force_builds_no_power_per_query(monkeypatch):
    # a spec's power tables are kept with the spec: once a query at the
    # largest t has filled them, queries at smaller t read them
    kappa = sym("kappa")

    def spec():  # an equal but new spec per query, as a benchmark job builds them
        return WeightSpec(3, Fraction(1, 2), 2, across={1: kappa}, down={3: kappa + 1})

    expected = {(t, y1): transfer_matrix(StripQuery(t, 0, y1, 3), spec())
                for t in range(9) for y1 in range(4)}
    _brute_weights.cache_clear()
    assert brute_force(StripQuery(8, 0, 0, 3), spec()) == expected[8, 0]

    def refuse(*args):
        raise AssertionError("brute force formed a power")

    monkeypatch.setattr(LaurentPolynomial, "__pow__", refuse)
    for t in range(8, -1, -1):
        for y1 in range(4):
            q = StripQuery(t, 0, y1, 3)
            assert brute_force(q, spec()) == expected[t, y1], q


def test_brute_force_power_table_shared_across_threads():
    w = WeightSpec(2, 1, 2, across={0: sym("beta")}, down={2: sym("kappa") - 1})
    weights = [w.effective_b(0), w.effective_b(1), w.effective_lambda(2)]
    orders = [3, 12, 7, 15, 1, 10, 15, 5]
    expected = [[v ** e for e in range(16)] for v in weights]
    failures = []

    def worker(powers, slots, shift):
        for e in orders[shift:] + orders[:shift]:
            for i, v in enumerate(expected):
                if powers[slots[i]][e] != v[e]:
                    failures.append((i, e))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):  # each round grows fresh tables from 4 threads
            _brute_weights.cache_clear()
            _, slots, powers = _brute_weights(w)
            slots = [slots[0], slots[1], slots[4]]  # fields b_0, b_1, lambda_2
            threads = [threading.Thread(target=worker, args=(powers, slots, k))
                       for k in range(0, 8, 2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert failures == []


def _closed_cases() -> list:
    """(t, model) of the benchmark's closed workload, in its order."""
    return ([(2 * r, DmrParams(r, L)) for L in (2, 3, 4, 5) for r in range(9)]
            + [(2 * r, FourWeightParams(r, L)) for L in (4, 5, 6) for r in range(7)]
            + [(2 * n, RogersParams(n, L)) for L in range(2, 8) for n in range(1, 9)])


def test_closed_brute_force_queries_fit_the_signature_cache():
    # the brute-force queries of the benchmark's closed workload, in its
    # order: 53 distinct (L, t) for 105 requests, so a second round of them
    # is answered from the cache alone
    jobs = [(StripQuery(t, 0, 0, m.L), m.weight_spec()) for t, m in _closed_cases()]
    assert len(jobs) == 105
    _signature_cells.cache_clear()
    for q, w in jobs:
        brute_force(q, w)
    first = _signature_cells.cache_info()
    assert first.misses == 53
    for q, w in jobs:
        brute_force(q, w)
    second = _signature_cells.cache_info()
    assert second.misses == first.misses
    assert second.hits - first.hits == len(jobs)


def _end_pruning_specs(L: int) -> list:
    """A spec with every across weight rational zero but one, whose paths
    keep their parity, and one with none zero."""
    down = {L: sym("k")} if L else {}
    return [WeightSpec(L, 0, 1, across={L // 2: sym("a")}, down=down),
            WeightSpec(L, 1, Fraction(1, 2), across={0: Fraction(1, 3)}, down=down)]


def _fresh_brute_force(q, w):
    _signature_cells.cache_clear()
    engines._ENDS_ASKED.clear()
    return brute_force(q, w)


def test_brute_force_pruned_toward_one_end():
    # fresh caches, so every query is the first of its key and is walked
    # toward its own end alone; t = 0 between two heights is empty
    for L in range(6):
        for w in _end_pruning_specs(L):
            for t in range(11):
                for y0 in range(L + 1):
                    for y1 in range(L + 1):
                        q = StripQuery(t, y0, y1, L)
                        assert _fresh_brute_force(q, w) == transfer_matrix(q, w), q
                        zero_across = _brute_weights(w)[0]
                        (key, end), = engines._ENDS_ASKED.items()
                        assert key == (L, y0, t, zero_across) and end == y1
                        assert set(_signature_cells(*key, y1)) <= {y1}
    for y0, y1 in ((0, 1), (2, 0), (1, 3)):
        assert _fresh_brute_force(StripQuery(0, y0, y1, 3), WeightSpec.generic(3)) == ZERO
    assert _fresh_brute_force(StripQuery(0, 2, 2, 3), WeightSpec.generic(3)) == ONE


def test_brute_force_shares_one_walk_once_a_second_end_is_asked():
    # grid order: the first end of a (L, y0, t) is walked alone, every
    # later end reads one walk over all ends, and a key asked again
    # enumerates nothing new
    for L in range(6):
        for w in _end_pruning_specs(L):
            _signature_cells.cache_clear()
            engines._ENDS_ASKED.clear()
            for t in range(11):
                for y0 in range(L + 1):
                    for y1 in range(L + 1):
                        q = StripQuery(t, y0, y1, L)
                        assert brute_force(q, w) == transfer_matrix(q, w), q
                    zero_across = _brute_weights(w)[0]
                    key = (L, y0, t, zero_across)
                    assert engines._ENDS_ASKED[key] == (None if L else 0)
            misses = _signature_cells.cache_info().misses
            brute_force(StripQuery(10, L, 0, L), w)
            assert _signature_cells.cache_info().misses == misses


def test_closed_pass_halves_the_ring_products(monkeypatch):
    # every LaurentPolynomial product by * over the closed cases above,
    # each through closed-form, closed-sum and brute force, from cold
    # caches; the code before products took entries of any length (and
    # before brute force pruned toward the end) made 15,576
    for module in (symbolic, orthopoly, engines, closedforms):
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
    calls = 0
    mul = LaurentPolynomial.__mul__

    def counted(self, other):
        nonlocal calls
        calls += 1
        return mul(self, other)

    monkeypatch.setattr(LaurentPolynomial, "__mul__", counted)
    monkeypatch.setattr(LaurentPolynomial, "__rmul__", counted)
    for t, m in _closed_cases():
        m.closed_form()
        m.closed_sum()
        brute_force(StripQuery(t, 0, 0, m.L), m.weight_spec())
    assert calls <= 15576 // 2


def test_transfer_matrix_examples():
    w = WeightSpec.generic(3)
    assert transfer_matrix(StripQuery(1, 0, 1, 3), w) == ONE
    assert (transfer_matrix(StripQuery(2, 0, 0, 3), w)
            == sym("b0") ** 2 + sym("lambda1"))


def test_transfer_matrix_equals_explicit_matrix_power():
    # independent oracle: square matrix product written out in the test
    kappa = sym("kappa")
    m = [[ONE, ONE, ZERO], [1 + kappa, ONE, ONE], [ZERO, ONE, ONE]]
    w = WeightSpec(2, 1, 1, down={1: kappa})
    power = [[ONE if i == j else ZERO for j in range(3)] for i in range(3)]
    for t in range(0, 5):
        for y0 in range(3):
            for y1 in range(3):
                assert transfer_matrix(StripQuery(t, y0, y1, 2), w) == power[y0][y1]
        power = [[sum((power[i][k] * m[k][j] for k in range(3)), ZERO)
                  for j in range(3)] for i in range(3)]


def test_transfer_matrix_equals_brute():
    rng = random.Random(626)
    for _ in range(5):
        L = rng.randint(0, 3)
        w = random_weight_spec(rng, L)
        for t in range(0, 6):
            for y0 in range(L + 1):
                for y1 in range(L + 1):
                    q = StripQuery(t, y0, y1, L)
                    assert transfer_matrix(q, w) == brute_force(q, w)


def test_h_factor():
    w = WeightSpec(3, 1, 1, down={1: sym("kappa_hat")})
    assert h_factor(StripQuery(0, 0, 2, 3), w) == ONE
    assert h_factor(StripQuery(0, 2, 0, 3), w) == (1 + sym("kappa_hat")) * 1
    assert h_factor(StripQuery(0, 1, 0, 3), w) == 1 + sym("kappa_hat")
    w2 = WeightSpec.generic(3)
    assert h_factor(StripQuery(0, 2, 0, 3), w2) == sym("lambda1") * sym("lambda2")


def test_h_factor_refuses_a_strip_that_is_not_its_specs():
    # lambda_3..lambda_5 lie past the spec's strip of height 2
    w = WeightSpec(2, 0, 1, down={2: sym("k")})
    with pytest.raises(ValueError, match="query strip L=5 != weights strip L=2"):
        h_factor(StripQuery(2, 5, 0, 5), w)


def test_viennot_ct_examples():
    w = WeightSpec.generic(2)
    assert viennot_ct(StripQuery(1, 0, 0, 2), w) == sym("b0")
    q = StripQuery(3, 1, 0, 2)
    assert viennot_ct(q, w) == brute_force(q, w)


def test_rho_ct_examples():
    dyck = WeightSpec(2, 0, 1)
    assert rho_ct(StripQuery(4, 0, 0, 2), dyck) == 2
    degenerate = WeightSpec(0, 1, 0)  # L=0 tolerates a zero background lambda
    with pytest.raises(ZeroLambda):
        rho_ct(StripQuery(1, 0, 0, 0), degenerate)


def test_rho_ct_deep_t_matches_transfer_matrix():
    beta, kappa = sym("beta"), sym("kappa")
    for L in (1, 2, 3):
        for b, lam in ((0, 1), (1, 2), (Fraction(-1, 2), 3)):
            w = WeightSpec(L, b, lam, across={0: beta}, down={L: kappa})
            for y0, y1 in ((0, 0), (0, L), (L, 0)):
                for t in (20, 30):
                    q = StripQuery(t, y0, y1, L)
                    assert rho_ct(q, w) == transfer_matrix(q, w), q.label()


def test_ratio_cache_is_history_independent():
    """Viennot's ratio in x and rho-ct's quotient series are each cached per
    endpoint pair, strip and weights, never per t: every t order, pairs interleaved, and cleared caches give the
    same values."""
    w = WeightSpec(3, Fraction(1, 2), -2, across={0: sym("beta")}, down={3: sym("kappa")})
    pairs = ((0, 0), (0, 3), (2, 1), (3, 0))
    ts = range(8)

    def run(points):
        out = {}
        for y0, y1, t in points:
            q = StripQuery(t, y0, y1, 3)
            gf = generating_function(y0, y1, 3, w, t).coefficient(t)
            out[y0, y1, t] = (viennot_ct(q, w), rho_ct(q, w), gf)
        return out

    def clear():
        _ratio.cache_clear()
        engines._rho_denominator_inverse.cache_clear()

    clear()
    rising = run([(y0, y1, t) for y0, y1 in pairs for t in ts])
    # one x ratio per pair, read by every t and both x engines; the rho
    # ratio is built once per pair by the quotient state, outside the cache
    assert _ratio.cache_info().misses == len(pairs)
    assert engines._rho_denominator_inverse.cache_info().misses == len(pairs)
    falling = run([(y0, y1, t) for y0, y1 in pairs for t in ts[::-1]])
    clear()
    fresh = run([(y0, y1, t) for y0, y1 in pairs for t in ts[::-1]])
    assert rising == falling == fresh
    rng = random.Random(12)
    for _ in range(3):  # random t orders, the endpoint pairs interleaved
        points = [(y0, y1, t) for y0, y1 in pairs for t in ts]
        rng.shuffle(points)
        clear()
        assert run(points) == rising
    for (y0, y1, t), values in rising.items():
        expected = transfer_matrix(StripQuery(t, y0, y1, 3), w)
        assert values == (expected,) * 3, (y0, y1, t)


def test_the_ratio_windows_are_stated_once(monkeypatch):
    # viennot-ct, gf, rho-ct and cheb-ct take the (order, shift) of every
    # polynomial of Viennot's ratio from engines._windows: a wrong statement
    # there reaches all four, so an engine that stated them again privately
    # would keep agreeing with transfer_matrix and fail here
    w = WeightSpec(4, 1, 2, across={0: sym("win_a0"), 4: sym("win_a4")},
                   down={2: sym("win_d2"), 4: sym("win_d4")})
    # from 3 down to 1: decorations below (0), between (2) and above (4)
    queries = [StripQuery(t, 3, 1, 4) for t in range(2, 8)]
    expected = [transfer_matrix(q, w) for q in queries]
    readers = {
        "viennot-ct": viennot_ct,
        "gf": lambda q, w: generating_function(q.y_start, q.y_end, q.L, w,
                                               q.t).coefficient(q.t),
        "rho-ct": rho_ct,
        "cheb-ct": cheb_ct,
    }

    def agreeing():
        _ratio.cache_clear()
        engines._rho_denominator_inverse.cache_clear()
        return {name for name, read in readers.items()
                if [read(q, w) for q in queries] == expected}

    def upper_shift_off_by_one(q):
        return (q.y_lo, 0), (q.L - q.y_hi, q.y_hi + 2), (q.L + 1, 0)

    windows = engines._windows
    monkeypatch.setattr(engines, "_windows", upper_shift_off_by_one)
    assert agreeing() == set()
    monkeypatch.setattr(engines, "_windows", windows)
    assert agreeing() == set(readers)


def test_rho_ct_forms_no_product_with_the_kernel(monkeypatch):
    # rho-ct reads its constant term as a dot product of the cached quotient
    # series with the kernel's coefficients, so it needs no series product
    w = WeightSpec(3, 1, 2, across={1: sym("beta")}, down={2: sym("kappa"), 3: -2})
    expected = {(t, y0, y1): transfer_matrix(StripQuery(t, y0, y1, 3), w)
                for t in range(7) for y0 in range(4) for y1 in range(4)}

    def refuse(*args, **kwargs):
        raise AssertionError("rho_ct multiplied a series by a polynomial")

    monkeypatch.setattr(engines.TruncatedSeries, "mul_poly", refuse)
    engines._rho_denominator_inverse.cache_clear()
    for (t, y0, y1), value in expected.items():
        assert rho_ct(StripQuery(t, y0, y1, 3), w) == value, (t, y0, y1)


def test_fused_sums_form_no_product_of_their_own(monkeypatch):
    # rho-ct's series extension and constant term and the transfer-matrix
    # step add their products into one sum (symbolic._dot), so neither
    # calls the ring's product
    w = WeightSpec(2, 1, 2, across={0: sym("fused_beta")}, down={2: sym("fused_kappa")})
    rho_q, row_q = StripQuery(7, 0, 2, 2), StripQuery(6, 1, 0, 2)
    expected = {q: brute_force(q, w) for q in (rho_q, row_q)}
    rho_ct(StripQuery(1, 0, 2, 2), w)  # warms the quotient state at order 1

    def refuse(self, other):
        raise AssertionError("a fused site formed a product")

    monkeypatch.setattr(LaurentPolynomial, "__mul__", refuse)
    monkeypatch.setattr(LaurentPolynomial, "__rmul__", refuse)
    assert rho_ct(rho_q, w) == expected[rho_q]
    assert transfer_matrix(row_q, w) == expected[row_q]


def test_rho_ct_symbolic_t_sweep():
    # every weight a symbol of its own over rational backgrounds
    w = WeightSpec(3, 1, 2, across={i: sym(f"b{i}") for i in range(4)},
                   down={i: sym(f"l{i}") for i in range(1, 4)})
    for y0, y1 in ((0, 0), (0, 3), (3, 1)):
        for t in range(13):
            q = StripQuery(t, y0, y1, 3)
            assert rho_ct(q, w) == transfer_matrix(q, w), q.label()


def test_rho_ct_two_wall_spec_deep():
    # rho-ct expands every P of the ratio while cheb-ct cuts them at the two
    # decorations; at L = 30, t = 120 the two still agree exactly
    w = WeightSpec(30, 0, 1, down={1: sym("kappa"), 30: sym("omega")})
    q = StripQuery(120, 0, 0, 30)
    assert rho_ct(q, w) == cheb_ct(q, w)


def test_kernel_power_matches_repeated_product():
    rho = sym("rho")
    for b in BACKGROUND_B_POOL + [2, Fraction(-3, 4)]:
        for lam in BACKGROUND_L_POOL + [0, Fraction(2, 3)]:
            kernel = rho + b + monomial(lam, rho=-1)
            for t in range(31):
                assert _kernel_power(b, lam, t) == kernel ** t, (b, lam, t)


def test_rho_ct_rational_deep_matches_transfer_matrix():
    # the kernel's coefficients come from a recurrence, so t = 1000 costs
    # O(t) whole-number steps, not repeated squaring of a 2001-term power
    w = WeightSpec(5, 1, 1, across={0: 2}, down={5: 3})
    q = StripQuery(1000, 0, 0, 5)
    assert rho_ct(q, w) == transfer_matrix(q, w)


def test_cheb_ct_denominator_does_not_grow_with_L(monkeypatch):
    # with the decorations cut out, every factor of the denominator is a
    # two-term T_m, so a fixed decoration set keeps its term count at any L
    seen = []
    exact = engines.constant_term_ratio
    monkeypatch.setattr(engines, "constant_term_ratio",
                        lambda num, den: seen.append(den) or exact(num, den))
    k, o, k1, k2, o1, o2 = (sym(n) for n in ("k", "o", "k1", "k2", "o1", "o2"))
    for L in range(3, 31):
        two = WeightSpec(L, 0, 1, down={1: k, L: o})
        cheb_ct(StripQuery(4, 0, 0, L), two)
        assert seen[-1].term_count() == 8, L
        if L >= 7:
            four = WeightSpec(L, 0, 1, down={1: k1, 2: k2, L - 1: o2, L: o1})
            cheb_ct(StripQuery(4, 0, 0, L), four)
            assert seen[-1].term_count() <= 30, L


def test_generating_function_examples():
    w = WeightSpec.generic(2)
    gf = generating_function(0, 0, 2, w, 8)
    assert gf.coefficient(0) == ONE
    for t in range(0, 9):
        assert gf.coefficient(t) == brute_force(StripQuery(t, 0, 0, 2), w)
    lam1 = sym("lam1")
    single_cell = WeightSpec(1, 0, 1, down={1: lam1 - 1})
    gf1 = generating_function(0, 0, 1, single_cell, 6)
    for t in range(0, 7):
        expected = lam1 ** (t // 2) if t % 2 == 0 else ZERO
        assert gf1.coefficient(t) == expected


def test_x_engines_vanish_below_the_endpoint_gap():
    # viennot-ct and gf read their product at x^(t - |y1 - y0|), and a
    # length shorter than the gap between the endpoints reaches nothing
    w = WeightSpec(4, 1, 2, across={2: sym("beta")}, down={3: sym("kappa")})
    for y0, y1 in ((0, 4), (4, 0), (1, 3), (3, 0)):
        gap = abs(y1 - y0)
        for t in range(gap):
            assert viennot_ct(StripQuery(t, y0, y1, 4), w) == ZERO, (y0, y1, t)
            low = generating_function(y0, y1, 4, w, t)
            assert low.coefficients() == {} and low.truncation_order == t
        gf = generating_function(y0, y1, 4, w, gap + 3)
        for t in range(gap + 4):
            q = StripQuery(t, y0, y1, 4)
            assert gf.coefficient(t) == viennot_ct(q, w) == transfer_matrix(q, w), q


def test_five_way_agreement_small_grid():
    rng = random.Random(737)
    for _ in range(4):
        L = rng.randint(0, 3)
        w = random_weight_spec(rng, L, max_decorations=2)
        for t in range(0, 6):
            for y0 in range(L + 1):
                for y1 in range(L + 1):
                    values = _all_engine_values(StripQuery(t, y0, y1, L), w)
                    assert len({v.render() for v in values.values()}) == 1, (
                        L, t, y0, y1, {k: v.render() for k, v in values.items()})


def test_reversal_symmetry():
    rng = random.Random(848)
    w = random_weight_spec(rng, 3)
    for t in range(0, 6):
        for hi in range(0, 4):
            for lo in range(0, hi + 1):
                down = brute_force(StripQuery(t, hi, lo, 3), w)
                up = brute_force(StripQuery(t, lo, hi, 3), w)
                assert down == h_factor(StripQuery(t, hi, lo, 3), w) * up


def test_dyck_parity_and_support():
    w = WeightSpec(3, 0, 1, down={2: sym("kappa")})
    for t in range(0, 7):
        for y0 in range(4):
            for y1 in range(4):
                z = brute_force(StripQuery(t, y0, y1, 3), w)
                if (t - abs(y1 - y0)) % 2 == 1:
                    assert z.is_zero
                if abs(y1 - y0) > t:
                    assert z.is_zero


def test_down_decoration_degree_bound():
    w = WeightSpec(3, 1, 1, down={1: sym("kappa")})
    for t in range(0, 8):
        z = brute_force(StripQuery(t, 0, 0, 3), w)
        if z.is_zero or "kappa" not in z.symbols():
            continue
        assert z.max_exponent("kappa") <= t // 2


def test_query_validation():
    with pytest.raises(ValueError):
        StripQuery(-1, 0, 0, 2)
    with pytest.raises(ValueError):
        StripQuery(0, 3, 0, 2)
    # every engine refuses weights made for another strip, with one message
    for engine in (brute_force, transfer_matrix, viennot_ct, rho_ct, cheb_ct):
        with pytest.raises(ValueError, match=r"query strip L=2 != weights strip L=3"):
            engine(StripQuery(1, 0, 0, 2), WeightSpec(3, 0, 1))
    with pytest.raises(ValueError, match=r"argument L=2 != weights strip L=3"):
        generating_function(0, 0, 2, WeightSpec(3, 0, 1), 3)
    # a float length never reaches 0 in brute force's countdown, and a bool
    # is not a height
    for fields in ((1.5, 0, 0, 0), (True, 0, 0, 1), (2, False, 0, 1),
                   (2, 0, 0, Fraction(1))):
        with pytest.raises(ValueError):
            StripQuery(*fields)


def test_zero_lambda_is_a_wall_for_every_engine():
    # a zero lambda_i forbids every down step from height i; only the change
    # of variable x -> rho + b + lam/rho of rho-ct and cheb-ct needs a
    # nonzero lambda, and only the background one
    kappa = sym("kappa")
    for L in range(4):
        specs = [
            WeightSpec(L, 0, 0),
            WeightSpec(L, 1, 0, across={0: kappa}, down={L: kappa} if L else None),
            WeightSpec(L, 0, 1, down={1: -1} if L else None),
            WeightSpec(L, Fraction(1, 2), 2, across={L: kappa},
                       down={h: -2 if h == L else kappa for h in range(1, L + 1)}),
        ]
        for w in specs:
            for y0 in range(L + 1):
                for y1 in range(L + 1):
                    gf = generating_function(y0, y1, L, w, 6)
                    for t in range(7):
                        q = StripQuery(t, y0, y1, L)
                        expected = brute_force(q, w)
                        assert transfer_matrix(q, w) == expected, (q, w)
                        assert viennot_ct(q, w) == expected, (q, w)
                        assert gf.coefficient(t) == expected, (q, w)
                        for engine in (rho_ct, cheb_ct):
                            if w.background_lambda:
                                assert engine(q, w) == expected, (q, w)
                            else:
                                with pytest.raises(ZeroLambda):
                                    engine(q, w)


def test_deep_t_and_L_need_no_recursion():
    # transfer rows and recurrence orders are filled bottom-up, so neither t
    # nor L is bounded by the interpreter's recursion limit
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        # J = [[1, 1], [1, 1]], so J^300 = 2^299 J
        assert (transfer_matrix(StripQuery(300, 0, 1, 1), WeightSpec(1, 1, 1))
                == 2 ** 299)
        assert viennot_ct(StripQuery(4, 0, 0, 300), WeightSpec(300, 0, 1)) == 2
    finally:
        sys.setrecursionlimit(limit)


@st.composite
def strip_queries(draw):
    """A query with L <= 4, t <= 12 and any endpoints (so t = 0 and
    t < |y1 - y0| occur) and its weights: rational backgrounds with a
    nonzero lambda, plus up to three across and three down decorations,
    each a rational or a symbol of its own."""
    L = draw(st.integers(0, 4))
    lam = draw(st.sampled_from(BACKGROUND_L_POOL))

    def decorations(lo, kind):
        out = {}
        for h in draw(st.sets(st.integers(lo, L), max_size=3)) if lo <= L else ():
            # an effective b or lambda may be zero
            out[h] = draw(st.sampled_from(RATIONAL_POOL + [sym(f"{kind}{h}")]))
        return out

    w = WeightSpec(L, draw(st.sampled_from(BACKGROUND_B_POOL)), lam,
                   decorations(0, "a"), decorations(1, "u"))
    heights = st.integers(0, L)
    return StripQuery(draw(st.integers(0, 12)), draw(heights), draw(heights), L), w


@settings(max_examples=200, deadline=None)
@given(strip_queries())
def test_five_way_agreement_random_queries(query):
    q, w = query
    values = _all_engine_values(q, w)
    assert len(set(values.values())) == 1, {k: v.render() for k, v in values.items()}


def _whole_coefficients_are_int(p) -> bool:
    return all(type(c) is int or c.denominator != 1 for c in p.terms().values())


@settings(max_examples=100, deadline=None)
@given(strip_queries())
def test_whole_coefficients_are_int_random_queries(query):
    # strip_queries draws a nonzero background lambda, so rho-ct is checked
    # too; the weights come in as Fraction, whole or not
    q, w = query
    for name, value in _all_engine_values(q, w).items():
        assert _whole_coefficients_are_int(value), (name, value.terms())


def test_equal_specs_are_one_object_and_hit_the_engine_caches_by_identity(monkeypatch):
    # the grid workload's request: parse the decoration text, build the spec
    def build(b=Fraction(1, 2)):
        return WeightSpec(3, b, 2, {0: parse_polynomial("beta")},
                          {2: parse_polynomial("kappa")})

    w = build()
    assert build() is w and build(Fraction(2, 4)) is w
    assert build(1) is not w and build(1) != w
    eq = WeightSpec.__eq__
    calls = []
    monkeypatch.setattr(WeightSpec, "__eq__",
                        lambda self, other: calls.append(other) or eq(self, other))
    for y0 in range(4):
        for y1 in range(4):
            gf = generating_function(y0, y1, 3, build(), 4)
            for t in range(5):
                q = StripQuery(t, y0, y1, 3)
                values = {f(q, build()) for f in (brute_force, transfer_matrix,
                                                  viennot_ct, rho_ct, cheb_ct)}
                assert values == {gf.coefficient(t)}
    assert calls == []


def test_interned_specs_keep_every_check():
    kappa = sym("kappa")
    # equal valid specs are interned first, so a lookup that skipped a check
    # would hand one of them back
    WeightSpec(1), WeightSpec(2, 1), WeightSpec(2, 0, 1), WeightSpec(2, down={1: kappa})
    with pytest.raises(ValueError):
        WeightSpec(True)
    with pytest.raises(TypeError):
        WeightSpec(2, True)
    with pytest.raises(TypeError):
        WeightSpec(2, 0, True)
    with pytest.raises(ValueError):
        WeightSpec(2, down={True: kappa})
    for value in (sym("rho"), sym("x")):
        with pytest.raises(ValueError, match="reserve"):
            WeightSpec(2, down={1: value})
    with pytest.raises(ValueError):
        WeightSpec(2, down={3: kappa})
