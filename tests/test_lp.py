import hashlib
import random
from fractions import Fraction as F

import pytest

from extlab import engine, lp
from extlab.corpus import binary_counter_measure, disconnected_counterexample
from extlab.lattice import Domain, CapExceeded
from extlab.lp import (LinearSystem, solve_feasibility, enumerate_vertices,
                       FEASIBLE, INFEASIBLE, ABORTED)
from extlab.measures import Measure, random_stationary_measure

from support import (fm_feasible, rational_rows, reference_check,
                     reference_dumps, reference_eliminate, reference_vertices,
                     system_to_ineqs)


def simple_system(rows, rhs, nvars, nonneg=True):
    sys_ = LinearSystem()
    for i in range(nvars):
        sys_.add_variable(f"x{i}", nonneg=nonneg)
    for coeffs, b in zip(rows, rhs):
        sys_.add_eq({f"x{i}": c for i, c in enumerate(coeffs) if c}, b)
    return sys_


def test_feasible_simplex_point_is_verified():
    s = simple_system([[1, 1, 1]], [1], 3)
    res = solve_feasibility(s)
    assert res.status == FEASIBLE
    assert sum(res.assignment.values()) == 1
    assert all(v >= 0 for v in res.assignment.values())


def test_infeasible_mass_conflict():
    s = simple_system([[1, 1], [1, 1]], [1, 2], 2)
    assert solve_feasibility(s).status == INFEASIBLE


def test_infeasible_by_sign():
    s = simple_system([[1, 1]], [-1], 2)  # nonneg vars summing to -1
    assert solve_feasibility(s).status == INFEASIBLE


def test_free_variables():
    s = LinearSystem()
    s.add_variable("x", nonneg=False)
    s.add_variable("y", nonneg=True)
    s.add_eq({"x": 1, "y": 1}, -5)
    res = solve_feasibility(s)
    assert res.status == FEASIBLE
    assert res.assignment["x"] + res.assignment["y"] == -5


def test_inequalities():
    s = LinearSystem()
    s.add_variable("x")
    s.add_ge({"x": 1}, 3)
    s.add_ge({"x": -1}, -10)   # x <= 10
    res = solve_feasibility(s, objective={"x": 1})
    assert res.status == FEASIBLE
    assert res.assignment["x"] == 10
    res = solve_feasibility(s, objective={"x": -1})
    assert res.assignment["x"] == 3


def test_redundant_rows_are_harmless():
    s = simple_system([[1, 1], [2, 2], [1, 1]], [1, 2, 1], 2)
    assert solve_feasibility(s).status == FEASIBLE


def test_pivot_cap_aborts():
    s = simple_system([[1, 1, 1, 1]], [1], 4)
    assert solve_feasibility(s, pivot_limit=0).status == ABORTED


def test_warm_start_short_circuits():
    s = simple_system([[1, 1]], [1], 2)
    res = solve_feasibility(s, warm_start={"x0": F(1, 3), "x1": F(2, 3)},
                            pivot_limit=0)
    assert res.status == FEASIBLE
    assert res.assignment["x0"] == F(1, 3)


def test_tableau_size_is_capped(monkeypatch):
    # x >= 0, y free (two columns), one slack: 2 rows x (4 columns +
    # 2 artificials + rhs) = 14 entries, refused before any row is built
    s = LinearSystem()
    s.add_variable("x")
    s.add_variable("y", nonneg=False)
    s.add_eq({"x": 1, "y": 1}, 1)
    s.add_ge({"x": 1, "y": -1}, 0)
    monkeypatch.setenv("EXTLAB_CAP_CELLS", "13")
    with pytest.raises(CapExceeded, match="2 x 7 = 14 entries"):
        solve_feasibility(s)
    # a warm start that checks needs no tableau
    assert solve_feasibility(s, warm_start={"x": F(1), "y": F(0)}).status \
        == FEASIBLE
    monkeypatch.setenv("EXTLAB_CAP_CELLS", "14")
    assert solve_feasibility(s).status == FEASIBLE


def test_against_fourier_motzkin_oracle():
    rng = random.Random(77)
    agree = {True: 0, False: 0}
    for _ in range(60):
        nvars = rng.randint(2, 5)
        s = LinearSystem()
        for i in range(nvars):
            s.add_variable(f"x{i}", nonneg=rng.random() < 0.8)
        for _ in range(rng.randint(1, 4)):
            coeffs = {f"x{i}": rng.randint(-3, 3) for i in range(nvars)}
            if rng.random() < 0.5:
                s.add_eq(coeffs, rng.randint(-2, 4))
            else:
                s.add_ge(coeffs, rng.randint(-2, 4))
        got = solve_feasibility(s)
        rows, n = system_to_ineqs(s)
        want = fm_feasible(rows, n)
        assert got.status == (FEASIBLE if want else INFEASIBLE)
        agree[want] += 1
    # make sure both outcomes actually occurred
    assert agree[True] > 5 and agree[False] > 5


def test_against_fourier_motzkin_oracle_rational():
    # rational coefficients and rhs: each row is scaled to integers by the
    # lcm of its denominators, and negated when its rhs is negative
    rng = random.Random(78)
    agree = {True: 0, False: 0}
    for _ in range(60):
        nvars = rng.randint(2, 4)
        s = LinearSystem()
        for i in range(nvars):
            s.add_variable(f"x{i}", nonneg=rng.random() < 0.8)
        # half the systems hold a planted point with zero coordinates:
        # degenerate, so artificials can stay basic at zero after phase 1
        # and must be pivoted out on entries of either sign
        planted = rng.random() < 0.5 and [
            F(rng.randint(0, 3), rng.randint(1, 6)) if rng.random() < 0.5
            else F(0) for _ in range(nvars)]
        for _ in range(rng.randint(1, 4)):
            coeffs = {f"x{i}": F(rng.randint(-4, 4), rng.randint(1, 6))
                      for i in range(nvars)}
            rhs = (sum(c * x for c, x in zip(coeffs.values(), planted))
                   if planted else F(rng.randint(-3, 5), rng.randint(1, 6)))
            if rng.random() < 0.5:
                s.add_eq(coeffs, rhs)
            else:
                s.add_ge(coeffs, rhs)
        # a rational objective runs phase 2 on the same rows
        objective = {f"x{i}": F(rng.randint(-3, 3), rng.randint(1, 6))
                     for i in range(nvars)}
        got = solve_feasibility(s, objective)
        rows, n = system_to_ineqs(s)
        want = fm_feasible(rows, n)
        assert got.status == (FEASIBLE if want else INFEASIBLE)
        agree[want] += 1
    assert agree[True] > 5 and agree[False] > 5


def test_enumerate_vertices_unit_simplex():
    s = simple_system([[1, 1, 1]], [1], 3)
    vs = enumerate_vertices(s, max_count=10, seed=3)
    keys = {tuple(v[f"x{i}"] for i in range(3)) for v in vs}
    corners = {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
    assert keys <= corners          # vertices only
    assert len(keys) == 3           # and all of them, eventually


def test_enumerate_vertices_deterministic():
    s = simple_system([[1, 2, 3]], [6], 3)
    a = enumerate_vertices(s, max_count=5, seed=1)
    b = enumerate_vertices(s, max_count=5, seed=1)
    assert a == b


def test_enumerate_vertices_infeasible_is_empty():
    s = simple_system([[1, 1]], [-2], 2)
    assert enumerate_vertices(s, max_count=5) == []


def test_digest_stable_and_sensitive():
    a = simple_system([[1, 1]], [1], 2)
    b = simple_system([[1, 1]], [1], 2)
    c = simple_system([[1, 2]], [1], 2)
    assert a.digest() == b.digest()
    assert a.digest() != c.digest()


def test_dumps_renders_the_fraction_rows(monkeypatch):
    # rows are stored only as integer forms; dumps renders them as the
    # Fraction rows they were added as, so every digest is unchanged
    added = {}
    for kind, name in (("==", "add_eq"), (">=", "add_ge")):
        def spy(self, coeffs, rhs, kind=kind, real=getattr(LinearSystem,
                                                            name)):
            real(self, coeffs, rhs)
            added.setdefault(id(self), []).append((kind, coeffs, rhs))
        monkeypatch.setattr(LinearSystem, name, spy)
    systems = [seeded_rational_system(seed)[0] for seed in range(400)]
    rng = random.Random(11)
    systems += [seeded_check_case(rng)[0] for _ in range(400)]
    s = LinearSystem()
    s.add_variable("x", nonneg=False)
    s.add_variable("y")
    s.add_eq({}, 0)
    s.add_eq({"x": 0, "y": F(0, 3)}, F(-2, 4))
    s.add_ge({"x": "1/3", "y": 2.5}, -1)
    systems.append(s)
    kinds = {"rational": 0, "negative rhs": 0, "zero coefficient": 0,
             "empty row": 0, "free variable": 0}
    for s in systems:
        rows = added.get(id(s), [])
        assert s.dumps() == reference_dumps(s.variables, s.nonneg, rows)
        kinds["rational"] += any(F(x).denominator > 1 for _, c, b in rows
                                 for x in (b, *c.values()))
        kinds["negative rhs"] += any(F(b) < 0 for _, _, b in rows)
        kinds["zero coefficient"] += any(F(x) == 0 for _, c, _ in rows
                                         for x in c.values())
        kinds["empty row"] += any(not any(map(F, c.values()))
                                  for _, c, _ in rows)
        kinds["free variable"] += len(s.nonneg) < len(s.variables)
    assert min(kinds.values()) > 10, kinds


def test_int_row_reads_mixed_values():
    # ints, bools and Fractions are read as they are, a str through
    # Fraction; a zero coefficient is dropped
    coeffs = {"a": 2, "b": F(1, 3), "c": "1/2", "d": 0, "e": True}
    row = lp._int_row(coeffs, F(5, 6))
    assert row == (6, {"a": 12, "b": 2, "c": 3, "e": 6}, 5)
    assert all(type(x) is int for x in (row[0], *row[1].values(), row[2]))


def test_unknown_variable_stores_no_row():
    s = simple_system([[1, 1]], [1], 2)
    text = s.dumps()
    for add in (s.add_eq, s.add_ge):
        with pytest.raises(ValueError, match="unknown variable 'y'"):
            add({"x0": 1, "y": 0}, 1)
    assert (len(s.equalities), len(s.inequalities)) == (1, 0)
    assert s.dumps() == text


def test_check_rejects_violations():
    s = simple_system([[1, 1]], [1], 2)
    assert s.check({"x0": F(1, 2), "x1": F(1, 2)})
    assert not s.check({"x0": F(3, 2), "x1": F(-1, 2)})
    assert not s.check({"x0": F(1, 2), "x1": F(1, 4)})


def seeded_check_case(rng):
    """A system and a candidate point for LinearSystem.check: free and
    nonnegative variables, == and >= rows with rational coefficients
    and rhs of either sign, int and Fraction values.  Rows are built
    tight, slack or violated at the point; now and then a value is
    missing or a nonnegative one is negative."""
    def q():
        return F(rng.randint(-6, 6), rng.randint(1, 6))
    s = LinearSystem()
    point = {}
    for i in range(rng.randint(1, 6)):
        nonneg = rng.random() < 0.6
        s.add_variable(f"x{i}", nonneg=nonneg)
        value = q() if rng.random() < 0.6 else rng.randint(-4, 4)
        point[f"x{i}"] = abs(value) if nonneg and rng.random() < 0.9 \
            else value
    for _ in range(rng.randint(0, 4)):
        coeffs = {v: q() for v in s.variables if rng.random() < 0.7}
        at = sum((c * point[v] for v, c in coeffs.items()), F(0))
        off = rng.choice([0, 0, 0, 1, -1]) * F(1, rng.randint(1, 7))
        (s.add_eq if rng.random() < 0.5 else s.add_ge)(coeffs, at + off)
    if rng.random() < 0.05:
        del point[rng.choice(s.variables)]
    return s, point


def test_check_matches_fraction_sums():
    rng = random.Random(7)
    verdicts = {True: 0, False: 0}
    strict_ge = rational_pass = missing = negative = 0
    for _ in range(3000):
        s, point = seeded_check_case(rng)
        ok = s.check(point)
        assert ok == reference_check(s, point), s.dumps()
        verdicts[ok] += 1
        missing += len(point) < len(s.variables)
        negative += any(point.get(v, 0) < 0 for v in s.nonneg)
        if ok:
            rows = [(c, b) for c, b in rational_rows(s.inequalities)
                    if sum((x * point[v] for v, x in c.items()), F(0)) > b]
            strict_ge += bool(rows)
            rational_pass += any(
                x.denominator > 1 for c, _ in
                rational_rows(s.equalities + s.inequalities)
                for x in c.values())
    # both verdicts, slack >= rows, rational rows that hold, missing
    # values and negative nonnegative values all occur
    assert min(verdicts.values()) > 500
    assert strict_ge > 100 and rational_pass > 100
    assert missing > 50 and negative > 50


# ---------------------------------------------------------------------------
# the simplex's exact output, pinned


def _digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _assignment_digest(assignment):
    return _digest(sorted((v, str(x)) for v, x in assignment.items()))


def seeded_rational_system(seed):
    """Rational rows and rhs of either sign, free variables, == and >=
    rows, and an objective about half the time."""
    rng = random.Random(seed)

    def q():
        return F(rng.randint(-6, 6), rng.randint(1, 6))
    nvars = rng.randint(3, 6)
    s = LinearSystem()
    for i in range(nvars):
        s.add_variable(f"x{i}", nonneg=rng.random() < 0.7)
    for _ in range(rng.randint(2, 5)):
        coeffs = {f"x{i}": q() for i in range(nvars) if rng.random() < 0.8}
        (s.add_eq if rng.random() < 0.5 else s.add_ge)(coeffs, q())
    objective = ({f"x{i}": q() for i in range(nvars)}
                 if rng.random() < 0.5 else None)
    return s, objective


# seed -> (status, pivots, assignment digest); "-" is the empty assignment
PINNED_SYSTEMS = {
    0: ("infeasible", 5, "-"), 1: ("feasible", 6, "a694ec4e35a36ab1"),
    2: ("feasible", 4, "6ccbf2c9c941217b"),
    3: ("feasible", 2, "e466a5cc59d25897"), 4: ("infeasible", 1, "-"),
    5: ("feasible", 2, "d2e9fe71ff39ca3d"), 6: ("infeasible", 2, "-"),
    7: ("feasible", 2, "ca05fa812b3f69ec"), 8: ("infeasible", 0, "-"),
    9: ("feasible", 4, "18130e34c8482228"), 10: ("infeasible", 1, "-"),
    11: ("feasible", 6, "c4b0c044268f45b8"), 12: ("infeasible", 9, "-"),
    13: ("feasible", 3, "538af4a61b70b5c1"),
    14: ("feasible", 3, "3ab11e30ae37b18c"),
    15: ("feasible", 2, "2ecd132d54c150a9"),
    16: ("feasible", 4, "2b1716d1fd2db6a0"),
    17: ("feasible", 3, "39aeec1156471e8a"), 18: ("infeasible", 5, "-"),
    19: ("infeasible", 4, "-"), 20: ("feasible", 4, "d4b3e6e27f4b0b23"),
    21: ("infeasible", 2, "-"), 22: ("infeasible", 3, "-"),
    23: ("feasible", 3, "f0cfb4dfa1cf9266"),
}


def test_simplex_results_pinned(monkeypatch):
    # recorded from the Fraction tableau; a change to the entering rule,
    # the ratio test's tie-break or the phase-1 verdict changes a pivot
    # count or a digest here
    # the full window systems; ExtensionPolytope.solve solves their
    # quotient (see test_window_quotient_results_pinned)
    for n, pivots, digest in ((3, 7, "a32d4399e65ac4a1"),
                              (4, 11, "9ba686069ed7446b"),
                              (5, 19, "fee479d6167f7078"),
                              (6, 35, "6024d87253b08f95")):
        mu = random_stationary_measure(2, 2, random.Random(n))
        res = solve_feasibility(engine.build_window_polytope(
            mu, Domain.interval(0, n - 1)).system)
        assert (res.status, res.pivots) == (FEASIBLE, pivots), n
        assert _assignment_digest(res.assignment) == digest, n
    uniform = Measure.uniform(Domain.box(2, 2), 2)
    for shape, pivots, digest in (((2, 3), 56, "d11ac49f1670b0e0"),
                                  ((3, 2), 107, "62e555669c292620")):
        res = solve_feasibility(engine.build_window_polytope(
            uniform, Domain.box(2, shape)).system)
        assert (res.status, res.pivots) == (FEASIBLE, pivots), shape
        assert _assignment_digest(res.assignment) == digest, shape

    # the torus LP, read through the engine's own solve call
    systems, solved = [], []

    def spy(system, *args, **kwargs):
        systems.append(system)
        solved.append(solve_feasibility(system, *args, **kwargs))
        return solved[-1]
    monkeypatch.setattr(engine, "solve_feasibility", spy)
    counter3 = binary_counter_measure(3)
    # bases whose only symmetry on the torus is the identity
    for base, periods, digest, status, pivots in (
            (counter3, (4, 8), "8b0baf84c32668c7", FEASIBLE, 4),
            (counter3, (4, 4), "4a615b6206cf00e8", FEASIBLE, 3),
            # no admissible configuration: no variable, "0 == 1"
            (counter3, (4, 2), "bf974eb1be9ddeb5", INFEASIBLE, 0),
            (binary_counter_measure(4), (5, 8), "ad470e4f460816bd",
             FEASIBLE, 12)):
        systems.clear()
        solved.clear()
        assert engine.periodic_extension(base, periods).status == status
        assert (systems[0].digest(), solved[0].status, solved[0].pivots) \
            == (digest, status, pivots), periods
    # bases with symmetries, on the unreduced LP: only the identity kept
    # (the disconnected base swaps its symbols, the random one reads the
    # same reversed, the product base keeps the square's reflections)
    disconnected = disconnected_counterexample()
    reversible = random_stationary_measure(2, 3, random.Random(5))
    product = Measure.product_measure([F(1, 3), F(2, 3)], Domain.box(2, 2))
    stabiliser = engine.stabiliser
    with monkeypatch.context() as patch:
        patch.setattr(engine, "stabiliser",
                      lambda mu, W: stabiliser(mu, W)[:1])
        for base, periods, digest, status, pivots in (
                (disconnected, (8,), "d8ee79f8b0ca420b", INFEASIBLE, 2),
                (reversible, (6,), "9384de70f2ebd004", FEASIBLE, 5)):
            systems.clear()
            solved.clear()
            assert engine.periodic_extension(base, periods).status == status
            assert (systems[0].digest(), solved[0].status,
                    solved[0].pivots) == (digest, status, pivots), periods
        systems.clear()
        solved.clear()
        res = engine.periodic_extension(product, (3, 4))
        assert res.status == FEASIBLE
        assert systems[0].digest() == "1155e249c97226b5"
        assert solved[0].pivots == 19
        assert _assignment_digest(solved[0].assignment) == "ff1b5eff7824c9ae"
        assert _digest(sorted((k, str(v)) for k, v in
                              res.torus_measure.masses.items())) \
            == "226353ef0e755ae1"
    # the same bases on the quotient by their symmetries: (base, periods,
    # |G|, variables, rows, pivots, torus_measure digest or "-")
    uniform = Measure.uniform(Domain.box(2, 2), 2)
    for base, periods, order, nvars, nrows, pivots, digest in (
            (disconnected, (8,), 2, 1, 3, 1, "-"),
            (reversible, (6,), 2, 13, 7, 5, "a262c9de6f386447"),
            (product, (3, 4), 4, 158, 8, 10, "4c043612d95c3152"),
            # every member at 1/65,536: the warm start, 0 pivots
            (uniform, (4, 4), 16, 433, 5, 0, "793739614aec1bae"),
            (product, (4, 4), 8, 805, 7, 6, "f32ffda7fdeeeeb5")):
        systems.clear()
        solved.clear()
        res = engine.periodic_extension(base, periods)
        measure = res.torus_measure
        got = (len(engine.stabiliser(base, Domain.box(len(periods), periods))),
               len(systems[0].variables), len(systems[0].equalities),
               solved[0].pivots,
               _digest(sorted((k, str(v)) for k, v in measure.masses.items()))
               if measure else "-")
        assert got == (order, nvars, nrows, pivots, digest), periods

    for seed, (status, pivots, digest) in PINNED_SYSTEMS.items():
        res = solve_feasibility(*seeded_rational_system(seed))
        assert (res.status, res.pivots) == (status, pivots), seed
        assert (_assignment_digest(res.assignment) if res.assignment
                else "-") == digest, seed

    for seed, count, digest in ((9, 6, "3776fc19aed47b22"),
                                (16, 5, "117ac9f082258502")):
        vs = enumerate_vertices(seeded_rational_system(seed)[0],
                                max_count=8, seed=seed)
        assert len(vs) == count, seed
        assert _digest([sorted((v, str(x)) for v, x in a.items())
                        for a in vs]) == digest, seed


def test_window_quotient_results_pinned():
    # ExtensionPolytope.solve on the quotient by the base's symmetries:
    # (base, window, status, pivots, |G|, lifted-point digest)
    uniform = Measure.uniform(Domain.box(2, 2), 2)
    cases = [(random_stationary_measure(2, 2, random.Random(n)),
              Domain.interval(0, n - 1), FEASIBLE, pivots, 2, digest)
             for n, pivots, digest in ((3, 4, "0729dacf91c6b0f8"),
                                       (4, 5, "697cffee7de0a40b"),
                                       (5, 9, "b2c45f3c5fc168fc"),
                                       (6, 17, "9dafc2b6a2966978"))]
    cases += [(uniform, Domain.box(2, shape), FEASIBLE, pivots, order, digest)
              for shape, pivots, order, digest in (
                  ((2, 3), 6, 8, "e39603664ff1273e"),
                  ((3, 2), 6, 8, "d551beb013e453bc"),
                  ((2, 4), 18, 8, "4d521d6bb7670f11"),
                  ((3, 3), 12, 16, "4e83d53450c59ce2"))]
    cases += [
        (disconnected_counterexample(), Domain.interval(0, 3), INFEASIBLE, 7,
         2, "-"),
        # no symmetry: the full system, as solve_feasibility solves it
        (random_stationary_measure(3, 2, random.Random(1)),
         Domain.interval(0, 4), FEASIBLE, 100, 1, "8830f6b55052ea43")]
    for mu, W, status, pivots, order, digest in cases:
        polytope = engine.build_window_polytope(mu, W)
        res = polytope.solve()
        assert (res.status, res.pivots, len(polytope.symmetries)) \
            == (status, pivots, order), W
        assert (_assignment_digest(res.assignment) if res.assignment
                else "-") == digest, W


# ---------------------------------------------------------------------------
# the kernel against its reference forms


def window_lp_systems():
    """The six polytope shapes the window-lp benchmark solves."""
    a2 = random_stationary_measure(2, 2, random.Random(1))
    a3 = random_stationary_measure(3, 2, random.Random(1))
    uniform = Measure.uniform(Domain.box(2, 2), 2)
    return [engine.build_window_polytope(mu, W).system for mu, W in (
        (a2, Domain.interval(0, 6)), (a2, Domain.interval(0, 7)),
        (a3, Domain.interval(0, 4)), (uniform, Domain.box(2, (2, 3))),
        (uniform, Domain.box(2, (3, 2))), (uniform, Domain.box(2, (2, 4))))]


def test_unit_pivots_match_the_always_reduce_update(monkeypatch):
    # a row updated with p == 1 skips the gcd; the old update, which
    # reduces every row, makes the same pivots and reads the same points
    cases = [seeded_rational_system(seed) for seed in range(2000)]
    cases += [(system, None) for system in window_lp_systems()]

    def outcomes():
        return [(res.status, res.pivots, res.assignment) for res in
                (solve_feasibility(s, objective) for s, objective in cases)]
    got = outcomes()
    monkeypatch.setattr(lp, "_eliminate", reference_eliminate)
    assert outcomes() == got
    statuses = [status for status, _, _ in got]
    assert statuses.count(FEASIBLE) > 500 and statuses.count(INFEASIBLE) > 500


def test_vertices_match_one_solve_per_try():
    # phase 1 runs once and each try runs phase 2 on a copy of its
    # tableau; a whole solve per try finds the same vertices in the same
    # order, also when the pivot cap stops phase 1 or some phase 2s
    kinds = {"infeasible": 0, "phase 1 aborted": 0, "phase 2 aborted": 0,
             "free": 0, ">=": 0}
    for seed in range(120):
        system, _ = seeded_rational_system(seed)
        full = enumerate_vertices(system, max_count=4, seed=seed)
        assert full == reference_vertices(system, max_count=4, seed=seed)
        kinds["infeasible"] += solve_feasibility(system).status == INFEASIBLE
        kinds["free"] += bool(full) and len(system.nonneg) < len(
            system.variables)
        kinds[">="] += bool(full) and bool(system.inequalities)
        for limit in (0, 2, 4, 6):
            got = enumerate_vertices(system, 4, seed, pivot_limit=limit)
            assert got == reference_vertices(system, 4, seed,
                                             pivot_limit=limit), (seed, limit)
            phase1 = solve_feasibility(system, pivot_limit=limit).status
            kinds["phase 1 aborted"] += phase1 == ABORTED
            kinds["phase 2 aborted"] += phase1 == FEASIBLE and got != full
    assert min(kinds.values()) > 10, kinds


def test_vertex_enumeration_runs_phase_one_once(monkeypatch):
    calls = []
    phase1 = lp._phase1

    def spy(*args):
        calls.append(args)
        return phase1(*args)
    monkeypatch.setattr(lp, "_phase1", spy)
    mu = random_stationary_measure(2, 2, random.Random(3))
    polytope = engine.build_window_polytope(mu, Domain.interval(0, 3))
    assert len(polytope.vertices(max_count=12, seed=5)) > 1
    assert len(calls) == 1
    assert enumerate_vertices(polytope.system, max_count=0) == []
    assert len(calls) == 1


def test_window_polytope_vertices_skip_bases_read_before(monkeypatch):
    # the window-lp vertex ops: seeded stationary binary pairs on windows
    # of 3 and 4 sites, 12 vertices each.  A try that ends on a basis
    # read before is that vertex again, so the lists equal a whole solve
    # per try while fewer points are checked.
    checks = []
    check = LinearSystem.check

    def spy(self, assignment):
        checks.append(None)
        return check(self, assignment)
    monkeypatch.setattr(LinearSystem, "check", spy)
    rng = random.Random(20011)
    read, solved = 0, 0
    for _ in range(4):
        mu = random_stationary_measure(2, 2, rng)
        seed = rng.randrange(2 ** 16)
        for n in (3, 4):
            system = engine.build_window_polytope(
                mu, Domain.interval(0, n - 1)).system
            del checks[:]
            got = enumerate_vertices(system, max_count=12, seed=seed)
            read += len(checks)
            del checks[:]
            assert got == reference_vertices(system, max_count=12, seed=seed)
            solved += len(checks)
            assert len(got) > 1
    assert read < solved
