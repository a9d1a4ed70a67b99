import random
from collections import defaultdict
from fractions import Fraction as F

import pytest

from extlab import symmetry
from extlab.corpus import binary_counter_measure, disconnected_counterexample
from extlab.engine import build_window_polytope
from extlab.lattice import Domain
from extlab.lp import (FEASIBLE, INFEASIBLE, DEFAULT_PIVOT_LIMIT,
                       solve_feasibility)
from extlab.measures import Measure, random_stationary_measure

from support import (random_measure, random_periodic_base,
                     seeded_overlap_measures)


def _images(polytope):
    n = len(polytope.window)
    return [symmetry._variable_map(h, polytope.base.alphabet, n)
            for h in polytope.symmetries]


def test_group_orders():
    uniform = Measure.uniform(Domain.box(2, 2), 2)
    for shape, order in (((2, 3), 8), ((3, 2), 8), ((2, 4), 8), ((3, 3), 16)):
        polytope = build_window_polytope(uniform, Domain.box(2, shape))
        assert len(polytope.symmetries) == order, shape
    # a stationary pair reads the same reversed; its two symbols differ
    for seed in range(5):
        pair = random_stationary_measure(2, 2, random.Random(seed))
        for n in (2, 3, 6):
            polytope = build_window_polytope(pair, Domain.interval(0, n - 1))
            assert len(polytope.symmetries) == 2, (seed, n)
    # the A=3 base of the window-lp benchmark's shapes has none
    a3 = random_stationary_measure(3, 2, random.Random(1))
    assert len(build_window_polytope(
        a3, Domain.interval(0, 4)).symmetries) == 1


def _reflected(mu):
    """mu averaged with its image under p -> -p, when -U is a translate
    of U; the result has that reflection as a symmetry."""
    dim = mu.domain.dim
    positions = symmetry._index_map(mu.domain, range(dim), (-1,) * dim)
    if positions is None:
        return mu
    same = tuple(range(mu.alphabet))
    masses = defaultdict(F)
    for w, m in mu.masses.items():
        masses[w] += m / 2
        masses[symmetry._word_image(w, positions, same)] += m / 2
    return Measure(mu.domain, mu.alphabet, masses)


def _box_windows(mu, max_vars=128):
    """The bounding box of the base and the boxes one longer along one
    axis, while A^|W| <= max_vars."""
    box = mu.domain.bounding_box()
    sides = [hi - lo + 1 for lo, hi in box]
    origin = tuple(lo for lo, _ in box)
    shapes = [sides] + [sides[:a] + [sides[a] + 1] + sides[a + 1:]
                        for a in range(len(sides))]
    out = []
    for shape in shapes:
        W = Domain.box(len(shape), tuple(shape), origin=origin)
        if mu.alphabet ** len(W) <= max_vars:
            out.append(W)
    return out


def seeded_quotient_cases(seed):
    rng = random.Random(seed)
    bases = []
    for A in (2, 3):
        for _ in range(6):
            L = rng.randint(2, 3)
            mu = random_periodic_base(Domain.interval(0, L - 1), A,
                                      (rng.choice([2, 3]),), rng,
                                      count=rng.randint(1, 4))
            bases += [mu, _reflected(mu)]
    for mu in seeded_overlap_measures(seed, 24):
        bases += [mu, _reflected(mu)]
    square = Domain.box(2, 2)
    # random masses are seldom locally stationary: infeasible windows
    bases += [_reflected(random_measure(2, square, rng)) for _ in range(4)]
    for points in ([(0, 0), (1, 0), (3, 0)], [(0, 0), (0, 1), (0, 3)]):
        disc = disconnected_counterexample()
        bases.append(Measure(Domain(2, points), 2, disc.masses))
    bases += [Measure.uniform(square, 2),
              Measure.product_measure([F(1, 3), F(2, 3)], square),
              binary_counter_measure(1),
              disconnected_counterexample(),
              disconnected_counterexample(3),
              disconnected_counterexample(2, [F(1, 3), F(2, 3)])]
    return [(mu, W) for mu in bases for W in _box_windows(mu)]


def test_quotient_verdicts_match_the_full_system():
    # each verdict is the full system's; a feasible point lifts into the
    # polytope, and every detected element maps the rows onto themselves
    kinds = defaultdict(int)
    for mu, W in seeded_quotient_cases(3):
        polytope = build_window_polytope(mu, W)
        res = polytope.solve()
        assert res.status == solve_feasibility(polytope.system).status, W
        if res.status == FEASIBLE:
            assert polytope.contains(polytope.to_measure(res.assignment))
        assert all(symmetry.maps_rows_onto_rows(polytope.system, image)
                   for image in _images(polytope))
        if len(polytope.symmetries) > 1:
            kinds[W.dim, res.status] += 1
    assert min(kinds[dim, status] for dim in (1, 2)
               for status in (FEASIBLE, INFEASIBLE)) >= 2, dict(kinds)


def test_trivial_group_solves_the_full_system():
    trivial = 0
    for seed in range(8):
        mu = random_stationary_measure(3, 2, random.Random(seed))
        for n in (2, 3, 4):
            polytope = build_window_polytope(mu, Domain.interval(0, n - 1))
            if len(polytope.symmetries) == 1:
                trivial += 1
                assert polytope.solve() == solve_feasibility(polytope.system)
    assert trivial >= 15


def test_a_non_symmetry_is_refused_by_the_row_check():
    # swapping the symbols of a biased product measure is no symmetry;
    # the points it fixes give both symbols one mass, so the quotient it
    # makes is infeasible, and the row check refuses that verdict
    mu = Measure.product_measure([F(1, 3), F(2, 3)], Domain.interval(0, 1))
    polytope = build_window_polytope(mu, Domain.interval(0, 2))
    assert len(polytope.symmetries) == 2   # the identity and reversal
    swap = (list(range(3)), (1, 0))
    image = symmetry._variable_map(swap, 2, 3)
    assert not symmetry.maps_rows_onto_rows(polytope.system, image)
    with pytest.raises(AssertionError, match="does not map"):
        symmetry.solve_quotient(polytope.system, 2,
                                polytope.symmetries + [swap],
                                DEFAULT_PIVOT_LIMIT)


def _compose(h, k):
    """The element doing k, then h, as a (positions, pi) map."""
    return (tuple(h[0][p] for p in k[0]), tuple(h[1][a] for a in k[1]))


def _inverse(h):
    positions, pi = [0] * len(h[0]), [0] * len(h[1])
    for i, p in enumerate(h[0]):
        positions[p] = i
    for a, b in enumerate(h[1]):
        pi[b] = a
    return tuple(positions), tuple(pi)


def test_stabiliser_is_a_group():
    # solve_quotient names a word's orbit by its least image under the
    # returned elements, which needs them to be the whole group
    a5 = random_stationary_measure(5, 2, random.Random(2))
    cases = seeded_quotient_cases(3) + [(a5, Domain.interval(0, n - 1))
                                        for n in (2, 3)]
    for mu, W in cases:
        group = [(tuple(p), tuple(pi))
                 for p, pi in symmetry.stabiliser(mu, W)]
        assert group[0] == (tuple(range(len(W))), tuple(range(mu.alphabet)))
        elements = set(group)
        assert all(_compose(h, k) in elements
                   for h in elements for k in elements), (mu.masses, W)
        assert all(_inverse(h) in elements for h in elements)
    # above A = 4 only the identity symbol map is tried
    assert all(pi == tuple(range(5))
               for _, pi in symmetry.stabiliser(a5, Domain.interval(0, 2)))
