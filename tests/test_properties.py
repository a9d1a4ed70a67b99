"""Property tests on generated inputs: Domain lookups against plain-Python
oracles, JSON round trips of measures and word sets, and the torus fill
order against every axis order.

Every test is derandomized, so a run is deterministic."""

import itertools
import json
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from extlab import engine
from extlab.lattice import Domain
from extlab.measures import Measure, WordSet

PROPERTY = settings(derandomize=True, deadline=None, database=None,
                    max_examples=200)


def point_lists(dim, max_size):
    return st.lists(st.tuples(*[st.integers(-4, 4)] * dim),
                    max_size=max_size)


@st.composite
def two_point_lists(draw):
    dim = draw(st.integers(1, 3))
    return dim, draw(point_lists(dim, 12)), draw(point_lists(dim, 12))


@PROPERTY
@given(two_point_lists())
def test_domain_lookups_match_oracles(case):
    dim, a, b = case
    A, B = Domain(dim, a), Domain(dim, b)
    order = sorted(set(a))
    assert list(A.points) == order
    assert A == Domain(dim, reversed(a)) and hash(A) == hash(Domain(dim, a))
    assert repr(A) == f"Domain(dim={dim}, points={tuple(order)!r})"
    for i, p in enumerate(order):
        assert A.index(p) == i and A.index(list(p)) == i
    for p in a + b:
        assert (p in A) == (p in order)
        if p not in order:
            with pytest.raises(ValueError):
                A.index(p)
    assert A.issubset(B) == set(a).issubset(b)


@st.composite
def measures(draw):
    dim = draw(st.integers(1, 2))
    domain = Domain(dim, draw(point_lists(dim, 3)))
    alphabet = draw(st.integers(1, 3))
    words = draw(st.lists(
        st.tuples(*[st.integers(0, alphabet - 1)] * len(domain)),
        min_size=1, max_size=6, unique=True))
    weights = draw(st.lists(st.integers(1, 9), min_size=len(words),
                            max_size=len(words)))
    return Measure(domain, alphabet, {
        w: F(m, sum(weights)) for w, m in zip(words, weights)})


def through_json(data):
    return json.loads(json.dumps(data))


@PROPERTY
@given(measures())
@example(Measure(Domain.box(2, 2), 1, {(0, 0, 0, 0): 1}))
def test_measure_json_round_trip(mu):
    data = mu.to_json_dict()
    again = Measure.from_json_dict(through_json(data))
    assert again.domain == mu.domain and again.alphabet == mu.alphabet
    assert again.masses == mu.masses
    assert again.to_json_dict() == data


@PROPERTY
@given(measures())
@example(Measure(Domain.interval(-2, 0), 1, {(0, 0, 0): 1}))
def test_word_set_json_round_trip(mu):
    ws = WordSet(mu.domain, mu.alphabet, mu.masses)
    data = ws.to_json_dict()
    assert WordSet.from_json_dict(through_json(data)) == ws
    assert data["words"] == sorted(data["words"])


def unwrapped_span(order, extents, periods):
    """Total span (last search position minus first) of the unwrapped
    placements of a box of the given extents, with the torus cells
    filled axis by axis in `order`, outermost first.  The placement at t
    reads t + box modulo the periods; it is unwrapped when it stays
    inside [0, P_a) on every axis where the box is shorter than P_a
    (on the other axes it covers every residue, and t_a = 0)."""
    stride, s = {}, 1
    for a in reversed(order):
        stride[a], s = s, s * periods[a]
    box = list(itertools.product(*(range(e) for e in extents)))
    total = 0
    for t in itertools.product(*(range(max(p - e, 0) + 1)
                                 for e, p in zip(extents, periods))):
        pos = [sum((t[a] + c[a]) % periods[a] * stride[a] for a in order)
               for c in box]
        total += max(pos) - min(pos)
    return total


@st.composite
def word_domains_and_periods(draw):
    dim = draw(st.integers(2, 3))
    points = draw(st.lists(st.tuples(*[st.integers(-1, 1)] * dim),
                           min_size=1, max_size=5))
    periods = tuple(draw(st.integers(1, 4)) for _ in range(dim))
    return Domain(dim, points), periods


@PROPERTY
@given(word_domains_and_periods())
@example((Domain(2, [(0, 0), (2, 0)]), (2, 5)))
@example((Domain(3, [(0, 0, 0), (1, 1, 0)]), (3, 1, 3)))
def test_fill_order_has_least_unwrapped_span(case):
    # the sort key's order against all D! axis orders, on periods that
    # include 1 and periods shorter than the word domain's extent
    U, periods = case
    extents = [hi - lo + 1 for lo, hi in U.bounding_box()]
    spans = {order: unwrapped_span(order, extents, periods)
             for order in itertools.permutations(range(U.dim))}
    least = min(spans.values())
    # the first order of least span in itertools order keeps ties in
    # module order; axes of period 1 have no stride and are left out
    first = next(order for order, span in spans.items() if span == least)
    assert engine._fill_order(U, periods) \
        == [a for a in first if periods[a] > 1]
