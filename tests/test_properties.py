"""Property tests on generated inputs: Domain lookups against plain-Python
oracles, JSON round trips of measures and word sets, and the arc that
folds a word domain onto a torus axis against every arc.

Every test is derandomized, so a run is deterministic."""

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


@PROPERTY
@given(st.lists(st.integers(-12, 12), min_size=1, max_size=5),
       st.integers(1, 9))
@example([0, 10], 11)
@example([0, 3], 4)
def test_arc_is_the_shortest_holding_arc(coords, P):
    # every arc lo, ..., lo + e - 1 of Z/P that holds each coordinate
    # mod P is at least as long as the one the torus walk folds onto
    lo, e = engine._arc(coords, P)
    assert 0 <= lo < P and 1 <= e <= P
    residues = {c % P for c in coords}
    assert residues <= {(lo + j) % P for j in range(e)}
    assert e == min(f for f in range(1, P + 1) for start in range(P)
                    if residues <= {(start + j) % P for j in range(f)})
