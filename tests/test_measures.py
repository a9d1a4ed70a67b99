import math
import random
import re
from fractions import Fraction as F

import pytest

from extlab.lattice import Domain
from extlab.measures import (Measure, SignedMeasure, WordSet, tv_distance,
                             _header_from_json, convex_combine,
                             is_locally_stationary, finite_window_entropy,
                             conditional_entropy,
                             entropy_metric, entropy_chain_refute,
                             support_word_set, random_stationary_measure)
from extlab.corpus import disconnected_counterexample

from support import (random_measure, brute_force_stationary,
                     reference_locally_stationary, seeded_overlap_measures,
                     glued_chain_bases, reference_entropy_chain,
                     chain_walk_clashes, extendible_marginals)


def pair_measure(p00, p01, p10, p11):
    return Measure(Domain.interval(0, 1), 2,
                   {(0, 0): F(p00), (0, 1): F(p01),
                    (1, 0): F(p10), (1, 1): F(p11)})


def test_measure_validation():
    dom = Domain.interval(0, 0)
    with pytest.raises(ValueError, match=r"^masses sum to 1/2, expected 1$"):
        Measure(dom, 2, {(0,): F(1, 2)})          # mass deficit
    with pytest.raises(ValueError,
                       match=r"^negative mass -1/2 at word \(1,\)$"):
        Measure(dom, 2, {(0,): F(3, 2), (1,): F(-1, 2)})
    with pytest.raises(ValueError):
        Measure(dom, 2, {(2,): F(1)})             # symbol out of range
    m = Measure(dom, 2, {(0,): F(1), (1,): F(0)})
    assert m.masses == {(0,): F(1)}               # zeros dropped
    # int, str and float masses become the Fractions Fraction() makes
    m = Measure(dom, 3, {(0,): "1/4", (1,): 0.75, (2,): 0})
    assert m.masses == {(0,): F(1, 4), (1,): F(3, 4)}
    assert {type(x) for x in m.masses.values()} == {F}
    assert Measure(dom, 2, {(1,): 1}).masses == {(1,): F(1)}
    assert SignedMeasure(dom, 2, {(0,): 0.1}).masses == {(0,): F(0.1)}
    # the total is exact over the common denominator
    thirds = {(0,): F(1, 3), (1,): F(1, 5), (2,): F(7, 15)}
    assert Measure(dom, 3, thirds).total_mass() == 1
    short = F(7, 15) - F(1, 10 ** 30)
    with pytest.raises(ValueError, match=re.escape(
            f"masses sum to {1 - F(1, 10 ** 30)}, expected 1")):
        Measure(dom, 3, {**thirds, (2,): short})
    # a signed measure takes negative masses and any total
    s = SignedMeasure(dom, 2, {(0,): F(3, 2), (1,): -1})
    assert s.masses == {(0,): F(3, 2), (1,): F(-1)}
    assert s.total_mass() == F(1, 2)


def test_marginal_sums():
    mu = pair_measure("3/8", "1/8", "1/8", "3/8")
    left = mu.marginal(Domain(1, [(0,)]))
    assert left[(0,)] == F(1, 2) and left[(1,)] == F(1, 2)
    # marginal onto the full domain is the identity
    assert mu.marginal(mu.domain).masses == mu.masses


def test_marginal_of_random_measure_totals_one():
    rng = random.Random(3)
    for _ in range(20):
        mu = random_measure(3, Domain.box(2, 2), rng)
        sub = Domain(2, [(0, 0), (1, 1)])
        assert mu.marginal(sub).total_mass() == 1


def test_product_measure_is_stationary():
    rho = [F(1, 6), F(2, 6), F(3, 6)]
    mu = Measure.product_measure(rho, Domain.box(2, 2))
    assert is_locally_stationary(mu).ok
    assert mu[(0, 1, 2, 2)] == F(1, 6) * F(2, 6) * F(3, 6) * F(3, 6)


def test_stationarity_witness():
    mu = pair_measure("1/2", "1/4", "1/8", "1/8")
    res = is_locally_stationary(mu)
    assert not res.ok
    V, b, k = res.witness
    assert V == ((0,),) and k == (1,)
    # site 0 sees P(0)=3/4, site 1 sees P(0)=5/8
    assert b in {(0,), (1,)}


def test_stationarity_matches_brute_force():
    rng = random.Random(17)
    for i in range(25):
        if i % 2:
            mu = random_stationary_measure(2, 3, rng)
        else:
            mu = random_measure(2, Domain.interval(0, 2), rng)
        assert is_locally_stationary(mu).ok == brute_force_stationary(mu)


def test_stationarity_matches_marginal_reference():
    # 400 seeded measures on 1-D and 2-D domains with negative
    # coordinates, scattered sites and sparse supports, A in {2, 3, 4}:
    # the same verdict and the same first (V, word, k) as comparing two
    # marginal Measures per overlap
    verdicts = set()
    for mu in seeded_overlap_measures(41, 400):
        res = is_locally_stationary(mu)
        assert (res.ok, res.witness) == reference_locally_stationary(mu), \
            mu.to_json_dict()
        verdicts.add(res.ok)
    assert verdicts == {True, False}


def test_stationarity_builds_no_measure_or_domain(monkeypatch):
    cases = seeded_overlap_measures(42, 30)
    built = []
    for cls in (SignedMeasure, Domain):
        def spy(self, *args, _init=cls.__init__, **kwargs):
            built.append(type(self).__name__)
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", spy)
    for mu in cases:
        is_locally_stationary(mu)
    assert built == []


def test_random_stationary_generator_is_stationary():
    rng = random.Random(23)
    for _ in range(10):
        mu = random_stationary_measure(rng.choice([2, 3]),
                                       rng.choice([2, 3, 4]), rng)
        assert is_locally_stationary(mu).ok
        assert brute_force_stationary(mu)


def test_tv_distance_and_convex_combine():
    a = pair_measure("1/2", "0", "0", "1/2")
    b = pair_measure("1/4", "1/4", "1/4", "1/4")
    assert tv_distance(a, b) == F(1, 2)
    mid = convex_combine(F(1, 2), a, b)
    assert mid[(0, 0)] == F(3, 8)
    assert tv_distance(a, mid) == F(1, 4)


def test_entropy_values():
    mu = pair_measure("1/4", "1/4", "1/4", "1/4")
    assert finite_window_entropy(mu) == 2.0
    nu = pair_measure("1/2", "0", "0", "1/2")
    assert finite_window_entropy(nu) == 1.0
    # H[site 0 | site 1] for independent fair bits is exactly 1
    s0, s1 = Domain(1, [(0,)]), Domain(1, [(1,)])
    assert conditional_entropy(mu, s0, s1) == 1.0
    assert conditional_entropy(nu, s0, s1) == 0.0
    assert entropy_metric(nu, s0, s1) == 0.0


def test_entropy_metric_on_disconnected_instance():
    mu = disconnected_counterexample()
    s0, s1, s3 = (Domain(1, [p]) for p in [(0,), (1,), (3,)])
    assert entropy_metric(mu, s0, s1) == 0.0
    assert entropy_metric(mu, s0, s3) == 2.0


def test_entropy_chain_refutes_disconnected():
    for rho in ([F(1, 2), F(1, 2)], [F(1, 3), F(2, 3)]):
        res = entropy_chain_refute(disconnected_counterexample(2, rho),
                                   horizon=3)
        assert res.verdict == "refuted"
        assert res.pair == ((0,), (3,))
        assert res.path == ((0,), (1,), (2,), (3,))


def test_entropy_chain_paths_match_reference():
    # one breadth-first tree per site reports the same pair and the same
    # path as a fresh search per pair, on glued bases in D = 1..3; where
    # no pair of sites clashes, a clash of two tree paths may still refute
    refuted = 0
    for mu in glued_chain_bases(1, 100):
        for horizon in (1, 2, 3, 4):
            res = entropy_chain_refute(mu, horizon)
            ref = reference_entropy_chain(mu, horizon)
            if ref.verdict == "refuted" or res.verdict == "unknown":
                assert res == ref
            else:
                assert res.pair[0] == res.pair[1]
            refuted += ref.verdict == "refuted"
    assert refuted >= 50


def test_entropy_chain_refutes_two_paths_that_disagree():
    # of the glued bases that no pair of domain sites refutes at horizon
    # 4, 32 reach one box node along two tree paths whose composites
    # differ; each reports (u, u) and a closed walk the oracle re-composes
    bases = glued_chain_bases(1, 400)
    walks, unknown = 0, 0
    for mu in bases:
        res = entropy_chain_refute(mu, 4)
        if res.verdict == "unknown":
            unknown += 1
            continue
        assert chain_walk_clashes(mu, res.pair, res.path)
        if res.pair[0] == res.pair[1]:
            walks += 1
            # the walk without its last step ends elsewhere
            assert not chain_walk_clashes(mu, res.pair, res.path[:-1])
    assert (len(bases), walks, unknown) == (242, 32, 155)
    for mu in extendible_marginals():
        for horizon in (1, 2, 3, 4):
            assert entropy_chain_refute(mu, horizon).verdict == "unknown"


def test_entropy_chain_ignores_point_mass():
    # degenerate rho glues everything consistently: no contradiction
    res = entropy_chain_refute(disconnected_counterexample(2, [F(1), F(0)]),
                               horizon=3)
    assert res.verdict == "unknown"


def test_entropy_chain_unknown_on_product():
    mu = Measure.product_measure([F(1, 2), F(1, 2)], Domain.interval(0, 2))
    assert entropy_chain_refute(mu, horizon=3).verdict == "unknown"


def test_entropy_chain_requires_stationary():
    mu = pair_measure("1/2", "1/4", "1/8", "1/8")
    with pytest.raises(ValueError):
        entropy_chain_refute(mu)


def test_json_round_trip():
    rng = random.Random(9)
    for _ in range(20):
        mu = random_measure(4, Domain.box(2, 2), rng, sparse=True)
        again = Measure.from_json_dict(mu.to_json_dict())
        assert again.domain == mu.domain
        assert again.masses == mu.masses
    ws = WordSet(Domain.box(2, 2), 3, [(0, 1, 2, 0), (1, 1, 1, 1)])
    assert WordSet.from_json_dict(ws.to_json_dict()) == ws


HEADER = {"dim": 1, "alphabet": 2, "domain": [[0]]}


def without(data, name):
    return {k: v for k, v in data.items() if k != name}


def test_header_names_a_missing_field():
    assert _header_from_json(HEADER) == (Domain(1, [(0,)]), 2)
    for name in HEADER:
        with pytest.raises(ValueError, match=f"^missing field '{name}'$"):
            _header_from_json(without(HEADER, name))


def test_measure_loader_names_a_missing_field():
    data = {**HEADER, "masses": {"0": "1"}}
    assert Measure.from_json_dict(data).masses == {(0,): 1}
    for name in data:
        with pytest.raises(ValueError, match=f"^missing field '{name}'$"):
            Measure.from_json_dict(without(data, name))
    # a word set is not a measure: the masses are what is missing
    with pytest.raises(ValueError, match="^missing field 'masses'$"):
        Measure.from_json_dict({**HEADER, "words": ["0"]})


def test_word_set_loader_names_a_missing_field():
    data = {**HEADER, "words": ["0"]}
    assert WordSet.from_json_dict(data).words == {(0,)}
    for name in data:
        with pytest.raises(ValueError, match=f"^missing field '{name}'$"):
            WordSet.from_json_dict(without(data, name))
    with pytest.raises(ValueError, match="^missing field 'words'$"):
        WordSet.from_json_dict({**HEADER, "masses": {"0": "1"}})


def test_support_word_set():
    mu = pair_measure("1/2", "0", "0", "1/2")
    assert support_word_set(mu).words == frozenset({(0, 0), (1, 1)})


def test_shift_measure():
    mu = pair_measure("1/2", "0", "0", "1/2")
    nu = mu.shift((5,))
    assert nu.domain.points == ((5,), (6,))
    assert nu[(1, 1)] == F(1, 2)
