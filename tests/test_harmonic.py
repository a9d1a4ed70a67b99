import cmath
import random
from fractions import Fraction as F

import pytest

from extlab import lattice
from extlab.lattice import Domain
from extlab.measures import Measure, is_locally_stationary, \
    random_stationary_measure
from extlab.markov import MarkovExtension
from extlab import harmonic

from support import (random_measure, reference_extension_fourier,
                     reference_stationarity_fourier, seeded_extension_pairs,
                     seeded_overlap_measures)


def test_character_group_size():
    dom = Domain.interval(0, 1)
    assert len(harmonic.all_characters(dom, 3)) == 9
    # exponent words aligned with dom.points, in word order
    assert harmonic.all_characters(dom, 2) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_point_mass_at_zero_has_unit_coefficients():
    dom = Domain.interval(0, 1)
    mu = Measure.point_mass(dom, 2, (0, 0))
    for chi, c in harmonic.fourier_transform(mu).items():
        assert abs(c - 1) < 1e-12


def test_uniform_measure_kills_nontrivial_characters():
    mu = Measure.uniform(Domain.interval(0, 1), 2)
    for chi, c in harmonic.fourier_transform(mu).items():
        want = 1 if not any(chi) else 0
        assert abs(c - want) < 1e-12


def test_round_trip_exact():
    rng = random.Random(31)
    for _ in range(25):
        A = rng.choice([2, 3, 4])
        dom = Domain.interval(0, rng.choice([1, 2]))
        mu = random_measure(A, dom, rng)
        co = harmonic.fourier_transform(mu)
        inv = harmonic.inverse_transform(co, dom, A)
        for w, v in inv.items():
            assert abs(v - float(mu[w])) < 1e-12


def test_inverse_of_a_partial_table():
    dom = Domain.interval(0, 1)
    inv = harmonic.inverse_transform({(0, 0): 4}, dom, 2)
    assert all(abs(v - 1) < 1e-12 for v in inv.values())
    assert len(inv) == 4


def test_keys_that_are_not_words_are_rejected():
    dom = Domain.interval(0, 1)
    for bad in [(1,), (0, 0, 1), (0, 2), (0, -1)]:
        with pytest.raises(ValueError):
            harmonic.inverse_transform({(0, 0): 4, bad: 1}, dom, 2)
    mu = Measure.uniform(dom, 2)
    for bad in [(1,), (0, 0, 1)]:
        with pytest.raises(ValueError):
            harmonic.fourier_coeff(mu, bad)


def test_parseval():
    rng = random.Random(32)
    for _ in range(10):
        mu = random_measure(2, Domain.box(2, 2), rng)
        assert harmonic.parseval_residual(mu) < 1e-9


def test_stationarity_agreement():
    rng = random.Random(33)
    for i in range(40):
        if i % 2:
            mu = random_stationary_measure(rng.choice([2, 3]),
                                           rng.choice([2, 3]), rng)
        else:
            mu = random_measure(rng.choice([2, 3]),
                                Domain.interval(0, rng.choice([1, 2])), rng)
        exact = is_locally_stationary(mu).ok
        approx, witness = harmonic.check_stationarity_fourier(mu)
        assert exact == approx
        if not approx:
            assert witness
        # the same first failing (character, shift) as the direct sums
        assert reference_stationarity_fourier(mu) == (approx, witness)
    # 2-D and scattered domains: in 2-D a positive shift such as (1, -1)
    # has a negative component, so matching the reference's first
    # (character, shift) tests the order of the signed shifts
    verdicts = set()
    for mu in seeded_overlap_measures(33, 150):
        res = harmonic.check_stationarity_fourier(mu)
        assert res[0] == is_locally_stationary(mu).ok
        assert reference_stationarity_fourier(mu) == res
        verdicts.add(res[0])
    assert verdicts == {True, False}


def test_stationarity_check_scans_no_translates(monkeypatch):
    # the check reads the exact check's overlaps: no translates_inside
    # scan and no Domain per character
    def scan(*args):
        raise AssertionError("translates_inside called")

    def build(self, *args, **kwargs):
        raise AssertionError("Domain built")
    cases = seeded_overlap_measures(34, 30)
    monkeypatch.setattr(harmonic, "translates_inside", scan)
    monkeypatch.setattr(lattice, "translates_inside", scan)
    monkeypatch.setattr(Domain, "__init__", build)
    for mu in cases:
        harmonic.check_stationarity_fourier(mu)


def test_extension_agreement():
    rng = random.Random(34)
    for i in range(15):
        base = random_stationary_measure(2, 2, rng)
        ext = MarkovExtension(base)
        w = ext.window_measure(4)
        ok, _ = harmonic.check_extension_fourier(base, w)
        assert ok
        # damage the extension; frequency check must notice
        other = random_measure(2, Domain.interval(0, 3), rng)
        exact = all(other.marginal(Domain.interval(t, t + 1)).masses
                    == base.shift((t,)).masses for t in range(3))
        got, _ = harmonic.check_extension_fourier(base, other)
        assert got == exact


def test_extension_witness_matches_direct_sums():
    # the first failing (character, translate) of the direct sums, on
    # 1-D and 2-D patterns, gapped windows and negative coordinates
    verdicts, witnesses = set(), set()
    for base, ext in seeded_extension_pairs(36, 90):
        res = harmonic.check_extension_fourier(base, ext)
        assert res == reference_extension_fourier(base, ext)
        verdicts.add(res[0])
        witnesses.add(res[1])
    assert verdicts == {True, False}
    assert len(witnesses) > 10


def test_table_matches_direct_sums():
    # the per-site transform against the direct sum, key for key, on
    # 1-D and 2-D windows with negative coordinates, a single site,
    # point masses and sparse supports
    rng = random.Random(35)
    domains = [Domain.interval(-1, -1), Domain.interval(-2, 0),
               Domain.interval(0, 1), Domain.box(2, 2),
               Domain(2, [(-1, 0), (0, -1), (0, 0)]),
               Domain(2, [(-1, -1), (0, 1), (2, 0)])]
    for _ in range(60):
        A = rng.choice([2, 3, 4])
        dom = rng.choice(domains)
        pick = rng.randrange(3)
        if pick == 0:
            word = tuple(rng.randrange(A) for _ in dom.points)
            mu = Measure.point_mass(dom, A, word)
        else:
            mu = random_measure(A, dom, rng, sparse=pick == 1)
        table = harmonic.fourier_transform(mu)
        assert list(table) == harmonic.all_characters(dom, A)
        for chi, c in table.items():
            assert abs(c - harmonic.fourier_coeff(mu, chi)) < 1e-12
