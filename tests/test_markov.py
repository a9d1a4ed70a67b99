import math
import random
from fractions import Fraction as F

import pytest

from extlab.lattice import Domain, CapExceeded
from extlab.measures import (Measure, is_locally_stationary,
                             finite_window_entropy, random_stationary_measure)
from extlab.markov import MarkovExtension, entropy_rate

from support import cyclic_base, reference_window_measure


def biased_pair():
    return Measure(Domain.interval(0, 1), 2,
                   {(0, 0): F(3, 8), (0, 1): F(1, 8),
                    (1, 0): F(1, 8), (1, 1): F(3, 8)})


def test_requires_interval_and_stationarity():
    mu = Measure(Domain(1, [(0,), (2,)]), 2,
                 {(0, 0): F(1, 2), (1, 1): F(1, 2)})
    with pytest.raises(ValueError):
        MarkovExtension(mu)
    bad = Measure(Domain.interval(0, 1), 2,
                  {(0, 0): F(1, 2), (0, 1): F(1, 2)})
    with pytest.raises(ValueError):
        MarkovExtension(bad)


def test_window_three_table():
    # [DERIVED] hand product: e.g. P(000) = 3/8 * (3/8)/(1/2) * ... = 9/32
    ext = MarkovExtension(biased_pair())
    w = ext.window_measure(3)
    want = {(0, 0, 0): F(9, 32), (0, 0, 1): F(3, 32),
            (0, 1, 0): F(1, 32), (0, 1, 1): F(3, 32),
            (1, 0, 0): F(3, 32), (1, 0, 1): F(1, 32),
            (1, 1, 0): F(3, 32), (1, 1, 1): F(9, 32)}
    assert w.masses == want


def test_cylinder_matches_window_measure():
    rng = random.Random(4)
    for _ in range(10):
        base = random_stationary_measure(rng.choice([2, 3]),
                                         rng.choice([2, 3]), rng)
        ext = MarkovExtension(base)
        n = rng.choice([4, 5])
        w = ext.window_measure(n)
        import itertools
        total = F(0)
        for word in itertools.product(range(base.alphabet), repeat=n):
            assert ext.cylinder(word) == w[word]
            total += ext.cylinder(word)
        assert total == 1


def test_cylinder_short_words_are_marginals():
    ext = MarkovExtension(biased_pair())
    assert ext.cylinder((0,)) == F(1, 2)
    assert ext.cylinder(()) == 1
    assert ext.cylinder((0, 0)) == F(3, 8)


def test_zero_denominator_gives_zero_mass():
    # support {00, 11}: any alternation dies, and conditioning on it too
    mu = Measure(Domain.interval(0, 1), 2,
                 {(0, 0): F(1, 2), (1, 1): F(1, 2)})
    ext = MarkovExtension(mu)
    assert ext.cylinder((0, 1, 0)) == 0
    assert ext.cylinder((0, 0, 0, 0)) == F(1, 2)
    assert len(ext.window_measure(6).masses) == 2


def test_unused_symbol_is_a_null_tail():
    # symbol 2 never occurs, so a walk that conditions on it must give 0
    # at once rather than divide 0 by its zero prefix mass
    for L in (2, 3):
        ext = MarkovExtension(Measure(Domain.interval(0, L - 1), 3, {
            (0,) * L: F(1, 2), (1,) * L: F(1, 2)}))
        assert ext.cylinder((2, 0, 0, 0)) == 0
        assert ext.cylinder((0, 2, 2, 0, 0)) == 0
        assert ext.cylinder((1,) * 5) == F(1, 2)
        assert sorted(ext.window_measure(5).masses) == [(0,) * 5, (1,) * 5]


def test_window_marginals_reproduce_base():
    rng = random.Random(8)
    for _ in range(10):
        base = random_stationary_measure(2, 3, rng)
        ext = MarkovExtension(base)
        w = ext.window_measure(6)
        assert is_locally_stationary(w).ok
        for t in range(4):
            V = Domain.interval(t, t + 2)
            assert w.marginal(V).masses == base.masses


def test_memory_zero_is_iid():
    rho = Measure(Domain.interval(0, 0), 2, {(0,): F(1, 4), (1,): F(3, 4)})
    ext = MarkovExtension(rho)
    assert ext.memory == 0
    assert ext.cylinder((1, 0, 1)) == F(3, 4) * F(1, 4) * F(3, 4)
    rate = entropy_rate(ext, 4)
    assert math.isclose(rate.markov_rate, finite_window_entropy(rho))
    assert math.isclose(rate.per_site, rate.markov_rate)


def test_entropy_rate_values():
    # [DERIVED] H(2-window) = 1.8112781..., H(1-window) = 1 for biased pair
    ext = MarkovExtension(biased_pair())
    rate = entropy_rate(ext, 5)
    assert math.isclose(rate.markov_rate, 0.8112781244591329, rel_tol=1e-12)
    # per-site window entropy decreases toward the rate from above
    prev = None
    for n in (2, 3, 4, 5, 6):
        per = entropy_rate(ext, n).per_site
        assert per >= rate.markov_rate - 1e-12
        if prev is not None:
            assert per <= prev + 1e-12
        prev = per


def test_off_origin_base_is_normalized():
    base = biased_pair().shift((7,))
    ext = MarkovExtension(base)
    assert ext.cylinder((0, 0, 0)) == F(9, 32)


def test_window_support_is_capped(monkeypatch):
    # the uniform pair's window n has 2^n words: 64 fit a cap of 64,
    # 128 do not
    uniform = Measure.uniform(Domain.interval(0, 1), 2)
    want = MarkovExtension(uniform).window_measure(6)
    monkeypatch.setenv("EXTLAB_CAP_CELLS", "64")
    ext = MarkovExtension(uniform)
    assert ext.window_measure(6).masses == want.masses
    with pytest.raises(CapExceeded, match="window 7 passes 64"):
        ext.window_measure(7)


def markov_bases(seed):
    """(sparse, base) for memory 0 to 3 and alphabets 2 to 4, sparse and
    full support."""
    rng = random.Random(seed)
    for memory in range(4):
        for alphabet in (2, 3, 4):
            for sparse in (True, False):
                yield sparse, cyclic_base(alphabet, memory + 1, rng, sparse)


def test_window_table_matches_the_per_word_chain_rule():
    for sparse, base in markov_bases(19):
        ext = MarkovExtension(base)
        m, A = ext.memory, base.alphabet
        for n in range(1, m + 7):
            if not sparse and A ** n > 4096:
                break
            want = reference_window_measure(ext, n)
            got = ext.window_measure(n)
            assert list(got.masses.items()) == list(want.masses.items()), \
                (base.masses, n)


def test_window_table_caps_at_the_same_point(monkeypatch):
    monkeypatch.setenv("EXTLAB_CAP_CELLS", "40")
    capped = 0
    for _, base in markov_bases(20):
        ext = MarkovExtension(base)
        for n in range(1, ext.memory + 7):
            try:
                want = reference_window_measure(ext, n).masses
            except CapExceeded as exc:
                with pytest.raises(CapExceeded, match=f"^{exc}$"):
                    ext.window_measure(n)
                capped += 1
                break
            assert ext.window_measure(n).masses == want
    assert capped


def test_window_table_reads_only_supported_base_words(monkeypatch):
    # a one-word base over 10^7 symbols: one conditional, not one per
    # symbol and tail, and the window of the same point mass over 2
    calls = []
    step = MarkovExtension._step

    def spy(self, tail, a):
        calls.append((tail, a))
        return step(self, tail, a)
    monkeypatch.setattr(MarkovExtension, "_step", spy)
    big = Measure(Domain.interval(0, 1), 10 ** 7, {(0, 0): 1})
    small = Measure(Domain.interval(0, 1), 2, {(0, 0): 1})
    got = MarkovExtension(big).window_measure(5)
    assert calls == [((0,), 0)]
    assert got.masses == MarkovExtension(small).window_measure(5).masses
    calls.clear()
    base = biased_pair()
    MarkovExtension(base).window_measure(4)
    assert calls == [(w[:1], w[1]) for w in sorted(base.masses)]

