import itertools
from fractions import Fraction as F

import pytest

from extlab.lattice import Domain, CapExceeded
from extlab.measures import is_locally_stationary, support_word_set
from extlab.engine import sft_emptiness, fill_window, periodic_config_search
from extlab import corpus


# ---------------------------------------------------------------------------
# the disconnected instance


def test_disconnected_shape_and_stationarity():
    mu = corpus.disconnected_counterexample()
    assert mu.domain.points == ((0,), (1,), (3,))
    assert mu.masses == {(a, a, c): F(1, 4)
                         for a in range(2) for c in range(2)}
    assert is_locally_stationary(mu).ok


def test_disconnected_custom_rho():
    mu = corpus.disconnected_counterexample(3, [F(1, 2), F(1, 2), F(0)])
    assert is_locally_stationary(mu).ok
    assert mu[(0, 0, 1)] == F(1, 4)
    assert mu[(2, 2, 0)] == 0
    with pytest.raises(ValueError):
        corpus.disconnected_counterexample(2, [F(1, 2), F(1, 4)])


# ---------------------------------------------------------------------------
# the pseudolattice tiling


def test_pseudolattice_measure():
    mu = corpus.pseudolattice_measure()
    assert mu.alphabet == 16
    assert len(mu.masses) == 18
    assert set(mu.masses.values()) == {F(1, 18)}
    assert mu.domain == Domain.box(2, 2)
    assert is_locally_stationary(mu).ok
    assert support_word_set(mu) == corpus.pseudolattice_support()


def test_pseudolattice_tiles_are_consistent():
    # every tile must find a right and an upper neighbor in the set,
    # or no window larger than one tile could ever be filled
    tiles = corpus.PSEUDOLATTICE_TILES
    assert len(tiles) == 18
    right = {t[1] for t in tiles}
    left = {t[0] for t in tiles}
    assert right == left  # every right color appears as a left color
    assert {t[2] for t in tiles} == {t[3] for t in tiles}


def test_pseudolattice_sft_is_empty():
    res = sft_emptiness(corpus.pseudolattice_support(), max_side=6)
    assert res.status == "empty"
    box = res.window.bounding_box()
    assert all(hi - lo + 1 <= 4 for lo, hi in box)
    # but a 3x3 window is still fillable
    assert fill_window(corpus.pseudolattice_support(),
                       Domain.box(2, 3)) is not None


# ---------------------------------------------------------------------------
# the binary counter


def test_counter_word_counts():
    for k in (1, 2, 3):
        words = corpus.binary_counter_words(k)
        assert len(words) == 2 ** k * (k + 1)
        dom = corpus.binary_counter_domain(k)
        assert dom == Domain.box(2, (k + 1, 2), origin=(1, 0))


def test_counter_words_are_rotation_closed():
    k = 2
    words = corpus.binary_counter_words(k)
    dom = corpus.binary_counter_domain(k)
    w = k + 1
    idx = {p: i for i, p in enumerate(dom.points)}
    for word in words:
        grid = {p: word[i] for p, i in idx.items()}
        rot = tuple(grid[(((p[0] - 1 + 1) % w) + 1, p[1])]
                    for p in dom.points)
        assert rot in words


def test_counter_k1_explicit():
    # [DERIVED] by hand: the 2x2 windows of the period-(2,2) pattern
    # with a single 1 are exactly the four one-hot words
    words = corpus.binary_counter_words(1)
    assert words == {(0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0)}


def test_counter_words_are_capped(monkeypatch):
    # counter(k) has 2^k (k+1) words: 32 at k=3, 80 at k=4
    monkeypatch.setenv("EXTLAB_CAP_CELLS", "32")
    assert len(corpus.binary_counter_words(3)) == 32
    with pytest.raises(CapExceeded, match="counter.4. has 2.4 . 5 words"):
        corpus.binary_counter_words(4)
    # refused from k alone, without forming 2^k
    with pytest.raises(CapExceeded):
        corpus.binary_counter_words(10 ** 12)


def test_counter_measure_uniform_and_stationary():
    for k in (1, 2, 3):
        mu = corpus.binary_counter_measure(k)
        n = 2 ** k * (k + 1)
        assert set(mu.masses.values()) == {F(1, n)}
        assert is_locally_stationary(mu).ok
        assert support_word_set(mu) == corpus.binary_counter_support(k)


def test_counter_canonical_pattern_is_admissible():
    # read the counting configuration itself through every window
    k = 3
    T = corpus.binary_counter_support(k)
    W = Domain.box(2, (8, 8))
    filled = fill_window(T, W)
    assert filled is not None


# ---------------------------------------------------------------------------
# the Robinson system


def as_grid(tile):
    return tuple(tuple(row) for row in tile)


def test_rotation_has_order_four():
    for t in corpus.ROBINSON_BASE_TILES:
        r = as_grid(t)
        for _ in range(4):
            r = corpus._rotate(r)
        assert r == as_grid(t)


def test_tile_counts():
    for d in ("distinct", "typo"):
        tiles = corpus.robinson_tiles(d)
        assert len(tiles) == 22
    # the fully symmetric blank tile contributes one rotation class;
    # count classes: 6 base tiles, two of them 4-fold asymmetric, etc.
    base = [as_grid(t) for t in corpus.ROBINSON_BASE_TILES]
    classes = set()
    for t in base:
        r = t
        orbit = []
        for _ in range(4):
            orbit.append(r)
            r = corpus._rotate(r)
        classes.add(frozenset(orbit))
    assert sum(len(c) for c in classes) == 22


def enc(tile):
    return tuple(tuple(corpus.ROBINSON_LETTERS.index(s) for s in row)
                 for row in tile)


def test_edge_matching_rules():
    b = enc(("aca", "c0c", "aCa"))
    # 'C' over 'c' is a legal vertical contact; 'c' meeting 'c' is not
    assert corpus.tiles_match_vertical(b, b)         # bottom C, top c
    assert not corpus.tiles_match_horizontal(b, b)   # both edges are c
    # right edge of the cross is 'd'; under the "distinct" reading it
    # matches nothing at all
    cross = enc(("ACA", "B0d", "ABA"))
    tiles = corpus.robinson_tiles("distinct")
    assert cross in tiles
    assert not any(corpus.tiles_match_horizontal(cross, u) for u in tiles)


def test_every_tile_extends_under_typo_reading():
    tiles = corpus.robinson_tiles("typo")
    assert all(any(corpus.tiles_match_horizontal(t, u) for u in tiles)
               for t in tiles)
    assert all(any(corpus.tiles_match_vertical(t, u) for u in tiles)
               for t in tiles)


def test_patch_and_word_counts():
    assert len(corpus.robinson_patches("distinct")) == 200
    assert len(corpus.robinson_patches("typo")) == 456
    for d, n in (("distinct", 226), ("typo", 274)):
        ws = corpus.robinson_word_set(d_reading=d)
        assert ws.domain == Domain.box(2, 3)
        assert ws.alphabet == 8
        assert len(ws.words) == n


def test_words_use_robinson_letters():
    letters = corpus.ROBINSON_LETTERS
    assert letters == "0aAbBcCd"
    ws = corpus.robinson_word_set(d_reading="typo")
    assert all(0 <= s < 8 for w in ws.words for s in w)


def test_robinson_windows_fill_but_no_small_period():
    ws = corpus.robinson_word_set(d_reading="typo")
    assert fill_window(ws, Domain.box(2, 4)) is not None
    assert periodic_config_search(ws, (2, 2)).status == "none"


# ---------------------------------------------------------------------------
# cellular automata


def test_eca_rule_table():
    rule, U = corpus.eca_rule(110)
    assert U == Domain.interval(-1, 1)
    want = {(1, 1, 1): 0, (1, 1, 0): 1, (1, 0, 1): 1, (1, 0, 0): 0,
            (0, 1, 1): 1, (0, 1, 0): 1, (0, 0, 1): 1, (0, 0, 0): 0}
    assert rule == want
    with pytest.raises(ValueError):
        corpus.eca_rule(256)


def test_ca_to_sft_shape():
    rule, U = corpus.eca_rule(110)
    dom, ws = corpus.ca_to_sft(rule, U, 2)
    assert dom.points == ((-1, 0), (0, 0), (0, 1), (1, 0))
    assert len(ws.words) == 2 ** len(U)
    # word layout is (left, center, output, right)
    assert (0, 1, 1, 0) in ws.words       # 010 -> 1
    assert (1, 1, 0, 1) in ws.words       # 111 -> 0
    assert (1, 1, 1, 1) not in ws.words


def test_ca_sft_never_empty():
    # a CA always has the all-quiescent history when rule(q,...,q) = q
    rule, U = corpus.eca_rule(110)
    dom, ws = corpus.ca_to_sft(rule, U, 2)
    assert fill_window(ws, Domain.box(2, (6, 2))) is not None
    assert sft_emptiness(ws, max_side=4).status == "unknown"
