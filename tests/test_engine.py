import itertools
import random
import time
import tracemalloc
from fractions import Fraction as F

import pytest

from extlab.lattice import Domain, FiniteModule, CapExceeded
from extlab.measures import (Measure, WordSet, tv_distance, convex_combine,
                             finite_window_entropy, is_locally_stationary,
                             support_word_set, random_stationary_measure)
from extlab.markov import MarkovExtension
from extlab.engine import (build_window_polytope, sft_emptiness, fill_window,
                           periodic_config_search, enumerate_periodic_configs,
                           periodic_extension, pullback_periodic,
                           compute_H, epsilon_bound, refute_nonextendible,
                           SearchBudget)
from extlab.lp import FEASIBLE, INFEASIBLE, ABORTED, solve_feasibility
from extlab import engine, harmonic, measures
from extlab.corpus import (disconnected_counterexample, pseudolattice_measure,
                           binary_counter_measure, binary_counter_support)

from support import (brute_force_fillable, brute_force_torus_configs,
                     dense_pullback, module_order_torus_configs,
                     random_measure, random_periodic_base,
                     reference_compute_H, reference_orbit_partition,
                     translate_table, unreduced_torus_lp)


def biased_pair():
    return Measure(Domain.interval(0, 1), 2,
                   {(0, 0): F(3, 8), (0, 1): F(1, 8),
                    (1, 0): F(1, 8), (1, 1): F(3, 8)})


# ---------------------------------------------------------------------------
# window polytopes


def test_polytope_contains_markov_window():
    base = biased_pair()
    ext = MarkovExtension(base)
    for n in (2, 3, 4):
        P = build_window_polytope(base, Domain.interval(0, n - 1))
        assert P.contains(ext.window_measure(n))


def test_polytope_solution_is_stationary_extension():
    rng = random.Random(6)
    for _ in range(5):
        base = random_stationary_measure(2, 2, rng)
        P = build_window_polytope(base, Domain.interval(0, 3))
        res = P.solve()
        assert res.status == FEASIBLE
        mu = P.to_measure(res.assignment)
        assert is_locally_stationary(mu).ok
        for t in range(3):
            assert mu.marginal(Domain.interval(t, t + 1)).masses \
                == base.masses


def test_polytope_vertices_have_base_marginal():
    base = biased_pair()
    P = build_window_polytope(base, Domain.interval(0, 2))
    vs = P.vertices(max_count=10, seed=2)
    assert vs
    for v in vs:
        assert v.marginal(Domain.interval(0, 1)).masses == base.masses
        # frequency-domain cross-checks agree with the exact ones
        ok, _ = harmonic.check_stationarity_fourier(v)
        assert ok
        ok, _ = harmonic.check_extension_fourier(base, v)
        assert ok


def test_polytope_infeasible_for_disconnected():
    mu = disconnected_counterexample()
    P = build_window_polytope(mu, Domain.interval(0, 3))
    assert P.solve().status == INFEASIBLE


def test_polytope_2d():
    mu = Measure.product_measure([F(1, 3), F(2, 3)], Domain.box(2, 2))
    P = build_window_polytope(mu, Domain.box(2, (3, 2)))
    res = P.solve()
    assert res.status == FEASIBLE
    got = P.to_measure(res.assignment)
    assert got.marginal(Domain.box(2, 2).shift((1, 0))).masses == mu.masses


def test_polytope_digests_are_pinned():
    # a digest changes with any variable name, row order or coefficient
    cases = [
        (biased_pair(), Domain.interval(0, 4), "d3db42a3645a5feb"),
        (Measure.uniform(Domain.box(2, 2), 2), Domain.box(2, (2, 3)),
         "156b12f84c4f5229"),
        (disconnected_counterexample(), Domain.interval(0, 3),
         "7a6e3ad2b18875bf"),
        # a 1-site base: every placement and overlap side reads one cell
        (Measure.uniform(Domain.box(1, 1), 2), Domain.interval(0, 2),
         "b4a9227e12c1e33f"),
    ]
    for mu, W, digest in cases:
        assert build_window_polytope(mu, W).system.digest() == digest


def test_polytope_stationarity_rows_read_overlap_positions(monkeypatch):
    # the rows come from the overlap positions: no shifted Domain, no
    # marginal, and _placements only for the base translates
    calls = []

    def placements(*args, **kwargs):
        calls.append(args[2])
        return real(*args, **kwargs)

    def forbidden(*args):
        raise AssertionError("a shifted Domain or a marginal was built")
    real = engine._placements
    monkeypatch.setattr(engine, "_placements", placements)
    monkeypatch.setattr(Domain, "shift", forbidden)
    monkeypatch.setattr(Measure, "marginal", forbidden)
    mu = Measure.uniform(Domain.box(2, 2), 2)
    build_window_polytope(mu, Domain.box(2, (2, 3)))
    assert calls == [[(0, 0), (0, 1)]]


def test_polytope_drops_all_zero_stationarity_rows():
    # over one symbol every overlap row cancels; only the normalisation
    # and one marginal row per base translate stay
    mu = Measure.uniform(Domain.interval(0, 1), 1)
    system = build_window_polytope(mu, Domain.interval(0, 3)).system
    assert system.dumps() == "var x0,0,0,0 >= 0\n" + "1*x0,0,0,0 == 1\n" * 4


def test_polytope_cap(monkeypatch):
    monkeypatch.setenv("EXTLAB_CAP_CELLS", str(10 ** 4))
    mu = pseudolattice_measure()
    with pytest.raises(CapExceeded):
        build_window_polytope(mu, Domain.box(2, 3))


def test_polytope_rejects_oversized_base():
    mu = biased_pair()
    with pytest.raises(ValueError):
        build_window_polytope(mu, Domain.interval(0, 0))


# ---------------------------------------------------------------------------
# SFT searches


def golden_mean():
    # no two adjacent 1s, as a width-2 word set
    return WordSet(Domain.interval(0, 1), 2, [(0, 0), (0, 1), (1, 0)])


def test_fill_window_golden_mean():
    filled = fill_window(golden_mean(), Domain.interval(0, 5))
    assert filled is not None
    vals = [filled[(i,)] for i in range(6)]
    assert all(not (a and b) for a, b in zip(vals, vals[1:]))


def test_fill_window_matches_brute_force():
    rng = random.Random(12)
    for _ in range(30):
        A = rng.choice([2, 3])
        U = Domain.box(2, (rng.randint(1, 2), rng.randint(1, 2)))
        allw = list(itertools.product(range(A), repeat=len(U)))
        words = [w for w in allw if rng.random() < 0.4]
        if not words:
            words = [allw[0]]
        T = WordSet(U, A, words)
        W = Domain.box(2, (3, 2))
        got = fill_window(T, W) is not None
        assert got == brute_force_fillable(T, W)


def test_sft_emptiness_verdicts():
    full = WordSet(Domain.interval(0, 1), 2,
                   [(0, 0), (0, 1), (1, 0), (1, 1)])
    assert sft_emptiness(full, max_side=4).status == "unknown"
    # 01 alone admits no length-3 word: 0 must follow 1 and precede 1
    dead = WordSet(Domain.interval(0, 1), 2, [(0, 1)])
    res = sft_emptiness(dead, max_side=4)
    assert res.status == "empty"
    assert res.window.points == ((0,), (1,), (2,))


def test_periodic_config_search_golden_mean():
    res = periodic_config_search(golden_mean(), (2,))
    assert res.status == "found"
    assert set(res.config.values()) <= {0, 1}
    # all-ones word set has no admissible config at odd periods > 1? no:
    # alternating needs even period
    alt = WordSet(Domain.interval(0, 1), 2, [(0, 1), (1, 0)])
    assert periodic_config_search(alt, (2,)).status == "found"
    assert periodic_config_search(alt, (3,)).status == "none"


def test_periodic_wrap_shorter_than_domain():
    # period 1 wraps the whole window onto one cell: constant words only
    T = WordSet(Domain.interval(0, 2), 2, [(0, 0, 0), (0, 1, 1)])
    res = periodic_config_search(T, (1,))
    assert res.status == "found"
    assert res.config == {(0,): 0}


def test_enumerate_periodic_configs_counts():
    # golden mean on a 3-cycle: 000, 001, 010, 100
    configs = enumerate_periodic_configs(golden_mean(), (3,))
    assert len(configs) == 4


def test_enumerate_periodic_configs_matches_brute_force():
    # random word sets on 1-D and 2-D domains, including tori with
    # periods shorter than the word domain (placements wrap onto
    # themselves); enumeration must list exactly the brute-force
    # fillings, in the same lexicographic order, and the single search
    # must find one of them, or report "none" when there is none
    rng = random.Random(31)
    domains_1d = [Domain.interval(0, 1), Domain.interval(0, 2),
                  Domain(1, [(0,), (2,)])]
    domains_2d = [Domain.box(2, (2, 1)), Domain.box(2, 2),
                  Domain(2, [(0, 0), (1, 1)])]
    reordered = one_cell = 0
    for trial in range(40):
        if trial % 2:
            U = rng.choice(domains_2d)
            periods = (rng.randint(1, 3), rng.randint(1, 3))
        else:
            U = rng.choice(domains_1d)
            periods = (rng.randint(1, 6),)
        one_cell += periods in ((1,), (1, 1))
        A = 2 if len(U) > 2 or len(periods) == 2 else rng.choice([2, 3])
        allw = list(itertools.product(range(A), repeat=len(U)))
        seeded = [w for w in allw if rng.random() < 0.6] or [allw[0]]
        # the full set never prunes; a single word prunes almost always
        for words in (seeded, allw, [rng.choice(allw)]):
            T = WordSet(U, A, words)
            grids = brute_force_torus_configs(U, A, T.words, periods)
            cells = FiniteModule(periods).elements()
            expected = [tuple(grid[c] for c in cells) for grid in grids]
            assert enumerate_periodic_configs(T, periods) == expected
            walk = engine._StripWalk(T, FiniteModule(periods), 10 ** 7)
            reordered += walk.a != 0 and not walk.full
            res = periodic_config_search(T, periods)
            if grids:
                assert res.status == "found" and res.config in grids
            else:
                assert res.status == "none" and res.config == {}
    # the seeds reach tori walked out of module order, and a 1-cell one
    assert reordered and one_cell


def seeded_strip_tori():
    """(T, periods) for 150 seeded pruned word sets on 1-D, 2-D and 3-D
    tori."""
    rng = random.Random(23)
    domains = {
        1: [Domain.box(1, 1), Domain.interval(0, 1), Domain.interval(0, 2),
            Domain(1, [(0,), (3,)])],
        2: [Domain.box(2, (2, 1)), Domain.box(2, (1, 2)), Domain.box(2, 2),
            Domain(2, [(0, 0), (1, 1)]), Domain(2, [(0, 0), (0, 2)])],
        3: [Domain.box(3, (2, 1, 1)), Domain.box(3, (1, 1, 2)),
            Domain(3, [(0, 0, 0), (1, 1, 0), (0, 1, 1)])],
    }
    most = {1: 7, 2: 3, 3: 2}     # largest period per axis
    for trial in range(150):
        dim = (1, 2, 3)[trial % 3]
        U = rng.choice(domains[dim])
        periods = tuple(rng.randint(1, most[dim]) for _ in range(dim))
        A = rng.choice([2, 3]) if dim == 1 else 2
        allw = list(itertools.product(range(A), repeat=len(U)))
        words = [w for w in allw if rng.random() < 0.7][:len(allw) - 1]
        yield WordSet(U, A, words or [allw[0]]), periods


def test_strip_walk_matches_brute_force():
    # the closed walks over admissible strips list exactly the
    # brute-force fillings, in order, whichever axis they walk (a),
    # however the folded extent e of the word domain along it compares
    # with its period P, and when the arc it is folded onto wraps past
    # P - 1
    seen = set()
    for T, periods in seeded_strip_tori():
        U = T.domain
        walk = engine._StripWalk(T, FiniteModule(periods), 10 ** 7)
        assert walk.fill is None
        a, P, e = walk.a, walk.P, walk.e
        lo, _ = engine._arc([u[a] for u in U.points], P)
        assert e <= P
        seen.add("e=1" if e == 1 else "e<P" if e < P else "e=P")
        seen.add(f"a={a}")
        if lo + e > P:
            seen.add("wraps")
        grids = brute_force_torus_configs(U, T.alphabet, T.words, periods)
        cells = FiniteModule(periods).elements()
        assert enumerate_periodic_configs(T, periods) \
            == [tuple(grid[c] for c in cells) for grid in grids]
    assert seen == {"e=1", "e<P", "e=P", "wraps", "a=0", "a=1", "a=2"}


def test_first_walk_heads_the_full_listing():
    # a listing that keeps one prefix per layer gives the first closed
    # walk from each start, one node per step
    starts = 0
    for T, periods in seeded_strip_tori():
        walk = engine._StripWalk(T, FiniteModule(periods), 10 ** 7)
        for start in walk._closed_starts():
            nodes = walk.nodes
            first = walk._walks(*start, limit=1)
            assert walk.nodes - nodes == walk.P - (walk.e - 1)
            assert first == walk._walks(*start)[:1]
            starts += 1
    assert starts


def test_folded_word_domain_is_walked():
    # {0, 3} on the 4-cycle and {0, 10} on the 11-cycle read two cells
    # one apart, so each folds onto an arc of 2 residues and is walked
    # as a 2-slice strip instead of 4 or 11 slices
    golden = [(0, 0), (0, 1), (1, 0)]
    for gap, P, count in [(3, 4, 7), (10, 11, 199)]:
        U = Domain(1, [(0,), (gap,)])
        T = WordSet(U, 2, golden)
        walk = engine._StripWalk(T, FiniteModule((P,)), 10 ** 7)
        assert (walk.fill, walk.e) == (None, 2)
        grids = brute_force_torus_configs(U, 2, T.words, (P,))
        assert len(grids) == count
        assert enumerate_periodic_configs(T, (P,)) \
            == [tuple(grid[(i,)] for i in range(P)) for grid in grids]


def test_sparse_word_domain_fills_the_torus_cell_by_cell():
    # U = {0, 5} folds onto 6 of the 11 residues: its strips and states
    # would charge past a node budget of 10^4, so the strip search stops
    # and the 11-cycle is filled by one pattern search over all its
    # cells, which lists the brute-force fillings
    U = Domain(1, [(0,), (5,)])
    T = WordSet(U, 2, [(0, 0), (0, 1), (1, 0)])
    module = FiniteModule((11,))
    assert engine._StripWalk(T, module, 10 ** 4).fill is not None
    grids = brute_force_torus_configs(U, 2, T.words, (11,))
    assert len(grids) == 199
    assert enumerate_periodic_configs(T, (11,), node_cap=10 ** 4) \
        == [tuple(grid[(i,)] for i in range(11)) for grid in grids]
    res = periodic_config_search(T, (11,), node_cap=10 ** 4)
    assert res.status == "found"
    assert [res.config[(i,)] for i in range(11)] in \
        [[grid[(i,)] for i in range(11)] for grid in grids]
    # walked under the default budget, with the same list
    assert engine._StripWalk(T, module, 10 ** 7).fill is None
    assert enumerate_periodic_configs(T, (11,)) \
        == [tuple(grid[(i,)] for i in range(11)) for grid in grids]


def test_aborted_cell_by_cell_listing_packs_nothing(monkeypatch):
    # the fill lists its fillings as tuples and packs them only once all
    # are listed, so an abort at config_cap packs none of them
    packs = []

    def spy(self, *args):
        packs.append(args)
        return real(self, *args)
    real = engine._StripWalk._pack
    monkeypatch.setattr(engine._StripWalk, "_pack", spy)
    T = WordSet(Domain(1, [(0,), (5,)]), 2, [(0, 0), (0, 1), (1, 0)])
    with pytest.raises(SearchBudget,
                       match="too many admissible configurations"):
        enumerate_periodic_configs(T, (11,), node_cap=10 ** 4,
                                   config_cap=100)
    assert packs == []


def test_enumerate_periodic_configs_dimension_mismatch():
    T = WordSet(Domain.box(2, 2), 2, [(0, 0, 0, 0)])
    with pytest.raises(ValueError):
        enumerate_periodic_configs(T, (4,))


def test_torus_search_rejects_an_empty_word_domain():
    # refused as the window searches refuse it, with or without the
    # empty word in the set, before any torus is filled
    for words in ([], [()]):
        T = WordSet(Domain(2, []), 2, words)
        for search in (enumerate_periodic_configs, periodic_config_search):
            with pytest.raises(ValueError, match="empty word-set domain"):
                search(T, (2, 3))
        with pytest.raises(ValueError, match="empty translate pattern"):
            sft_emptiness(T, max_side=2)
    # a base on the empty domain meets the same check first
    with pytest.raises(ValueError, match="empty word-set domain"):
        periodic_extension(Measure(Domain(2, []), 2, {(): 1}), (2, 3))


def test_periodic_extension_checks_its_torus_once(monkeypatch):
    calls = []

    def spy(T, periods):
        calls.append(periods)
        return real(T, periods)
    real = engine._torus_module
    monkeypatch.setattr(engine, "_torus_module", spy)
    mu = Measure.uniform(Domain.interval(0, 1), 2)
    assert periodic_extension(mu, (4,)).status == FEASIBLE
    assert calls == [(4,)]


@pytest.mark.parametrize("k, nodes", [(3, 362), (4, 20534)],
                         ids=["counter3-5x8", "counter4-5x8"])
def test_periodic_config_search_node_count_is_pinned(k, nodes):
    # the strip search and the S P E charge of its graph, then the steps
    # of the first closed walk: counter(3) has none at (5,8), counter(4)
    # walks 8 steps
    T = binary_counter_support(k)
    found = periodic_config_search(T, (5, 8), node_cap=nodes)
    assert found.status == ("none" if k == 3 else "found")
    res = periodic_config_search(T, (5, 8), node_cap=nodes - 1)
    assert (res.status, res.reason) == ("aborted", "node budget exceeded")


def test_search_node_budget():
    # the first filling of six cells tries exactly one symbol per cell
    W = Domain.interval(0, 5)
    assert fill_window(golden_mean(), W, node_cap=6) is not None
    with pytest.raises(SearchBudget, match="node budget"):
        fill_window(golden_mean(), W, node_cap=5)
    res = periodic_config_search(golden_mean(), (8,), node_cap=5)
    assert res.status == "aborted"
    assert "node budget" in res.reason
    # windows of 1, 2 and 3 cells fit in 3 nodes, the 4-cell one does not
    full = WordSet(Domain.interval(0, 1), 2,
                   [(0, 0), (0, 1), (1, 0), (1, 1)])
    res = sft_emptiness(full, max_side=4, node_cap=3)
    assert res.status == "unknown"
    assert res.reason == "search budget: node budget exceeded"
    assert res.window == Domain.box(1, 3)


@pytest.mark.parametrize("k, periods, nodes",
                         [(3, (4, 8), 8208), (3, (5, 8), 362),
                          (4, (5, 8), 42986)],
                         ids=["counter3-4x8", "counter3-5x8", "counter4-5x8"])
def test_search_node_count_is_pinned(k, periods, nodes):
    # exact node counts of the full counter(k) torus enumeration as
    # closed walks over strips: strip-search nodes, count terms and walk
    # steps; a faster per-node check must do the very same work
    T = binary_counter_support(k)
    enumerate_periodic_configs(T, periods, node_cap=nodes)
    with pytest.raises(SearchBudget, match="node budget"):
        enumerate_periodic_configs(T, periods, node_cap=nodes - 1)


def test_strip_walk_lists_the_module_order_configs():
    # the torus workload's instances (both symbol labellings), then every
    # counter(3) and counter(4) torus of at most 40 cells: the walk along
    # its chosen axis lists the very configurations, in the very order,
    # of the fill in module.elements() order
    square = Domain.box(2, 2)
    dense = [support_word_set(Measure.uniform(square, 2)),
             support_word_set(Measure.product_measure([F(1, 3), F(2, 3)],
                                                      square))]
    cases = [(T, (4, 4)) for T in dense]
    for k, periods in [(3, (4, 8)), (3, (4, 4)), (3, (4, 2)), (3, (5, 8)),
                       (4, (5, 8))]:
        T = binary_counter_support(k)
        swapped = WordSet(T.domain, 2, [tuple(1 - s for s in w)
                                        for w in T.words])
        cases.append((swapped, periods))
    for k in (3, 4):
        T = binary_counter_support(k)
        cases += [(T, (p, q)) for p in range(1, 41)
                  for q in range(1, 40 // p + 1)]
    reordered = 0
    for T, periods in cases:
        walk = engine._StripWalk(T, FiniteModule(periods), 10 ** 7)
        reordered += walk.a != 0 and not walk.full
        assert enumerate_periodic_configs(T, periods) \
            == module_order_torus_configs(T, periods), periods
    assert reordered


def test_torus_and_window_cells_are_capped(monkeypatch):
    # the cap is checked before any per-cell list is built, so a huge
    # period vector fails at once instead of allocating
    monkeypatch.setenv("EXTLAB_CAP_CELLS", "7")
    mu = Measure.uniform(Domain.interval(0, 1), 2)
    T = support_word_set(mu)
    with pytest.raises(CapExceeded, match="torus has 8 cells"):
        periodic_extension(mu, (8,))
    with pytest.raises(CapExceeded, match="torus has 8 cells"):
        enumerate_periodic_configs(T, (8,))
    with pytest.raises(CapExceeded, match="torus has 8 cells"):
        periodic_config_search(T, (8,))
    with pytest.raises(CapExceeded, match="window has 8 cells"):
        fill_window(T, Domain.interval(0, 7))
    assert periodic_extension(mu, (7,)).status == FEASIBLE
    assert fill_window(T, Domain.interval(0, 6)) is not None


def test_prefix_trie_is_capped(monkeypatch):
    # the trie grows by one alphabet-wide node per new prefix; a cap one
    # entry short of its full size stops it before that node is added
    words = [(0, 1, 2), (0, 2, 1), (2, 2, 2)]
    trie = engine._prefix_trie(words, (0, 1, 2), 3)
    # the dead node, the root and the 8 nonempty prefixes
    assert len(trie) == 3 * 10
    monkeypatch.setenv("EXTLAB_CAP_CELLS", str(len(trie)))
    assert engine._prefix_trie(words, (0, 1, 2), 3) == trie
    monkeypatch.setenv("EXTLAB_CAP_CELLS", str(len(trie) - 1))
    with pytest.raises(CapExceeded, match="trie passes 29 entries"):
        engine._prefix_trie(words, (0, 1, 2), 3)
    monkeypatch.setenv("EXTLAB_CAP_CELLS", "5")
    with pytest.raises(CapExceeded, match="trie passes 5 entries"):
        engine._prefix_trie(words, (0, 1, 2), 3)


def test_periodic_extension_config_cap():
    # the uniform pair admits all 16 fillings of the 4-cycle
    mu = Measure.uniform(Domain.interval(0, 1), 2)
    assert periodic_extension(mu, (4,), config_cap=16).status == FEASIBLE
    res = periodic_extension(mu, (4,), config_cap=15)
    assert res.status == ABORTED
    assert "too many admissible configurations" in res.reason


@pytest.mark.parametrize("config_cap, node_cap, reason",
                         [(15, 30, "too many admissible configurations"),
                          (15, 29, "node budget exceeded"),
                          (16, 29, "node budget exceeded"),
                          (16, 30, None)])
def test_full_word_set_budget_pins(config_cap, node_cap, reason):
    # a word set holding every word prunes nothing: the loop reaches the
    # 16th filling of 4 cells after 2 + 4 + 8 + 16 = 30 nodes, and it
    # lists all 16 in those 30 nodes
    T = support_word_set(Measure.uniform(Domain.interval(0, 1), 2))
    if reason is None:
        assert enumerate_periodic_configs(T, (4,), node_cap, config_cap) \
            == list(itertools.product(range(2), repeat=4))
    else:
        with pytest.raises(SearchBudget, match=reason):
            enumerate_periodic_configs(T, (4,), node_cap, config_cap)


def test_full_word_set_search_counts_its_nodes():
    # listing every filling by arithmetic leaves the loop's count: the
    # 16 fillings of 4 cells take 2 + 4 + 8 + 16 nodes
    T = support_word_set(Measure.uniform(Domain.interval(0, 1), 2))
    search = engine._PatternSearch(2, 4, [[i, (i + 1) % 4] for i in range(4)],
                                   T.words)
    out = list(search.fillings(10 ** 7))
    assert (len(out), search.nodes) == (16, 30)


def test_full_word_set_aborts_at_once():
    # 2^1000 fillings pass config_cap; the budget that stops the search is
    # known before any filling is listed
    mu = Measure.uniform(Domain.box(1, 1), 2)
    start = time.perf_counter()
    res = periodic_extension(mu, (1000,))
    assert time.perf_counter() - start < 1
    assert (res.status, res.reason) \
        == (ABORTED, "too many admissible configurations")


def golden_mean_thirds():
    # a base with the golden_mean support, so its torus search prunes
    return Measure(Domain.interval(0, 1), 2,
                   {(0, 0): F(1, 3), (0, 1): F(1, 3), (1, 0): F(1, 3)})


def test_pruned_search_config_cap():
    # the golden mean fills the 8-cycle in 47 ways (the Lucas number L_8);
    # the search lists them all under config_cap 47 and stops at the 47th
    # under 46
    mu = golden_mean_thirds()
    T = support_word_set(mu)
    configs = enumerate_periodic_configs(T, (8,), config_cap=47)
    assert len(configs) == len(set(configs)) == 47
    assert all(not (c[i] and c[(i + 1) % 8]) for c in configs
               for i in range(8))
    with pytest.raises(SearchBudget,
                       match="too many admissible configurations"):
        enumerate_periodic_configs(T, (8,), config_cap=46)
    # an aborted search reports no count, not an empty admissible set
    res = periodic_extension(mu, (8,), config_cap=46)
    assert (res.status, res.reason, res.config_count) \
        == (ABORTED, "too many admissible configurations", 0)
    assert res.torus_measure is None
    assert periodic_extension(mu, (8,), config_cap=47).status == FEASIBLE
    # an infeasible torus has no measure either
    res = periodic_extension(binary_counter_measure(3), (4, 2))
    assert res.status == INFEASIBLE
    assert res.torus_measure is None


def test_pruned_search_counts_before_listing():
    # the golden mean fills the 30-cycle in 1,860,498 ways (L_30), past
    # config_cap: the walk counts them before it lists any, so the abort
    # is quick and holds no filling
    mu = golden_mean_thirds()
    start = time.perf_counter()
    res = periodic_extension(mu, (30,))
    assert time.perf_counter() - start < 1
    assert (res.status, res.reason, res.config_count) \
        == (ABORTED, "too many admissible configurations", 0)
    tracemalloc.start()
    try:
        periodic_extension(mu, (30,))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2 ** 20


# ---------------------------------------------------------------------------
# periodic extensions


def test_one_site_torus_orbits():
    # a 1-site base reads one cell per placement: the 8 fillings of the
    # 3-cycle fall into 4 orbits of equal mass per member
    res = periodic_extension(Measure.uniform(Domain.box(1, 1), 2), (3,))
    assert res.orbits == [((0, 0, 0), 1, F(1, 8)), ((0, 0, 1), 3, F(1, 8)),
                          ((0, 1, 1), 3, F(1, 8)), ((1, 1, 1), 1, F(1, 8))]
    assert res.config_count == 8


def test_uniform_product_torus():
    mu = Measure.uniform(Domain.box(2, 2), 2)
    res = periodic_extension(mu, (4, 4))
    assert res.status == FEASIBLE
    assert res.config_count == 2 ** 16
    pb = pullback_periodic(res, Domain.box(2, 2))
    assert pb.masses == mu.masses
    # larger pullback windows stay consistent on every translate
    big = pullback_periodic(res, Domain.box(2, (3, 2)))
    assert big.marginal(Domain.box(2, 2).shift((1, 0))).masses == mu.masses


def test_periodic_extension_matches_unreduced_lp():
    # tiny tori, A=2: the search + orbit LP verdict must equal the LP
    # over every filling with explicit invariance rows
    rng = random.Random(44)
    cases = [(disconnected_counterexample(), (4,)),
             (disconnected_counterexample(), (5,))]
    for _ in range(4):
        base = random_stationary_measure(2, rng.choice([2, 3]), rng)
        cases.append((base, (rng.randint(3, 8),)))
    for U, base_periods, periods in [
            (Domain.interval(0, 1), (5,), (7,)),
            (Domain.interval(0, 2), (4,), (8,)),
            (Domain.interval(0, 2), (3,), (5,)),
            (Domain.box(2, (2, 1)), (2, 2), (3, 2)),
            (Domain.box(2, (2, 1)), (3, 1), (2, 2)),
            (Domain.box(2, 2), (2, 2), (2, 4)),
            (Domain.box(2, 2), (3, 2), (2, 3)),
            (Domain.box(2, 2), (3, 2), (2, 2)),
            (Domain.box(2, 2), (2, 3), (2, 4)),
            (Domain(2, [(0, 0), (1, 1)]), (2, 2), (2, 2)),
            (Domain(2, [(0, 0), (1, 1)]), (3, 2), (4, 2))]:
        base = random_periodic_base(U, 2, base_periods, rng)
        cases.append((base, periods))
    seen = set()
    for mu, periods in cases:
        want = solve_feasibility(unreduced_torus_lp(mu, periods)).status
        res = periodic_extension(mu, periods)
        assert res.status == want, periods
        if res.status == FEASIBLE:
            assert_orbit_pullback_is_dense(res)
        seen.add(want)
    assert seen == {FEASIBLE, INFEASIBLE}


def assert_orbit_pullback_is_dense(res):
    """pullback_periodic, which reads each orbit through its least
    configuration, equals a dense pullback of the expanded measure on
    windows past the torus, at negative coordinates and scattered."""
    periods = res.module.periods
    D = len(periods)
    nu = res.torus_measure
    windows = [Domain.box(D, tuple(p + 2 for p in periods), origin=(-1,) * D),
               Domain(D, [(-7,) * D, (0,) * D,
                          tuple(2 * p + 1 for p in periods)])]
    for W in windows:
        assert pullback_periodic(res, W).masses \
            == dense_pullback(nu, periods, W).masses, (periods, W)


def test_disconnected_has_no_periodic_extension():
    mu = disconnected_counterexample()
    assert periodic_extension(mu, (8,)).status == INFEASIBLE


def test_periodic_extension_requires_injectivity():
    mu = disconnected_counterexample()
    with pytest.raises(ValueError):
        periodic_extension(mu, (2,))


def test_counter_3_torus_cases():
    mu = binary_counter_measure(3)
    res = periodic_extension(mu, (4, 8))
    assert res.status == FEASIBLE
    # the counting configuration's orbit measure is itself a solution:
    # 32 distinct translates of the canonical configuration
    T = binary_counter_support(3)
    configs = enumerate_periodic_configs(T, (4, 8))
    aligned = [c for c in configs if is_counting_config(c, (4, 8))]
    assert len(aligned) == 32
    orbit = Measure(res.torus_measure.domain, 2,
                    {c: F(1, 32) for c in aligned})
    assert dense_pullback(orbit, (4, 8), mu.domain).masses == mu.masses
    assert_orbit_pullback_is_dense(res)
    # the word-set subshift also has phase-slip configurations, which
    # make the smaller torus (4,4) exactly feasible as well
    res44 = periodic_extension(mu, (4, 4))
    assert res44.status == FEASIBLE
    assert res44.config_count == 36
    assert_orbit_pullback_is_dense(res44)


def is_counting_config(cfg, periods):
    """cfg is a translate of: row y = bits(y), big-endian, 0 separator."""
    mod = FiniteModule(periods)
    cells = mod.elements()
    grid = dict(zip(cells, cfg))
    k = periods[0] - 1
    for dx in range(periods[0]):
        for dy in range(periods[1]):
            if all(grid[((x + dx) % periods[0], (y + dy) % periods[1])]
                   == (((y >> (k - 1 - x)) & 1) if x < k else 0)
                   for x in range(periods[0]) for y in range(periods[1])):
                return True
    return False


def test_counter_1_torus_orbit():
    mu = binary_counter_measure(1)
    assert len(mu.masses) == 4
    res = periodic_extension(mu, (2, 2))
    assert res.status == FEASIBLE
    # [DERIVED] brute force over all 16 torus configs: exactly the four
    # translates of the single-one pattern are admissible
    assert res.config_count == 4
    pb = pullback_periodic(res, mu.domain)
    assert pb.masses == mu.masses


def test_orbit_partition_matches_translate_table():
    # orbits by shift-and-mask steps on packed configurations against
    # the full |cells| x |cells| translate table: the same least member
    # and size, in the same order, on 1-D, 2-D and 3-D tori, with fields
    # of 1, 2 and 9 bits
    rng = random.Random(20)
    shapes = [(1,), (5,), (6,), (2, 3), (3, 3), (4, 2), (1, 4), (2, 2, 2),
              (2, 1, 3), (3, 2, 2)]

    def orbits(configs, periods, alphabet):
        module = FiniteModule(periods)
        codec = engine._Codec(alphabet, module.size)
        return [(codec.unpack(least), size) for least, size
                in engine._orbit_partition(list(map(codec.pack, configs)),
                                           module, codec.width)]

    for trial in range(300):
        periods = shapes[trial % len(shapes)]
        ncells = len(translate_table(periods))
        alphabet = rng.choice([2, 3, 257])
        seeds = [tuple(rng.randrange(alphabet) for _ in range(ncells))
                 for _ in range(rng.randint(1, 6))]
        if trial % 2:  # translation-closed, as the torus search lists them
            seeds = [t for o in reference_orbit_partition(seeds, periods)
                     for t in o]
            rng.shuffle(seeds)
        configs = list(dict.fromkeys(seeds))
        assert orbits(configs, periods, alphabet) \
            == [(o[0], len(o)) for o in
                reference_orbit_partition(configs, periods)], (trial, periods)
    every = list(itertools.product(range(2), repeat=16))
    assert orbits(every, (4, 4), 2) \
        == [(o[0], len(o)) for o in reference_orbit_partition(every, (4, 4))]


def test_torus_measure_lists_translates_in_cell_order():
    product = Measure.product_measure([F(1, 3), F(2, 3)], Domain.box(2, 2))
    res = periodic_extension(product, (3, 4))
    table = translate_table((3, 4))
    expected = {}
    for cfg, _, mass in res.orbits:
        for row in table:
            expected.setdefault(tuple(cfg[i] for i in row), mass)
    assert list(res.torus_measure.masses.items()) == list(expected.items())


# ---------------------------------------------------------------------------
# H, epsilon, and the stability ball


def test_compute_H_known_values():
    assert compute_H(FiniteModule((2,)), Domain(1, [(0,)]), 2) == 3
    assert compute_H(FiniteModule((4,)), Domain.interval(0, 1), 2) == 9


def test_compute_H_matches_residue_pair_count():
    # characters as exponent words over the cells against the count of
    # frozensets of (residue, exponent) pairs, on seeded small modules
    # and bases that the quotient need not separate
    rng = random.Random(41)
    for _ in range(60):
        dim = rng.choice([1, 2, 3])
        periods = tuple(rng.randint(1, 4 if dim < 3 else 2)
                        for _ in range(dim))
        A = rng.choice([2, 3])
        pts = [tuple(rng.randint(-3, 3) for _ in range(dim))
               for _ in range(rng.randint(1, 3))]
        mod, U = FiniteModule(periods), Domain(dim, pts)
        assert compute_H(mod, U, A) == reference_compute_H(mod, U, A)


def test_compute_H_bounds_random():
    rng = random.Random(14)
    for _ in range(20):
        dim = rng.choice([1, 2])
        periods = tuple(rng.choice([2, 3, 4]) for _ in range(dim))
        mod = FiniteModule(periods)
        A = rng.choice([2, 3])
        pts = rng.sample(mod.elements(), rng.randint(1, min(3, mod.size)))
        U = Domain(dim, pts)
        assert mod.injective_on(U)
        H = compute_H(mod, U, A)
        assert 1 <= H <= A ** mod.size            # bound (A)
        assert H <= mod.size * A ** len(U)        # bound (B)


def test_codec_on_wide_and_degenerate_alphabets():
    # 257 symbols take 9-bit fields: the uniform 1-site base on the
    # 2-cycle has 257^2 = 66,049 fillings in 257 * 258 / 2 = 33,153
    # orbits, {(a, b), (b, a)} for a < b and the 257 constant ones, each
    # member of mass 1/66,049; H counts 2 * 257 - 1 = 513 characters
    mu = Measure.uniform(Domain.box(1, 1), 257)
    res = periodic_extension(mu, (2,))
    assert (res.status, res.config_count) == (FEASIBLE, 66049)
    assert res.orbits == [((a, b), 1 if a == b else 2, F(1, 66049))
                          for a in range(257) for b in range(a, 257)]
    assert epsilon_bound(res, mu.domain) == F(1, 66049 * 513)
    masses = res.torus_measure.masses
    assert set(masses) == set(itertools.product(range(257), repeat=2))
    assert masses[(256, 255)] == masses[(0, 256)] == F(1, 66049)
    # one symbol still takes a 1-bit field: one filling, one orbit
    res = periodic_extension(Measure.uniform(Domain.box(2, 2), 1), (2, 2))
    assert (res.status, res.config_count, res.orbits) \
        == (FEASIBLE, 1, [((0, 0, 0, 0), 1, 1)])
    assert res.torus_measure.masses == {(0, 0, 0, 0): 1}


def test_epsilon_bound_value():
    mu = Measure.uniform(Domain.interval(0, 1), 2)
    res = periodic_extension(mu, (4,))
    eps = epsilon_bound(res, mu.domain)
    assert eps == F(1, 144)


def test_epsilon_ball_extendibility():
    # everything within TV < eps/2 of the uniform pair is (4,)-extendible
    rng = random.Random(15)
    mu = Measure.uniform(Domain.interval(0, 1), 2)
    for _ in range(8):
        pert = random_stationary_measure(2, 2, rng)
        d = tv_distance(mu, pert)
        t = F(1, 300) / d if d > F(1, 300) else F(1)
        close = convex_combine(t, mu, pert)
        assert tv_distance(mu, close) < F(1, 288)
        assert periodic_extension(close, (4,)).status == FEASIBLE


def test_epsilon_bound_needs_full_support():
    mu = binary_counter_measure(1)
    res = periodic_extension(mu, (2, 2))
    with pytest.raises(ValueError):
        epsilon_bound(res, mu.domain)


# ---------------------------------------------------------------------------
# the refutation pipeline


def test_refute_disconnected_by_chain():
    rep = refute_nonextendible(disconnected_counterexample(), max_window=4)
    assert rep.verdict == "refuted"
    assert rep.method == "entropy-chain"
    assert rep.window.points == ((0,), (1,), (2,), (3,))


def test_refute_checks_local_stationarity_once(monkeypatch):
    # the chain stage reuses the refute's own check instead of repeating
    # it inside entropy_chain_refute
    calls = []

    def spy(mu):
        calls.append(mu)
        return is_locally_stationary(mu)
    monkeypatch.setattr(engine, "is_locally_stationary", spy)
    monkeypatch.setattr(measures, "is_locally_stationary", spy)
    rep = refute_nonextendible(disconnected_counterexample(), max_window=4)
    assert (rep.verdict, rep.method) == ("refuted", "entropy-chain")
    assert len(calls) == 1


def test_refute_takes_each_joint_marginal_once(monkeypatch):
    # the chain stage keeps the joint of each of the 3 site pairs from
    # its first loop instead of summing it again for the pair check
    calls = []
    marginal = measures.SignedMeasure.marginal

    def spy(self, V):
        calls.append(V.points)
        return marginal(self, V)
    monkeypatch.setattr(measures.SignedMeasure, "marginal", spy)
    rep = refute_nonextendible(disconnected_counterexample(), max_window=4)
    assert (rep.verdict, rep.method) == ("refuted", "entropy-chain")
    assert len(calls) == 3


def test_refute_disconnected_by_lp_alone():
    # with the support full-shift trick unavailable, the LP still refutes:
    # use a non-uniform rho so the chain sees the same structure; here we
    # verify directly that the LP window B(4) is infeasible
    mu = disconnected_counterexample()
    P = build_window_polytope(mu, Domain.box(1, 4))
    assert P.solve().status == INFEASIBLE


def test_refute_pseudolattice_by_tiling():
    rep = refute_nonextendible(pseudolattice_measure(), max_window=6)
    assert rep.verdict == "refuted"
    assert rep.method == "tiling"
    side = rep.window.bounding_box()
    assert all(hi - lo + 1 <= 6 for lo, hi in side)


def test_refute_unknown_on_extendible():
    base = biased_pair()
    rep = refute_nonextendible(base, max_window=4)
    assert rep.verdict == "unknown"
    assert "feasible_up_to" in rep.detail


def test_refute_non_stationary_by_its_overlap():
    mu = Measure(Domain(1, [(0,), (2,)]), 2,
                 {(0, 0): F(1, 2), (0, 1): F(1, 4), (1, 1): F(1, 4)})
    rep = refute_nonextendible(mu, max_window=3)
    assert (rep.verdict, rep.method) == ("refuted", "stationarity")
    assert rep.window == mu.domain
    assert rep.detail == {"witness": is_locally_stationary(mu).witness}
    assert rep.detail["witness"] == (((0,),), (0,), (2,))


def test_refute_without_a_fitting_window_is_unknown():
    # a 3-site base fits in no window of side 1: every stage after local
    # stationarity has nothing to try
    mu = random_stationary_measure(2, 3, random.Random(3))
    rep = refute_nonextendible(mu, max_window=1)
    assert (rep.verdict, rep.method, rep.window) == ("unknown", "", None)
    assert rep.detail == {}


def test_refute_records_its_search_and_pivot_budgets():
    # the golden-mean base is not refuted through side 3; a node budget of
    # 1 stops the tiling search on its first window and the LP stage still
    # runs, and a pivot limit of 0 aborts every window LP
    mu = golden_mean_thirds()
    rep = refute_nonextendible(mu, max_window=3, node_cap=1)
    assert (rep.verdict, rep.window) == ("unknown", Domain.interval(0, 2))
    assert rep.detail == {"tiling": "search budget: node budget exceeded",
                          "feasible_up_to": [(0, 2)]}
    rep = refute_nonextendible(mu, max_window=3, pivot_limit=0)
    assert (rep.verdict, rep.window) == ("unknown", None)
    assert rep.detail == {"lp [(0, 1)]": "pivot limit exceeded",
                          "lp [(0, 2)]": "pivot limit exceeded"}


def test_refute_records_capped_tableaus(monkeypatch):
    # biased_pair is unchanged by reversal and by swapping the symbols,
    # so each window LP is solved on its quotient by those 4 symmetries:
    # 3 x 6 tableau entries on [0..1] and 3 x 7 on [0..2].  The cap bounds
    # that tableau: one entry less than the first records both windows,
    # none decided
    monkeypatch.setenv("EXTLAB_CAP_CELLS", "17")
    rep = refute_nonextendible(biased_pair(), max_window=3)
    assert (rep.verdict, rep.window) == ("unknown", None)
    assert sorted(rep.detail) == ["lp [(0, 1)]", "lp [(0, 2)]"]
    assert all("simplex tableau needs" in v for v in rep.detail.values())
    monkeypatch.setenv("EXTLAB_CAP_CELLS", "18")
    rep = refute_nonextendible(biased_pair(), max_window=3)
    assert rep.detail == {"lp [(0, 2)]": "simplex tableau needs 3 x 7 "
                                         "= 21 entries",
                          "feasible_up_to": [(0, 1)]}


def test_refute_by_lp_reports_the_lp_it_solved():
    # X3 = 1 - X0, while X1 differs from X0 with probability 1/4.  In a
    # stationary extension X0 != X3 needs one of the three neighbour
    # pairs of [0..3] to differ, so 1 <= 3/4.  Only (0, 3) is glued, its
    # flips close no cycle, and the support tiles, so only the LP refutes;
    # it is solved on the quotient by the symbol swap
    mu = Measure(Domain(1, [(0,), (1,), (3,)]), 2,
                 {(0, 0, 1): F(3, 8), (1, 1, 0): F(3, 8),
                  (0, 1, 1): F(1, 8), (1, 0, 0): F(1, 8)})
    rep = refute_nonextendible(mu, max_window=4)
    assert (rep.verdict, rep.method) == ("refuted", "lp")
    assert rep.window == Domain.interval(0, 3)
    polytope = build_window_polytope(mu, rep.window)
    assert solve_feasibility(polytope.system).pivots == 18
    assert rep.detail == {"lp_digest": polytope.system.digest(), "pivots": 7,
                          "symmetries": 2}


def test_refute_report_serializes():
    rep = refute_nonextendible(disconnected_counterexample(), max_window=4)
    data = rep.to_json_dict()
    assert data["verdict"] == "refuted"
    assert data["window"] == [[0], [1], [2], [3]]
