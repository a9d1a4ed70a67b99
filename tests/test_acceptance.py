"""End-to-end acceptance suite.

Each test prints exactly one PASS/FAIL line for its criterion, then
asserts it.  Budgets are wall-clock upper bounds and are part of the
pass condition.
"""

import itertools
import math
import random
import time
from fractions import Fraction as F

from extlab.lattice import Domain, FiniteModule, envelope_for, \
    verify_envelope, Envelope
from extlab.measures import (Measure, is_locally_stationary, tv_distance,
                             convex_combine, finite_window_entropy,
                             entropy_chain_refute, random_stationary_measure,
                             support_word_set)
from extlab.markov import MarkovExtension
from extlab.engine import (build_window_polytope, sft_emptiness,
                           periodic_config_search, periodic_extension,
                           pullback_periodic, compute_H, epsilon_bound,
                           refute_nonextendible)
from extlab.lp import FEASIBLE, INFEASIBLE
from extlab import harmonic
from extlab.corpus import (disconnected_counterexample, pseudolattice_measure,
                           binary_counter_measure, binary_counter_words,
                           binary_counter_domain, robinson_word_set,
                           ca_to_sft, eca_rule)

from support import (random_measure, brute_force_torus_configs,
                     extendible_marginals)


def report(num, desc, ok, t0, budget):
    elapsed = time.monotonic() - t0
    status = "PASS" if (ok and elapsed < budget) else "FAIL"
    print(f"criterion {num:2d} [{status}] {desc} ({elapsed:.1f}s / "
          f"budget {budget:.0f}s)")
    assert ok, f"criterion {num} failed: {desc}"
    assert elapsed < budget, f"criterion {num} blew its {budget}s budget"


def test_criterion_01_markov_consistency():
    t0 = time.monotonic()
    rng = random.Random(101)
    ok = True
    for _ in range(50):
        A = rng.choice([2, 3])
        L = rng.choice([1, 2, 3, 4])  # base on [0..U], U <= 3
        base = random_stationary_measure(A, L, rng)
        N = rng.randint(L, 7)
        w = MarkovExtension(base).window_measure(N)
        for t in range(N - L + 1):
            if w.marginal(Domain.interval(t, t + L - 1)).masses \
                    != base.masses:
                ok = False
    report(1, "Markov windows reproduce every base marginal exactly",
           ok, t0, 10)


def test_criterion_02_markov_maximizes_entropy():
    t0 = time.monotonic()
    rng = random.Random(102)
    total, ok = 0, True
    for trial in range(4):
        base = random_stationary_measure(2, 2, rng)
        ext = MarkovExtension(base)
        for n in (3, 4):
            P = build_window_polytope(base, Domain.interval(0, n - 1))
            top = finite_window_entropy(ext.window_measure(n))
            vs = P.vertices(max_count=12, seed=trial)
            total += len(vs)
            for v in vs:
                if finite_window_entropy(v) > top + 1e-9:
                    ok = False
    ok = ok and total >= 50
    report(2, f"{total} polytope vertices all below the Markov entropy",
           ok, t0, 30)


def test_criterion_03_disconnected_refutation():
    t0 = time.monotonic()
    mu = disconnected_counterexample(2, [F(1, 2), F(1, 2)])
    rep = refute_nonextendible(mu, max_window=4)
    chain = entropy_chain_refute(mu)
    ok = (rep.verdict == "refuted"
          and rep.window.points == ((0,), (1,), (2,), (3,))
          and chain.verdict == "refuted")
    report(3, "disconnected instance refuted at the window [0..3]",
           ok, t0, 5)


def test_criterion_04_pseudolattice():
    t0 = time.monotonic()
    mu = pseudolattice_measure()
    empt = sft_emptiness(support_word_set(mu), max_side=6)
    side_ok = all(hi - lo + 1 <= 6 for lo, hi
                  in empt.window.bounding_box()) if empt.window else False
    rep = refute_nonextendible(mu, max_window=6)
    ok = (is_locally_stationary(mu).ok
          and empt.status == "empty" and side_ok
          and rep.verdict == "refuted")
    report(4, "pseudolattice: stationary, support SFT empty, refuted",
           ok, t0, 60)


def test_criterion_05_periodic_extension_lp():
    t0 = time.monotonic()
    uni = Measure.uniform(Domain.box(2, 2), 2)
    r1 = periodic_extension(uni, (4, 4))
    ok = (r1.status == FEASIBLE
          and pullback_periodic(r1, uni.domain).masses == uni.masses)
    # counter(3): a feasible verdict must come with a torus measure whose
    # pullback is mu exactly.  An infeasible one must come with an empty
    # admissible set, since any invariant torus measure with base
    # marginal mu is supported on admissible configurations.
    ctr = binary_counter_measure(3)
    words, dom = binary_counter_words(3), binary_counter_domain(3)
    r48 = periodic_extension(ctr, (4, 8))
    r44 = periodic_extension(ctr, (4, 4))
    for r in (r48, r44):
        ok = ok and (r.status == FEASIBLE
                     and pullback_periodic(r, dom).masses == ctr.masses)
    # (4,4) is feasible through phase slips: rows such as 0110 that read
    # as two counter values let the rows skip ahead without counting
    slips = brute_force_torus_configs(dom, 2, words, (4, 4))
    ok = ok and r44.config_count == len(slips) == 36
    # config_count is the size of the exhaustive search's admissible set,
    # found before the simplex runs
    for periods in ((4, 2), (4, 3)):
        r = periodic_extension(ctr, periods)
        ok = ok and (r.status == INFEASIBLE and r.config_count == 0
                     and not brute_force_torus_configs(dom, 2, words,
                                                       periods))
    # (5,8) has 2^40 fillings, out of brute-force reach: the search alone
    r58 = periodic_extension(ctr, (5, 8))
    ok = ok and r58.status == INFEASIBLE and r58.config_count == 0
    report(5, "uniform product feasible at (4,4) with exact pullback; "
              "counter(3) feasible at (4,8) and (4,4) with exact pullback, "
              "36 (4,4) configurations by brute force; infeasible at (4,2), "
              "(4,3), (5,8) with no admissible configuration",
           ok, t0, 120)


def test_criterion_06_epsilon_ball():
    t0 = time.monotonic()
    mu = Measure.uniform(Domain.interval(0, 1), 2)
    mod = FiniteModule((4,))
    H = compute_H(mod, mu.domain, 2)
    res = periodic_extension(mu, (4,))
    eps = epsilon_bound(res, mu.domain)
    ok = H == 9 and eps == F(1, 144)

    rng = random.Random(106)
    for _ in range(20):
        pert = random_stationary_measure(2, 2, rng)
        d = tv_distance(mu, pert)
        t = F(1, 300) / d if d > F(1, 300) else F(1)
        close = convex_combine(t, mu, pert)
        if tv_distance(mu, close) >= F(1, 288):
            ok = False
        if periodic_extension(close, (4,)).status != FEASIBLE:
            ok = False

    for _ in range(20):
        dim = rng.choice([1, 2])
        periods = tuple(rng.choice([2, 3, 4]) for _ in range(dim))
        m = FiniteModule(periods)
        A = rng.choice([2, 3])
        pts = rng.sample(m.elements(), rng.randint(1, min(3, m.size)))
        U = Domain(dim, pts)
        h = compute_H(m, U, A)
        if not 1 <= h <= A ** m.size:          # bound (A)
            ok = False
        if h > m.size * A ** len(U):           # bound (B)
            ok = False
    report(6, "H = 9, eps = 1/144; TV < 1/288 ball feasible at (4); "
              "H within both bounds on 20 random pairs", ok, t0, 60)


def test_criterion_07_envelopes():
    t0 = time.monotonic()
    ok = True
    box = Domain.box(2, 3).points
    for r in range(1, len(box) + 1):
        for pts in itertools.combinations(box, r):
            U = Domain(2, pts)
            if verify_envelope(envelope_for(U)).status != "pass":
                ok = False
    # undoubled periods with U a full row must fail with the Remark's
    # two-point witness
    U = Domain(2, [(x, 1) for x in range(1, 5)])
    chk = verify_envelope(Envelope(FiniteModule((4, 2)), U))
    ok = ok and chk.status == "fail" and chk.witness is not None
    V, g = chk.witness
    ok = ok and len(V) == 2 and g == (3, 0)
    report(7, "doubled envelopes pass for all U in [0..2]^2; "
              "Remark counterexample fails with its witness", ok, t0, 60)


def test_criterion_08_harmonic_equivalences():
    t0 = time.monotonic()
    rng = random.Random(108)
    ok = True
    for i in range(200):
        A = rng.choice([2, 3])
        if i % 2:
            mu = random_stationary_measure(A, rng.choice([2, 3]), rng)
        else:
            mu = random_measure(A, Domain.interval(0, rng.choice([1, 2])),
                                rng)
        if harmonic.check_stationarity_fourier(mu)[0] \
                != is_locally_stationary(mu).ok:
            ok = False
        inv = harmonic.inverse_transform(harmonic.fourier_transform(mu),
                                         mu.domain, mu.alphabet)
        if any(abs(v - float(mu[w])) >= 1e-12 for w, v in inv.items()):
            ok = False
    for i in range(20):
        base = random_stationary_measure(2, 2, rng)
        w = MarkovExtension(base).window_measure(3)
        if not harmonic.check_extension_fourier(base, w)[0]:
            ok = False
        other = random_measure(2, Domain.interval(0, 2), rng)
        exact = all(other.marginal(Domain.interval(t, t + 1)).masses
                    == base.masses for t in range(2))
        if harmonic.check_extension_fourier(base, other)[0] != exact:
            ok = False
    report(8, "Fourier checks agree with exact ones on 200 measures; "
              "round-trip < 1e-12", ok, t0, 30)


def test_criterion_09_ca_encoding():
    t0 = time.monotonic()
    rule, U = eca_rule(110)
    dom, ws = ca_to_sft(rule, U, 2)
    # brute force all 6x2 blocks; a block is admissible iff every
    # translate of dom inside it reads an admissible word, i.e. iff the
    # top row equals the CA image of the bottom row wherever the
    # three-cell neighborhood fits
    width = 6
    admissible = set()
    for bot in itertools.product(range(2), repeat=width):
        for top in itertools.product(range(2), repeat=width):
            good = True
            for x in range(1, width - 1):
                w = (bot[x - 1], bot[x], top[x], bot[x + 1])
                if w not in ws.words:
                    good = False
                    break
            if good:
                admissible.add((bot, top))
    want = set()
    for bot in itertools.product(range(2), repeat=width):
        image = [rule[(bot[x - 1], bot[x], bot[x + 1])]
                 for x in range(1, width - 1)]
        for e0 in range(2):
            for e5 in range(2):
                want.add((bot, (e0, *image, e5)))
    report(9, "6x2 blocks of the rule-110 SFT are exactly the "
              "(input, image) pairs", admissible == want, t0, 10)


def test_criterion_10_robinson_evidence():
    t0 = time.monotonic()
    ok = True
    for d in ("distinct", "typo"):
        ws = robinson_word_set(d_reading=d)
        for px in range(1, 5):
            for py in range(1, 5):
                if periodic_config_search(ws, (px, py)).status != "none":
                    ok = False
        if sft_emptiness(ws, max_side=6).status != "unknown":
            ok = False
    report(10, "no Robinson periodic configuration up to (4,4) in either "
               "d-reading; emptiness unknown through side 6", ok, t0, 600)


def test_criterion_11_soundness_guard():
    t0 = time.monotonic()
    ok = True
    for mu in extendible_marginals():
        if refute_nonextendible(mu, max_window=3).verdict == "refuted":
            ok = False
    report(11, "no false refutation on 100 known-extendible marginals",
           ok, t0, 300)
