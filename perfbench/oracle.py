"""Independent correctness checks for benchmark outputs.

Every check here uses its own exact arithmetic on plain dicts and
tuples, never the library's `LinearSystem.check` or `Measure` methods,
so a library bug cannot vouch for itself.  Each function returns None
when the output is correct and a short description of the first
problem otherwise.

Masses are dicts from words (tuples of symbols, in the lexicographic
order of the window's points) to Fractions; points are int tuples.
"""

import math
from collections import defaultdict
from fractions import Fraction
from operator import itemgetter


def add(p, q):
    return tuple(a + b for a, b in zip(p, q))


def reader(idx):
    """The function taking a word to its symbols at positions idx."""
    if len(idx) == 1:
        i = idx[0]
        return lambda word: (word[i],)
    return itemgetter(*idx)


def project(masses, idx):
    """Masses of the words read at positions idx, zeros dropped."""
    read = reader(idx)
    out = defaultdict(int)
    for word, mass in masses.items():
        out[read(word)] += mass
    return {w: m for w, m in out.items() if m}


def marginal(points, masses, sub_points):
    """Masses of the words read on `sub_points`, a subset of `points`."""
    pos = {p: i for i, p in enumerate(points)}
    return project(masses, [pos[p] for p in sub_points])


def probability_problem(masses):
    if any(m < 0 for m in masses.values()):
        return "negative mass"
    total = sum(masses.values(), Fraction(0))
    if total != 1:
        return f"masses sum to {total}"
    return None


def translates(base_points, points):
    """Vectors t with base_points + t inside points."""
    pset = set(points)
    v0 = base_points[0]
    out = []
    for w in points:
        t = tuple(a - b for a, b in zip(w, v0))
        if all(add(u, t) in pset for u in base_points):
            out.append(t)
    return out


def stationarity_problem(points, masses):
    """Compare the marginals on every maximal self-overlap V, V + k."""
    pset = set(points)
    shifts = {tuple(b - a for a, b in zip(p, q))
              for p in points for q in points}
    zero = (0,) * len(points[0])
    for k in sorted(s for s in shifts if s > zero):
        V = [p for p in points if add(p, k) in pset]
        if marginal(points, masses, V) != marginal(
                points, masses, [add(v, k) for v in V]):
            return f"marginals differ on the overlap at shift {k}"
    return None


def window_problem(points, masses, base_points, base_masses):
    """A window measure: a stationary probability with the base marginals."""
    problem = (probability_problem(masses)
               or stationarity_problem(points, masses))
    if problem:
        return problem
    base = {w: m for w, m in base_masses.items() if m}
    for t in translates(base_points, points):
        if marginal(points, masses, [add(u, t) for u in base_points]) != base:
            return f"marginal on the base translate by {t} differs"
    return None


def cells_of(periods):
    """Torus cells in lexicographic order, as the library lists them."""
    cells = [()]
    for p in periods:
        cells = [c + (x,) for c in cells for x in range(p)]
    return cells


def quotient(p, periods):
    return tuple(x % m for x, m in zip(p, periods))


def torus_problem(periods, masses, base_points, base_masses):
    """A torus measure whose every base-translate marginal is the base."""
    problem = probability_problem(masses)
    if problem:
        return problem
    cells = cells_of(periods)
    index = {c: i for i, c in enumerate(cells)}
    # integer numerators over a common denominator: the same exact sums,
    # without a Fraction addition per configuration and translate
    den = math.lcm(*(m.denominator for m in masses.values()))
    scaled = {cfg: m.numerator * (den // m.denominator)
              for cfg, m in masses.items()}
    base = {w: m * den for w, m in base_masses.items() if m}
    for g in cells:
        idx = [index[quotient(add(u, g), periods)] for u in base_points]
        if project(scaled, idx) != base:
            return f"torus marginal at translate {g} differs from the base"
    return None


def periodic_config_problem(periods, word_points, words, config):
    """Every wrapped translate of the word domain reads an allowed word."""
    cells = cells_of(periods)
    if set(config) != set(cells):
        return "configuration does not cover the torus"
    for g in cells:
        word = tuple(config[quotient(add(u, g), periods)]
                     for u in word_points)
        if word not in words:
            return f"translate {g} reads the forbidden word {word}"
    return None


def entropy(masses):
    return -sum(float(m) * math.log2(float(m)) for m in masses.values() if m)


def entropy_metric(points, masses, V, W):
    """D[V, W] = 2 H(V u W) - H(V) - H(W), in bits."""
    def h(sites):
        return entropy(marginal(points, masses, sorted(sites)))
    return 2 * h(set(V) | set(W)) - h(V) - h(W)


def envelope_lift_fails(periods, window, V, g_tilde):
    """Whether g_tilde moves phi(V) into phi(U) with no lattice lift.

    Any lift g with g + V inside U has |g_i| at most the i-th coordinate
    span of U, so a bounded search over g == g_tilde mod P decides it.
    """
    image = {quotient(p, periods) for p in window}
    if not all(quotient(add(v, g_tilde), periods) in image for v in V):
        return False
    wset = set(window)
    spans = [max(p[i] for p in window) - min(p[i] for p in window)
             for i in range(len(periods))]
    lifts = [()]
    for gt, p, s in zip(g_tilde, periods, spans):
        axis = [g for g in range(-s, s + 1) if (g - gt) % p == 0]
        lifts = [x + (g,) for x in lifts for g in axis]
    return not any(all(add(v, g) in wset for v in V) for g in lifts)
