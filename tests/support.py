"""Shared test helpers: independent oracles and random instance factories.

Everything here is deliberately written as straight-line brute force,
separate from the library's own algorithms, so the two can disagree.
"""

import itertools
import math
import random
from collections import defaultdict
from fractions import Fraction

from extlab import engine, harmonic
from extlab.lattice import (CapExceeded, Domain, EnvelopeCheck, FiniteModule,
                            add, sub, translates_inside, cell_cap)
from extlab.lp import (DEFAULT_PIVOT_LIMIT, FEASIBLE, INFEASIBLE,
                       LinearSystem, solve_feasibility)
from extlab.markov import MarkovExtension
from extlab.measures import (ChainResult, Measure, _deterministic_map,
                             is_locally_stationary, random_stationary_measure)


def random_measure(alphabet, domain, rng, sparse=False):
    """A random rational probability measure, usually not stationary."""
    words = list(itertools.product(range(alphabet), repeat=len(domain)))
    if sparse:
        words = rng.sample(words, max(1, len(words) // 3))
    raw = [rng.randrange(0, 6) for _ in words]
    while sum(raw) == 0:
        raw = [rng.randrange(0, 6) for _ in words]
    total = sum(raw)
    return Measure(domain, alphabet,
                   {w: Fraction(r, total) for w, r in zip(words, raw) if r})


# ---------------------------------------------------------------------------
# Fourier-Motzkin elimination: an LP feasibility oracle for tiny systems


def fm_feasible(ineqs, nvars):
    """Whether {x : row . x >= rhs for all rows} is nonempty (exact).

    ineqs are (coefficient list, rhs) pairs.  Only sensible for a
    handful of variables; constraint counts grow quadratically per
    eliminated variable.
    """
    rows = [([Fraction(c) for c in coeffs], Fraction(rhs))
            for coeffs, rhs in ineqs]
    for v in range(nvars):
        pos, neg, rest = [], [], []
        for coeffs, rhs in rows:
            c = coeffs[v]
            if c > 0:
                pos.append((coeffs, rhs))
            elif c < 0:
                neg.append((coeffs, rhs))
            else:
                rest.append((coeffs, rhs))
        new = rest
        for pc, pr in pos:
            for nc, nr in neg:
                # pc gives lower bound on x_v, nc gives upper; combine
                scale_p, scale_n = -nc[v], pc[v]
                coeffs = [scale_p * a + scale_n * b
                          for a, b in zip(pc, nc)]
                new.append((coeffs, scale_p * pr + scale_n * nr))
        rows = new
    return all(rhs <= 0 for _, rhs in rows)


def rational_rows(rows):
    """LinearSystem rows, stored as integer forms (scale, {variable: int},
    int rhs), as (coefficient dict, rhs) pairs of Fractions."""
    return [({v: Fraction(c, scale) for v, c in ints.items()},
             Fraction(rhs, scale)) for scale, ints, rhs in rows]


def reference_dumps(variables, nonneg, added):
    """LinearSystem.dumps rendered from Fraction rows.  `added` lists
    (kind, coeffs, rhs) in the order they were passed to add_eq ("==")
    and add_ge (">="); values become Fractions, zeros are dropped."""
    lines = [f"var {v}{' >= 0' if v in nonneg else ''}" for v in variables]
    for kind in ("==", ">="):
        for k, coeffs, rhs in added:
            if k != kind:
                continue
            coeffs = {v: Fraction(c) for v, c in coeffs.items()
                      if Fraction(c) != 0}
            terms = " + ".join(f"{c}*{v}" for v, c in sorted(coeffs.items()))
            lines.append(f"{terms or '0'} {kind} {Fraction(rhs)}")
    return "\n".join(lines) + "\n"


def system_to_ineqs(system):
    """Flatten a LinearSystem into pure >= rows over its variable order."""
    order = {v: i for i, v in enumerate(system.variables)}
    n = len(order)
    rows = []

    def row_of(coeffs):
        out = [Fraction(0)] * n
        for v, c in coeffs.items():
            out[order[v]] = Fraction(c)
        return out

    for coeffs, rhs in rational_rows(system.equalities):
        r = row_of(coeffs)
        rows.append((r, rhs))
        rows.append(([-c for c in r], -rhs))
    for coeffs, rhs in rational_rows(system.inequalities):
        rows.append((row_of(coeffs), rhs))
    for v in system.nonneg:
        r = [Fraction(0)] * n
        r[order[v]] = Fraction(1)
        rows.append((r, Fraction(0)))
    return rows, n


# ---------------------------------------------------------------------------
# brute-force window filling (oracle for the backtracking search)


def brute_force_fillable(T, W):
    """Exhaustively test whether T admits a configuration on W."""
    U = T.domain
    anchors = []
    wset = W.point_set
    for w in W.points:
        k = tuple(a - b for a, b in zip(w, U.points[0]))
        if all(add(p, k) in wset for p in U.points):
            anchors.append(k)
    for values in itertools.product(range(T.alphabet), repeat=len(W)):
        grid = dict(zip(W.points, values))
        if all(tuple(grid[add(u, k)] for u in U.points) in T.words
               for k in anchors):
            return True
    return False


def brute_force_torus_configs(domain, alphabet, words, periods):
    """Every torus filling whose translates of domain all read a word.

    Tries all alphabet^cells fillings of the torus prod(range(p)); the
    translate by g reads domain.points shifted by g, modulo the periods.
    Returns the admissible fillings as cell -> symbol dicts.
    """
    cells = list(itertools.product(*(range(p) for p in periods)))
    found = []
    for values in itertools.product(range(alphabet), repeat=len(cells)):
        grid = dict(zip(cells, values))
        if all(tuple(grid[tuple((u + g) % p for u, g, p
                                in zip(pt, shift, periods))]
                     for pt in domain.points) in words
               for shift in cells):
            found.append(grid)
    return found


def random_periodic_base(domain, alphabet, periods, rng, count=2):
    """A random locally stationary measure on domain, periodic by design.

    Puts random masses on `count` random fillings of the torus
    prod(range(p)), averages them over all translations, and reads the
    result on the domain modulo the periods; the quotient must separate
    the domain.  A small count gives a sparse support.
    """
    cells = list(itertools.product(*(range(p) for p in periods)))
    at = {c: i for i, c in enumerate(cells)}
    fillings = rng.sample(
        list(itertools.product(range(alphabet), repeat=len(cells))), count)
    raw = [rng.randrange(1, 4) for _ in fillings]
    total = sum(raw) * len(cells)
    masses = defaultdict(Fraction)
    for x, m in zip(fillings, raw):
        for g in cells:
            word = tuple(x[at[tuple((a + b) % p for a, b, p
                                    in zip(u, g, periods))]]
                         for u in domain.points)
            masses[word] += Fraction(m, total)
    return Measure(domain, alphabet, masses)


def unreduced_torus_lp(mu, periods):
    """The torus extension LP with one variable per torus filling.

    Rows: invariance under each unit shift, p(x) = p(x moved by e_i),
    and the base marginal read at the domain modulo the periods.  No
    admissibility search and no orbit reduction, so it checks both.
    """
    cells = list(itertools.product(*(range(p) for p in periods)))
    at = {c: i for i, c in enumerate(cells)}

    def wrap(p):
        return tuple(x % m for x, m in zip(p, periods))

    fillings = list(itertools.product(range(mu.alphabet),
                                      repeat=len(cells)))
    name = {x: f"p{k}" for k, x in enumerate(fillings)}
    system = LinearSystem()
    for x in fillings:
        system.add_variable(name[x], nonneg=True)
    for axis in range(len(periods)):
        unit = tuple(int(d == axis) for d in range(len(periods)))
        source = [at[wrap(add(c, unit))] for c in cells]
        for x in fillings:
            moved = tuple(x[i] for i in source)
            if moved != x:
                system.add_eq({name[x]: 1, name[moved]: -1}, 0)
    reads = [at[wrap(u)] for u in mu.domain.points]
    groups = defaultdict(list)
    for x in fillings:
        groups[tuple(x[i] for i in reads)].append(name[x])
    for u in itertools.product(range(mu.alphabet), repeat=len(mu.domain)):
        system.add_eq({v: 1 for v in groups[u]}, mu[u])
    return system


def dense_pullback(nu, periods, W):
    """The torus measure nu read on a window W of Z^D, one configuration
    at a time.

    nu lives on the cells prod(range(p)) in lexicographic order; a point
    of W reads the cell it reduces to modulo the periods.
    """
    at = {c: i for i, c in enumerate(nu.domain.points)}
    reads = [at[tuple(x % p for x, p in zip(pt, periods))]
             for pt in W.points]
    out = defaultdict(Fraction)
    for cfg, mass in nu.masses.items():
        out[tuple(cfg[i] for i in reads)] += mass
    return Measure(W, nu.alphabet, out)


def reference_verify_envelope(env, max_subset_size=None):
    """verify_envelope by enumerating every subset V against every residue.

    Tries V by size, then itertools.combinations order over U.points,
    then each residue g~ in module.elements() order; (V, g~) fails when
    phi(V) + g~ lies in phi(U) and no lattice vector g == g~ mod P with
    |g_i| at most U's coordinate span puts V + g inside U.
    """
    mod, U = env.module, env.window
    if mod.dim != U.dim:
        raise ValueError("module and window dimensions differ")
    if not mod.injective_on(U):
        return EnvelopeCheck("fail", "injective", ())
    n = len(U.points)
    cap = n if max_subset_size is None else min(max_subset_size, n)
    spans = [hi - lo for lo, hi in U.bounding_box()]
    image = {mod.quotient(p) for p in U.points}
    lifts = {}
    for g_tilde in mod.elements():
        axes = [[x for x in range(-s, s + 1) if (x - gt) % p == 0]
                for gt, p, s in zip(g_tilde, mod.periods, spans)]
        lifts[g_tilde] = list(itertools.product(*axes))
    for size in range(1, cap + 1):
        for V in itertools.combinations(U.points, size):
            for g_tilde in mod.elements():
                if not all(mod.quotient(add(v, g_tilde)) in image
                           for v in V):
                    continue
                if not any(all(add(v, g) in U for v in V)
                           for g in lifts[g_tilde]):
                    return EnvelopeCheck("fail", "liftable", (V, g_tilde))
    return EnvelopeCheck("pass" if cap == n else "partial", "", ())


def brute_force_stationary(mu):
    """Local stationarity straight from the definition (all V, k pairs)."""
    U = mu.domain
    pts = U.points
    for r in range(1, len(pts) + 1):
        for V in itertools.combinations(pts, r):
            Vd = Domain(U.dim, V)
            for k in itertools.product(range(-4, 5), repeat=U.dim):
                shifted = [add(p, k) for p in V]
                if not all(q in U for q in shifted):
                    continue
                a = mu.marginal(Vd)
                b = mu.marginal(Vd.shift(k))
                words = set(a.masses) | set(b.masses)
                if any(a[w] != b[w] for w in words):
                    return False
    return True


# 1-D and 2-D domains for the overlap checks: intervals and boxes,
# negative coordinates and scattered sites
OVERLAP_DOMAINS = [
    Domain.interval(0, 1), Domain.interval(-2, 0), Domain.interval(0, 3),
    Domain(1, [(0,), (1,), (3,)]), Domain(1, [(-4,), (-1,), (0,)]),
    Domain.box(2, 2), Domain(2, [(0, 0), (1, 1), (2, 0), (0, 2)]),
    Domain(2, [(-1, 0), (0, -1), (0, 0)]),
    Domain(2, [(-1, -1), (0, 1), (2, 0)]),
]


def _pair_swap(mu, rng):
    """mu with mass moved between four words that differ at two sites.

    Adds e to the words reading (x, y) and (x', y') at sites i, j and
    takes it from (x, y') and (x', y), the other sites fixed, so every
    marginal not holding both i and j stays put.  Returns mu itself when
    one of the two donors has no mass.
    """
    A = mu.alphabet
    i, j = sorted(rng.sample(range(len(mu.domain)), 2))
    x, x2 = rng.sample(range(A), 2)
    y, y2 = rng.sample(range(A), 2)
    base = list(rng.choice(sorted(mu.masses)))

    def word(a, b):
        base[i], base[j] = a, b
        return tuple(base)

    gain, loss = (word(x, y), word(x2, y2)), (word(x, y2), word(x2, y))
    e = min(mu[w] for w in loss)
    if e == 0:
        return mu
    masses = dict(mu.masses)
    for w in gain:
        masses[w] = masses.get(w, 0) + e
    for w in loss:
        masses[w] -= e
    return Measure(mu.domain, A, masses)


def seeded_overlap_measures(seed, count):
    """`count` seeded measures over OVERLAP_DOMAINS, alphabets 2 to 4.

    In turn: a random measure (dense, or a sparse support), a locally
    stationary one (a reading of random torus fillings, sparse when few),
    and such a stationary one after a pair swap, which keeps the one-site
    marginals, so it can fail first at a later overlap.
    """
    rng = random.Random(seed)
    out = []
    for t in range(count):
        U = rng.choice(OVERLAP_DOMAINS)
        A = rng.choice([2, 3, 4])
        if t % 3 == 0:
            out.append(random_measure(A, U, rng, sparse=rng.random() < 0.5))
            continue
        periods = tuple(rng.choice([2, 3]) if A < 4 else 2
                        for _ in range(U.dim))
        cells = 1
        for p in periods:
            cells *= p
        mu = random_periodic_base(U, A, periods, rng,
                                  count=rng.randint(1, min(12, A ** cells)))
        if t % 3 == 2:
            for _ in range(8):
                swapped = _pair_swap(mu, rng)
                if swapped is not mu:
                    mu = swapped
                    break
        out.append(mu)
    return out


def seeded_extension_pairs(seed, count):
    """(base, ext) pairs: ext a periodic stationary measure on a window,
    base its marginal on a pattern with translates inside; in turn kept,
    with the symbols at one random site of ext cycled, which moves only
    the translates holding that site, or with ext after a pair swap."""
    shapes = [(Domain.interval(0, 1), Domain.interval(0, 3), (3,)),
              (Domain(1, [(0,), (2,)]), Domain.interval(-1, 3), (2,)),
              (Domain.interval(0, 2), Domain(1, [(0,), (1,), (2,), (4,),
                                                 (5,), (6,)]), (3,)),
              (Domain(2, [(0, 0), (1, 0), (0, 1)]), Domain.box(2, 3), (2, 2)),
              (Domain(2, [(0, 0), (1, 1)]), Domain.box(2, (3, 2)), (2, 2))]
    rng = random.Random(seed)
    out = []
    for t in range(count):
        U, W, periods = rng.choice(shapes)
        A = rng.choice([2, 3]) if len(periods) == 1 else 2
        cells = A ** math.prod(periods)
        ext = random_periodic_base(W, A, periods, rng,
                                   count=rng.randint(1, min(12, cells)))
        base = ext.marginal(U)
        if t % 3 == 1:
            i = rng.randrange(len(W))
            ext = Measure(W, A, {w[:i] + ((w[i] + 1) % A,) + w[i + 1:]: m
                                 for w, m in ext.masses.items()})
        elif t % 3 == 2:
            ext = _pair_swap(ext, rng)
        out.append((base, ext))
    return out


def reference_locally_stationary(mu):
    """is_locally_stationary by two marginal Measures per maximal overlap.

    For each shift k > 0 between domain points, in increasing order, the
    overlap V = U cap (U - k) is built as a Domain, and the marginals on
    V and V + k are compared word by word in sorted order.  Returns
    (ok, witness), the witness being (V points, word, k).
    """
    U = mu.domain
    zero = (0,) * U.dim
    shifts = {tuple(b - a for a, b in zip(p, q))
              for p in U.points for q in U.points}
    for k in sorted(d for d in shifts if d > zero):
        V = Domain(U.dim, [p for p in U.points if add(p, k) in U])
        left, right = mu.marginal(V), mu.marginal(V.shift(k))
        for b in sorted(set(left.masses) | set(right.masses)):
            if left[b] != right[b]:
                return False, (V.points, b, k)
    return True, ()


def cyclic_base(alphabet, length, rng, sparse=False):
    """A locally stationary measure on [0..length-1]: random weights on
    words of the cycle Z/(length+2), averaged over rotations, then the
    marginal.  With sparse, only one to three cycle words are weighted,
    so most words of the base, and most tails, are null."""
    period = length + 2
    words = list(itertools.product(range(alphabet), repeat=period))
    if sparse:
        words = rng.sample(words, rng.randint(1, 3))
    raw = [rng.randint(1, 4) for _ in words]
    weights = defaultdict(int)  # of each rotation's first length symbols
    for w, r in zip(words, raw):
        for k in range(period):
            weights[(w[k:] + w[:k])[:length]] += r
    total = sum(raw) * period
    return Measure(Domain.interval(0, length - 1), alphabet,
                   {w: Fraction(c, total) for w, c in weights.items()})


def reference_window_measure(ext, n):
    """MarkovExtension.window_measure word by word: each window word
    calls ext._step once per symbol, with no table shared between words.
    Same masses in the same order, and CapExceeded at the same point."""
    if n < 1:
        raise ValueError("window length must be positive")
    m = ext.memory
    if n <= m + 1:
        return ext._prefix_marginal(n)
    cap = cell_cap()
    current = ext.base.masses
    for _ in range(n - m - 1):
        nxt = {}
        for w, mass in current.items():
            tail = w[len(w) - m:]
            for a in range(ext.base.alphabet):
                p = ext._step(tail, a)
                if p:
                    nxt[w + (a,)] = mass * p
            if len(nxt) > cap:
                raise CapExceeded(f"window {n} passes {cap} words")
        current = nxt
    return Measure(Domain.interval(0, n - 1), ext.base.alphabet, current)


def translate_table(periods):
    """Row g lists, for each cell c, the position of the cell c - g.

    Cells are prod(range(p)) in lexicographic order, so a configuration
    (a tuple over the cells) translated by g reads cfg[i] for i in row g.
    """
    cells = list(itertools.product(*(range(p) for p in periods)))
    at = {c: i for i, c in enumerate(cells)}
    return [[at[tuple((x - y) % p for x, y, p in zip(c, g, periods))]
             for c in cells] for g in cells]


def reference_orbit_partition(configs, periods):
    """Translation orbits through the full cell-by-cell translate table,
    in order of their first configuration in `configs`, each sorted."""
    table = translate_table(periods)
    orbits, seen = [], set()
    for cfg in configs:
        if cfg not in seen:
            orbit = {tuple(cfg[i] for i in row) for row in table}
            seen |= orbit
            orbits.append(sorted(orbit))
    return orbits


def reference_check(system, assignment):
    """LinearSystem.check by plain Fraction sums, row by row."""
    for name in system.variables:
        if name not in assignment:
            return False
        if name in system.nonneg and assignment[name] < 0:
            return False
    for rows, holds in ((system.equalities, lambda s, b: s == b),
                        (system.inequalities, lambda s, b: s >= b)):
        for coeffs, rhs in rational_rows(rows):
            total = Fraction(0)
            for v, c in coeffs.items():
                total += Fraction(c) * Fraction(assignment[v])
            if not holds(total, rhs):
                return False
    return True


def reference_eliminate(row, f, p, nz):
    """The always-reduce row update: row * p - f * prow over its gcd,
    whatever p is."""
    out = [x * p for x in row]
    for j, y in nz:
        out[j] -= f * y
    g = math.gcd(*out)
    return [x // g for x in out] if g > 1 else out


def reference_vertices(system, max_count=50, seed=0,
                       pivot_limit=DEFAULT_PIVOT_LIMIT):
    """enumerate_vertices by one whole solve_feasibility, phase 1
    included, per try, drawing the same objectives, over the library's
    8 * max_count tries."""
    rng = random.Random(seed)
    vertices, seen = [], set()
    for _ in range(8 * max_count):
        if len(vertices) >= max_count:
            break
        objective = {v: Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                     for v in system.variables}
        res = solve_feasibility(system, objective, pivot_limit)
        if res.status == INFEASIBLE:
            return []
        if res.status != FEASIBLE:
            continue
        key = tuple(res.assignment[v] for v in system.variables)
        if key not in seen:
            seen.add(key)
            vertices.append(res.assignment)
    return vertices


def _shifted_word(chi, domain, k, target):
    """The exponent word on `target` with chi's exponent at point p
    moved to p + k, by point arithmetic."""
    moved = {add(p, k): e for p, e in zip(domain.points, chi) if e}
    return tuple(moved.get(p, 0) for p in target.points)


def reference_stationarity_fourier(mu):
    """check_stationarity_fourier by one direct fourier_coeff sum per
    character and per shifted character, exponent words in
    itertools.product order, shifts from translates_inside, within
    harmonic.TOL."""
    W = mu.domain
    for chi in itertools.product(range(mu.alphabet), repeat=len(W)):
        support = [p for p, e in zip(W.points, chi) if e]
        if not support:
            continue
        base = harmonic.fourier_coeff(mu, chi)
        for k in translates_inside(Domain(W.dim, support), W):
            if any(k) and abs(base - harmonic.fourier_coeff(
                    mu, _shifted_word(chi, W, k, W))) > harmonic.TOL:
                return False, (chi, k)
    return True, ()


def reference_extension_fourier(base, ext):
    """check_extension_fourier by direct sums: the first (chi, t), chi
    in itertools.product order, whose coefficient on base differs from
    that of chi moved by t on ext by more than harmonic.TOL."""
    U, W = base.domain, ext.domain
    for chi in itertools.product(range(base.alphabet), repeat=len(U)):
        want = harmonic.fourier_coeff(base, chi)
        for t in translates_inside(U, W):
            got = harmonic.fourier_coeff(ext, _shifted_word(chi, U, t, W))
            if abs(want - got) > harmonic.TOL:
                return False, (chi, t)
    return True, ()


def module_order_torus_configs(T, periods):
    """enumerate_periodic_configs with the cells filled in
    module.elements() order, first axis outermost: the library's pattern
    search over untranslated placements, which lists its fillings in
    lexicographic order without a sort."""
    module = FiniteModule(periods)
    cells = Domain(module.dim, module.elements())
    placements = [[cells.index(module.quotient(add(u, t)))
                   for u in T.domain.points] for t in cells.points]
    return list(engine._PatternSearch(T.alphabet, len(cells), placements,
                                      T.words).fillings(10 ** 7))


def reference_compute_H(module, U, alphabet):
    """compute_H with a character as the frozenset of its nonzero
    (residue, exponent) pairs, translated by addition mod P."""
    images = sorted(set(module.quotient(p) for p in U.points))
    seen = set()
    for exps in itertools.product(range(alphabet), repeat=len(images)):
        base = [(c, e) for c, e in zip(images, exps) if e]
        for g in module.elements():
            seen.add(frozenset((module.quotient(add(c, g)), e)
                               for c, e in base))
    return len(seen)


def reference_entropy_chain(mu, horizon):
    """The entropy chain with an explicit edge list over the inflated box
    and a fresh breadth-first search for every pair of sites."""
    U = mu.domain
    sigma = {}
    joints = {}
    for i, u in enumerate(U.points):
        for w in U.points[i + 1:]:
            joint = joints[u, w] = mu.marginal(Domain(U.dim, [u, w]))
            f = _deterministic_map(joint)
            if f is not None:
                d = sub(w, u)
                sigma[d] = f
                sigma[tuple(-c for c in d)] = {b: a for a, b in f.items()}
    if not sigma:
        return ChainResult("unknown", (), ())

    box = U.bounding_box()
    ranges = [range(lo - horizon, hi + horizon + 1) for lo, hi in box]
    nodes = set(itertools.product(*ranges))
    graph = defaultdict(list)
    for d in sigma:
        for p in nodes:
            q = add(p, d)
            if q in nodes:
                graph[p].append((q, d))

    def bfs_path(src, dst):
        prev = {src: None}
        queue = [src]
        while queue:
            nxt = []
            for p in queue:
                if p == dst:
                    path = []
                    while p is not None:
                        path.append(p)
                        p = prev[p][0] if prev[p] else None
                    return list(reversed(path))
                for q, d in graph[p]:
                    if q not in prev:
                        prev[q] = (p, d)
                        nxt.append(q)
            queue = nxt
        return None

    for i, u in enumerate(U.points):
        for w in U.points[i + 1:]:
            path = bfs_path(u, w)
            if path is None or len(path) < 2:
                continue
            comp = None
            ok = True
            for p, q in zip(path, path[1:]):
                f = sigma[sub(q, p)]
                comp = f if comp is None else {
                    a: f[b] for a, b in comp.items() if b in f}
                if comp is not None and not comp:
                    ok = False
                    break
            if not ok:
                continue
            for (a, b) in joints[u, w].masses:
                if comp.get(a) != b:
                    return ChainResult("refuted", (u, w), tuple(path))
    return ChainResult("unknown", (), ())


def glued_chain_bases(seed, count):
    """Locally stationary bases whose sites are glued by bijections.

    Site 0 is uniform over A symbols; each of 1-3 random glue vectors g
    carries a random permutation of site 0's symbol, and one more random
    site is independent of the rest.  Draws that are not locally
    stationary (two glued pairs at one difference) are dropped.
    """
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        D = rng.randint(1, 3)
        A = rng.randint(2, 3)
        glue = [tuple(rng.randint(-2, 2) for _ in range(D))
                for _ in range(rng.randint(1, 3))]
        far = tuple(rng.randint(-4, 4) for _ in range(D))
        points = [(0,) * D] + glue + [far]
        if len(set(points)) < len(points):
            continue
        perms = [rng.sample(range(A), A) for _ in glue]
        dom = Domain(D, points)
        mass = Fraction(1, A * A)
        masses = {}
        for a, b in itertools.product(range(A), repeat=2):
            values = dict(zip(points, [a] + [p[a] for p in perms] + [b]))
            masses[tuple(values[p] for p in dom.points)] = mass
        mu = Measure(dom, A, masses)
        if is_locally_stationary(mu).ok:
            out.append(mu)
    return out


def chain_walk_clashes(mu, pair, path):
    """Re-compose a reported entropy chain step by step.

    Each step p -> q takes its bijection from two domain sites at the
    difference q - p whose joint support is a bijection graph, read
    straight off the masses.  True when the walk runs from u to w and its
    composite, started on the symbols of u, sends some symbol a to a
    symbol other than the b the pair's joint support pairs it with (for
    u == w, b is a itself).
    """
    U = mu.domain
    u, w = pair
    if path[0] != u or path[-1] != w or len(path) < 2:
        return False

    def joint(s, t):
        i, j = U.index(s), U.index(t)
        return {(word[i], word[j]) for word in mu.masses}

    comp = {a: a for a, _ in joint(u, u)}
    for p, q in zip(path, path[1:]):
        f = None
        for s in U.points:
            t = add(s, sub(q, p))
            if t in U and s != t:
                pairs = joint(s, t)
                if (len({a for a, _ in pairs}) == len(pairs)
                        == len({b for _, b in pairs})):
                    f = dict(pairs)
                    break
        if f is None:
            return False
        comp = {a: f[b] for a, b in comp.items()}
    return any(comp[a] != b for a, b in joint(u, w))


def extendible_marginals():
    """The 100 marginals of Markov windows that acceptance criterion 11
    must never refute."""
    rng = random.Random(111)
    out = []
    for _ in range(100):
        base = random_stationary_measure(2, rng.choice([1, 2]), rng)
        w = MarkovExtension(base).window_measure(rng.choice([4, 5]))
        sites = sorted(rng.sample(range(5), rng.randint(2, 4)))
        sub_ = Domain(1, [(s,) for s in sites if (s,) in w.domain.points])
        out.append(w.marginal(sub_))
    return out
