"""Decision procedures for the stationary extension problem.

Four families of tools:

* window extension polytopes: exact LP descriptions of the stationary
  measures on a finite window whose marginals reproduce a given base;
* subshift-of-finite-type searches: admissible window configurations
  and periodic (torus) configurations for a finite word set;
* periodic extensions: exact LPs over shift-invariant measures on a
  finite quotient torus, solved as one weight per translation orbit;
  pullbacks and quantitative bounds read those orbit weights;
* a refutation pipeline combining entropy chains, SFT emptiness, and
  growing-window LP infeasibility.

The window polytope and the torus LP are one LP, built by _class_lp:
a measure constant on classes of configurations, locally stationary
across given overlaps, with base marginal mu at given placements.

In the torus layer a configuration is one packed int (_Codec), whose
order is lexicographic, and a unit translation is a shift-and-mask pair
(_unit_steps); tuples appear only at the public boundaries.
"""

import itertools
import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from operator import itemgetter, lshift

from .lattice import (Domain, FiniteModule, Envelope, CapExceeded, cell_cap,
                      translates_inside, verify_envelope, _overlaps,
                      _placements)
from .measures import (Measure, _entropy_chain,
                       is_locally_stationary, support_word_set, word_key)
from .lp import (LinearSystem, solve_feasibility, enumerate_vertices,
                 FEASIBLE, INFEASIBLE, ABORTED, DEFAULT_PIVOT_LIMIT)
from .symmetry import stabiliser, solve_quotient


def _var(word):
    return "x" + word_key(word)


# ---------------------------------------------------------------------------
# the extension LP


def _class_lp(mu, classes, names, placements, overlaps=()):
    """The exact LP of a measure on configurations that is constant on
    each class, locally stationary across the overlaps, and has base
    marginal mu at every placement.

    A class is (representative, size): a configuration, a tuple of
    symbols, and its number of members.  A read is a tuple of positions,
    in word order.  A placement is a list of reads such that, where the
    representative reads u k times across them, k * size / len(reads)
    members read u there.  Overlaps (left, right) read the representative
    alone.  Variable names[i] >= 0 is the mass of each member of
    classes[i].  The rows are, in this order:

    * total mass 1: the sum of size * x over the classes;
    * per overlap, per word b read at either side, in order of first
      appearance: the classes reading b at left minus those reading it
      at right, == 0; all-zero rows are dropped;
    * per placement, per word u read there or in the support of mu, in
      sorted order: the members reading u, == mu[u].

    The window polytope (one class per window word, one read per
    translate of the base domain, the maximal overlaps) and the torus LP
    (the translation orbits of the admissible configurations, each read
    through its least member at the base domain translated by every
    cell, no overlaps) are this LP.
    Their verdicts weigh differently.  An infeasible window is a
    refutation: every stationary extension of mu restricts to a point of
    it.  A feasible window proves nothing.  A feasible torus is a
    constructed periodic extension.  An infeasible torus rules out only
    the extensions with those periods.
    """
    system = LinearSystem()
    for name in names:
        system.add_variable(name, nonneg=True)
    reps = [rep for rep, _ in classes]
    size = {v: n for v, (_, n) in zip(names, classes)}
    system.add_eq(size, 1)
    for left, right in overlaps:
        rows = defaultdict(Counter)
        for v, b, c in zip(names, map(_reader(left), reps),
                           map(_reader(right), reps)):
            rows[b][v] += 1
            rows[c][v] -= 1
        for coeffs in rows.values():
            if any(coeffs.values()):
                system.add_eq(coeffs, 0)
    for reads in placements:
        rows = defaultdict(dict)
        for (u, v), k in _read_counts(reps, names, reads).items():
            rows[u][v] = k * size[v] // len(reads)
        for u in sorted(rows.keys() | mu.support()):
            system.add_eq(rows[u], mu[u])
    return system


def _read_counts(reps, keys, reads):
    """Counter of (word, key) over every read of every representative."""
    return Counter(itertools.chain.from_iterable(
        zip(map(_reader(idx), reps), keys) for idx in reads))


def _reader(idx):
    """A getter reading the positions idx of a configuration as a tuple.
    A bare itemgetter of one position returns the symbol, not a 1-tuple."""
    if len(idx) == 1:
        i, = idx
        return lambda cfg: (cfg[i],)
    return itemgetter(*idx)


# ---------------------------------------------------------------------------
# window extension polytopes


@dataclass
class ExtensionPolytope:
    """All stationary measures on window W extending the base marginally."""

    window: Domain
    base: Measure
    words: list
    system: LinearSystem

    @cached_property
    def symmetries(self):
        """The group G of the base on the window (symmetry.stabiliser),
        the identity first."""
        return stabiliser(self.base, self.window)

    def solve(self, pivot_limit=DEFAULT_PIVOT_LIMIT):
        """A point of the polytope, or the verdict that it is empty.

        With a nontrivial G, the LP solved is the quotient by G
        (symmetry.solve_quotient): one variable per G-orbit of words.
        Each element of G permutes the variables and maps every row onto
        a row up to a nonzero factor, so it maps the polytope onto
        itself, and the average of any point over G is a point constant
        on the orbits.  The polytope is thus empty exactly when the
        quotient is: an infeasible quotient is a refutation once every
        element is checked against the full rows, and a feasible one
        lifts to a point that is checked exactly against the full
        system.  The pivot count is the quotient's.  With a trivial G,
        the full system is solved.

        vertices() stays on the full system: a vertex of the quotient
        lifts to an invariant point, which is in general no vertex of
        the polytope, and most vertices are not invariant.
        """
        if len(self.symmetries) > 1:
            return solve_quotient(self.system, self.base.alphabet,
                                  self.symmetries, pivot_limit)
        return solve_feasibility(self.system, pivot_limit=pivot_limit)

    def vertices(self, max_count=50, seed=0):
        """Up to max_count distinct vertices of the polytope, as measures
        on the window, found by lp.enumerate_vertices with this seed."""
        return [self.to_measure(assignment) for assignment
                in enumerate_vertices(self.system, max_count, seed)]

    def to_measure(self, assignment):
        masses = {w: assignment[_var(w)] for w in self.words
                  if assignment[_var(w)] != 0}
        return Measure(self.window, self.base.alphabet, masses)

    def contains(self, measure):
        """Exact membership test for a measure on the window."""
        if measure.domain != self.window:
            raise ValueError("measure lives on a different window")
        assignment = {_var(w): measure[w] for w in self.words}
        return self.system.check(assignment)


def build_window_polytope(mu, W):
    """LP description of S(W): stationary on W, all U-translate marginals mu.

    Stationarity is imposed through the maximal overlaps V = W cap (W-k),
    one marginal equality per nonzero shift k, which is equivalent to the
    definition quantifying over all translated sub-domain pairs.
    """
    U = mu.domain
    if U.dim != W.dim:
        raise ValueError("window dimension mismatch")
    anchors = translates_inside(U, W)
    if not anchors:
        raise ValueError("no translate of the base domain fits the window")
    nwords = mu.alphabet ** len(W)
    if nwords > cell_cap():
        raise CapExceeded(f"window polytope needs {nwords} variables")

    words = list(itertools.product(range(mu.alphabet), repeat=len(W)))
    system = _class_lp(mu, [(w, 1) for w in words], [_var(w) for w in words],
                       [[idx] for idx in _placements(U, W, anchors)],
                       [(left, right) for _, _, left, right in _overlaps(W)])
    return ExtensionPolytope(W, mu, words, system)


# ---------------------------------------------------------------------------
# SFT window and torus searches


class SearchBudget(Exception):
    """Backtracking search exceeded its node budget."""


def _prefix_trie(words, order, alphabet):
    """The words read in `order`, as a flat prefix trie.

    A node is an offset into the returned list; `trie[node + a]` is the
    child reached by symbol a, or 0 when no word continues.  Offset 0 is
    a dead node and offset `alphabet` is the root.  Raises CapExceeded
    before the list would pass cell_cap() entries.
    """
    cap = cell_cap()
    if 2 * alphabet > cap:
        raise CapExceeded(f"pattern-search trie passes {cap} entries")
    trie = [0] * (2 * alphabet)
    for w in words:
        node = alphabet
        for p in order:
            child = trie[node + w[p]]
            if not child:
                child = len(trie)
                if child + alphabet > cap:
                    raise CapExceeded(f"pattern-search trie passes {cap} "
                                      "entries")
                trie.extend([0] * alphabet)
                trie[node + w[p]] = child
            node = child
    return trie


class _PatternSearch:
    """Backtracking filler for translate-constrained symbol assignments.

    Cells are assigned in index order: an index is a search position,
    and the caller chooses the cell it stands for (_StripWalk: slice by
    slice along the walk axis).  Each constraint lists the positions
    one placement of the word domain reads, in word order; a partial
    assignment must keep every constraint's prefix, taken in position
    order, inside the projection of the allowed word set.

    Each placement walks a prefix trie of the word set, built once per
    distinct cell order.  Every (placement, depth) pair owns one slot of
    `node_at`, the trie node its prefix has reached; slot 0 holds the
    root.  Cell i carries the steps (prev_slot, slot, trie) of every
    placement that reads it, in placement then depth order, so assigning
    a symbol costs one trie lookup per step and a dead node prunes.  A
    placement reading one cell twice gets two consecutive steps there.
    A word set holding every word never prunes and adds no steps.
    """

    def __init__(self, alphabet, ncells, constraints, words):
        self.alphabet = alphabet
        self.ncells = ncells
        self.steps = [[] for _ in range(ncells)]
        self.nslots = 1
        if not constraints or len(words) == alphabet ** len(constraints[0]):
            return
        tries = {}
        for placement in constraints:
            # word positions in cell order; ties keep word order
            order = tuple(sorted(range(len(placement)),
                                 key=placement.__getitem__))
            if order not in tries:
                tries[order] = _prefix_trie(words, order, alphabet)
            trie, prev = tries[order], 0
            for p in order:
                self.steps[placement[p]].append((prev, self.nslots, trie))
                prev = self.nslots
                self.nslots += 1

    def run(self, node_cap):
        """The first solution in lexicographic order, or None.  Each
        symbol tried counts as one node, and the count is left in
        `nodes`; raises SearchBudget past node_cap nodes."""
        return next(self.fillings(node_cap), None)

    def fillings(self, node_cap):
        """The solutions in lexicographic order, one at a time; `nodes`
        holds the count so far at each and at the end.  Raises
        SearchBudget past node_cap nodes."""
        n, alphabet, steps = self.ncells, self.alphabet, self.steps
        values = [-1] * n     # -1: no symbol tried yet at this cell
        node_at = [0] * self.nslots
        node_at[0] = alphabet   # the root of every trie
        nodes, i = 0, 0
        while i >= 0:
            if i == n:
                self.nodes = nodes
                yield tuple(values)
                i -= 1
                continue
            a = values[i] + 1
            if a == alphabet:
                values[i] = -1
                i -= 1
                continue
            nodes += 1
            if nodes > node_cap:
                raise SearchBudget("node budget exceeded")
            values[i] = a
            for prev, slot, trie in steps[i]:
                node = trie[node_at[prev] + a]
                if not node:
                    break
                node_at[slot] = node
            else:
                i += 1
        self.nodes = nodes


def _check_every_filling(alphabet, n, node_cap, config_cap):
    """Raise SearchBudget where the pattern search listing all A^n
    fillings of n cells (A = alphabet) would: it reaches filling k
    (0-based, lexicographic) after sum_j (floor(k / A^(n-j)) + 1) nodes,
    j = 1..n, and it stops at k = config_cap when A^n passes config_cap,
    or sooner at node_cap.  No power of A past config_cap's bit length
    is formed."""
    over = (alphabet >= 2 and n > config_cap.bit_length()
            or alphabet ** n > config_cap)
    last = config_cap if over else alphabet ** n - 1
    nodes, power = n, 1
    while power <= last:      # a term with A^(n-j) > last adds its 1
        nodes += last // power
        power *= alphabet
    if nodes > node_cap:
        raise SearchBudget("node budget exceeded")
    if over:
        raise SearchBudget("too many admissible configurations")


def _check_cells(ncells, what):
    if ncells > cell_cap():
        raise CapExceeded(f"{what} has {ncells} cells")


def fill_window(T, W, node_cap=10 ** 7):
    """An admissible configuration of W for the word set T, or None."""
    _check_cells(len(W), "window")
    placements = _placements(T.domain, W, translates_inside(T.domain, W))
    search = _PatternSearch(T.alphabet, len(W), placements, T.words)
    found = search.run(node_cap)
    if found is None:
        return None
    return dict(zip(W.points, found))


def _fitting_windows(U, max_side):
    """The boxes of side 1 to max_side that hold a translate of U: a box
    of side n does exactly when n is at least every extent of U's
    bounding box.  An empty U raises ValueError, as translates_inside
    does, unless max_side < 1."""
    if max_side < 1:
        return []
    if not U.points:
        raise ValueError("empty translate pattern")
    least = max((hi - lo for lo, hi in U.bounding_box()), default=0) + 1
    return [Domain.box(U.dim, n) for n in range(least, max_side + 1)]


@dataclass(frozen=True)
class EmptinessResult:
    """An emptiness verdict.  `window` is the empty window, or else the
    largest window filled: the first window that fits, when the search
    passed its node budget there (the reason names the budget)."""

    status: str        # "empty" or "unknown"
    window: Domain
    reason: str = ""


def sft_emptiness(T, max_side=6, node_cap=10 ** 7):
    """Search the boxes of side 1 to max_side for a window with no
    admissible configuration; a box that admits no translate of the
    word-set domain is skipped, and ValueError is raised if every box is.

    Finding one proves the subshift defined by T is empty; otherwise the
    question stays open ("unknown") at this window schedule.
    """
    last = None
    for W in _fitting_windows(T.domain, max_side):
        try:
            filled = fill_window(T, W, node_cap)
        except SearchBudget as exc:
            return EmptinessResult("unknown", last or W,
                                   f"search budget: {exc}")
        if filled is None:
            return EmptinessResult("empty", W)
        last = W
    if last is None:
        raise ValueError("no window in the schedule admits a translate "
                         "of the word-set domain")
    return EmptinessResult("unknown", last)


def _torus_module(T, periods):
    """The module of the periods, after the checks of every torus
    search: an empty word domain raises ValueError, as it does in the
    window searches (translates_inside), and so does a period vector of
    the wrong dimension; a torus past the cell cap raises CapExceeded."""
    if not T.domain.points:
        raise ValueError("empty word-set domain")
    module = FiniteModule(periods)
    if module.dim != T.domain.dim:
        raise ValueError("period vector dimension mismatch")
    _check_cells(module.size, "torus")
    return module


def _arc(coords, P):
    """(lo, e): the shortest arc lo, ..., lo + e - 1 of Z/P holding every
    coordinate mod P, so e <= P.  It starts just after the widest gap
    between cyclic neighbours (of equal gaps, the last)."""
    rs = sorted({c % P for c in coords})
    gap, lo = max(((r - q) % P or P, r) for q, r in zip(rs[-1:] + rs, rs))
    return lo, P + 1 - gap


class _Codec:
    """Configurations of n cells over A symbols as ints, for every A:
    cell i is the field of w = max(1, bit length of A - 1) bits at bit
    offset shifts[i] = (n - 1 - i) * w, so cell 0 is the most
    significant and int order is the lexicographic order of the tuples.
    """

    def __init__(self, alphabet, ncells):
        self.alphabet, self.ncells = alphabet, ncells
        self.width = w = max(1, (alphabet - 1).bit_length())
        self.shifts = range((ncells - 1) * w, -1, -w)

    def pack(self, cfg):
        return sum(map(lshift, cfg, self.shifts))

    def unpack(self, x):
        mask = (1 << self.width) - 1
        return tuple([x >> s & mask for s in self.shifts])

    def every(self):
        """All A^n configurations, increasing: two halves' fillings joined."""
        A, n, w = self.alphabet, self.ncells, self.width
        parts = [[0]]     # parts[k]: the fillings of k cells
        for _ in range(n - n // 2):
            parts.append([x << w | a for x in parts[-1] for a in range(A)])
        return [h | x for h in [x << n // 2 * w for x in parts[-1]]
                for x in parts[n // 2]]


class _StripWalk:
    """The torus searches for a word set: the admissible fillings as
    closed walks over admissible strips (Lind and Marcus 1995, 2.2: the
    periodic points of a shift of finite type are closed walks in its
    transfer graph), or one pattern search over the whole torus when
    that graph is too large to count.

    A torus placement reads each cell through its residue, so along an
    axis of period P the word domain U may be folded: its coordinates
    there, taken mod P, lie on a shortest arc lo, ..., lo + e - 1 of Z/P
    (_arc), e <= P, and U read at offsets (c - lo) mod P has the same
    torus placements as U.  The walk axis a is the axis of period > 1
    with the least (e - 1) / (P - 1), ties going to the lower axis
    (axis 0 when every period is 1, with e = 1).  Let P be its period,
    e its folded extent, and slice j the m = n / P cells with
    a-coordinate j, in module order of the other axes.  The layout puts
    cell c at c_a * m plus the index of its other coordinates in that
    order: slice-major along a, module order when a = 0.  A strip is e
    slices stacked along a, not wrapped along a and wrapped on the other
    axes.  Its placements are folded U at every residue r of the other
    axes: _reads in the layout, with span 1 along a.

    Claim: a filling with slices x_0, ..., x_(P-1) is admissible if and
    only if each window x_k, ..., x_(k+e-1), indices mod P, is an
    admissible strip.  The torus placement U + t reads slice k + j mod
    P at the cells where the strip placement of residue r (t without
    its a-coordinate) reads slice j, for j = 0..e-1 and k = lo + t_a mod
    P; as t runs over the torus, (k, r) runs over every window and every
    strip placement.

    So the fillings are the closed walks of P steps in the graph whose
    states are the (e-1)-slice tuples and whose edges are the strips,
    the strip y_0, ..., y_(e-1) leading from y_0, ..., y_(e-2) to y_1,
    ..., y_(e-1).  A walk of P steps from y_0, ..., y_(e-2) appends
    y_(e-1), ..., y_(P+e-2), and it is closed when y_(P+j) = y_j for
    j < e - 1.  Every i with i + P <= P + e - 2 has i < e - 1, so the
    closed walk's whole sequence has period P, and its P strips are the
    windows of the filling y_0, ..., y_(P-1).  Conversely a filling's
    windows are a closed walk from its first e - 1 slices, so fillings
    and closed walks correspond one to one.

    For a start s, c_r(v), the number of walks of r steps from v to s,
    is computed in exact ints for each v that s reaches in P - r steps:
    c_0(v) is 1 if v = s, else 0, and c_r(v) is the sum of c_(r-1)(w)
    over the edges v -> w.  A walk takes a step to w with r steps left
    only when c_(r-1)(w) > 0, so no prefix is a dead end.  After P -
    (e - 1) steps the other e - 1 are forced, as they append the start's
    slices, so they are not branched over.  Starts are taken in sorted
    order and each state's edges in order of the slice they append, and
    the walks are listed layer by layer (_walks), so they come in
    lexicographic layout order.

    Each strip search node and each walk prefix costs one node of
    node_cap, as many as a depth-first search over the walks would try;
    `first` keeps one prefix per layer (limit=1), one node per step.
    The graph costs S P E nodes, a bound on the edge terms of counting
    every start, for S states (those that begin a strip) and E strips.
    The strip search stops as soon as the states and strips it has
    listed charge past node_cap; then `fill` is the pattern search over
    all n cells in the walk's layout, wrapped along a too (spans equal
    to the periods), given the nodes the strip search left.  A word set
    holding every word (`full`) prunes nothing: `every` checks its
    budgets by arithmetic (_check_every_filling) and lists the A^n
    fillings at once.
    A filling is packed (`codec`) in module order; shifts[j] holds the
    bit offsets of slice j's m cells, in layout order, so a walk ors in
    each slice where it lies.
    """

    def __init__(self, T, module, node_cap):
        U, A = T.domain, T.alphabet
        periods, n = module.periods, module.size
        arcs = {a: _arc([u[a] for u in U.points], p)
                for a, p in enumerate(periods) if p > 1}
        self.a = a = min(arcs, default=0, key=lambda a: Fraction(
            arcs[a][1] - 1, periods[a] - 1))
        lo, self.e = arcs.get(a, (0, 1))
        self.P = P = periods[a]
        self.m = m = n // P
        self.node_cap = node_cap
        self.codec = _Codec(A, n)
        # U folded along a; in the layout, the other axes in module order
        folded = [u[:a] + ((u[a] - lo) % P,) + u[a + 1:] for u in U.points]
        spans = periods[:a] + (1,) + periods[a + 1:]    # one slice along a
        strides = _strides(spans)
        strides[a] = m
        s = _strides(periods)[a]
        self.shifts = [[self.codec.shifts[r // s * P * s + j * s + r % s]
                        for r in range(m)] for j in range(P)]
        self.full = len(T.words) == A ** len(U)
        self.fill, self.nodes = None, 0
        if not self.full:
            search = _PatternSearch(A, self.e * m,
                                    _reads(folded, periods, strides, spans),
                                    T.words)
            k = (self.e - 1) * m     # symbols in a state
            self.ids = ids = {}      # state -> number, in sorted order
            strips = []
            for strip in search.fillings(node_cap):
                ids.setdefault(strip[:k], len(ids))
                strips.append(strip)
                # the states and strips so far already charge this much
                if search.nodes + len(ids) * P * len(strips) > node_cap:
                    break
            else:
                self.nodes = search.nodes + len(ids) * P * len(strips)
                # per state: (appended slice, next state)
                self.edges = edges = [[] for _ in ids]
                for strip in strips:
                    w = ids.get(strip[m:])
                    if w is not None:
                        edges[ids[strip[:k]]].append((strip[k:], w))
                return
            self.nodes = search.nodes
        self.fill = _PatternSearch(A, n, _reads(folded, periods, strides,
                                                periods), T.words)

    def _pack(self, values, j=0):
        """Slices j, j + 1, ... in layout order, packed where they lie."""
        return sum(map(lshift, values, itertools.chain(*self.shifts[j:])))

    def first(self):
        """The first admissible filling, in module order, or None: the
        first closed walk, starts taken lazily, or else the fill's first."""
        if self.fill:
            found = self.fill.run(self.node_cap - self.nodes)
            return found and self.codec.unpack(self._pack(found))
        start = next(self._closed_starts(), None)
        if start is None:
            return None
        self._charge(self.e - 1)     # the forced steps
        found, = self._walks(*start, limit=1)
        return self.codec.unpack(found)

    def every(self, config_cap):
        """Every admissible filling, packed in module order, sorted: the
        closed walks are counted before any is listed, the fill's fillings
        are listed before any is packed.  Past config_cap: SearchBudget."""
        if self.full:
            _check_every_filling(self.codec.alphabet, self.codec.ncells,
                                 self.node_cap, config_cap)
            return self.codec.every()
        if self.fill:
            found = list(itertools.islice(self.fill.fillings(
                self.node_cap - self.nodes), config_cap + 1))
            if len(found) > config_cap:
                raise SearchBudget("too many admissible configurations")
            return sorted(map(self._pack, found))
        starts = list(self._closed_starts())
        total = sum(live[0][s] for _, s, live in starts)
        if total > config_cap:
            raise SearchBudget("too many admissible configurations")
        self._charge((self.e - 1) * total)     # the forced steps
        return sorted(f for start in starts for f in self._walks(*start))

    def _charge(self, nodes):
        self.nodes += nodes
        if self.nodes > self.node_cap:
            raise SearchBudget("node budget exceeded")

    def _closed_starts(self):
        """(start, its number s, live) for each start in sorted order that
        begins a closed walk; live[d] maps each state v reached d steps
        from s to c_(P-d)(v), where that is > 0."""
        edges = self.edges
        for x, s in self.ids.items():
            reach = [[s]]        # reach[d]: the states d steps from s
            for _ in range(self.P):
                reach.append(list(dict.fromkeys(
                    w for v in reach[-1] for _, w in edges[v])))
            live = [{s: 1}]
            for layer in reach[-2::-1]:
                after = live[-1]
                live.append({v: c for v in layer if (c := sum(
                    after.get(w, 0) for _, w in edges[v]))})
            live.reverse()
            if s in live[0]:
                yield x, s, live

    def _walks(self, x, s, live, limit=None):
        """The closed walks from start x, numbered s, as packed fillings
        in layout order, or their first `limit`: layer by layer, each
        prefix (packed filling, state) extended by its live steps in
        order, at most `limit` prefixes kept per layer, one node charged
        per prefix (the caller charges the forced steps)."""
        e = self.e
        layer = [(self._pack(x), s)]
        for d in range(self.P - (e - 1)):     # the steps that choose a slice
            after = live[d + 1]
            # each state's live steps, its slice packed where it lies
            steps = {v: [(self._pack(y, e - 1 + d), w) for y, w
                         in self.edges[v] if w in after]
                     for v in {v for _, v in layer}}
            layer = [(f | y, w) for f, v in layer for y, w in steps[v]]
            if limit:
                del layer[limit:]
            self._charge(len(layer))
        return [f for f, _ in layer]


@dataclass(frozen=True)
class PeriodicSearchResult:
    status: str     # "found", "none", or "aborted"
    config: dict    # cell -> symbol for the found configuration
    reason: str = ""


def periodic_config_search(T, periods, node_cap=10 ** 7):
    """Search for a fully periodic admissible configuration.

    The torus wraps: every translate window is read modulo the periods,
    so any positive period vector is allowed, even shorter than the
    word-set domain.  The configuration found is the first closed walk
    over the strips of _StripWalk, starts taken in sorted order and
    counted only when reached: the least admissible filling in the
    walk's layout.  No config_cap applies.
    """
    module = _torus_module(T, periods)
    try:
        found = _StripWalk(T, module, node_cap).first()
    except SearchBudget as exc:
        return PeriodicSearchResult("aborted", {}, str(exc))
    if found is None:
        return PeriodicSearchResult("none", {})
    return PeriodicSearchResult("found", dict(zip(module.elements(), found)))


def enumerate_periodic_configs(T, periods, node_cap=10 ** 7,
                               config_cap=10 ** 6):
    """All admissible torus configurations, as tuples over the cells in
    module.elements() order, sorted lexicographically: the closed walks
    over the admissible strips (_StripWalk), or all A^n fillings for a
    word set holding every word, counted before any is listed.
    SearchBudget is raised when the count passes config_cap or the work
    passes node_cap nodes.
    """
    walk = _StripWalk(T, _torus_module(T, periods), node_cap)
    return list(map(walk.codec.unpack, walk.every(config_cap)))


# ---------------------------------------------------------------------------
# periodic (torus) extensions


@dataclass
class PeriodicExtensionResult:
    """A torus verdict.  A feasible solution is `orbits`: (least configuration,
    orbit size, mass of each member) for each orbit of nonzero weight, with
    configurations as tuples over the cells in module.elements() order."""

    status: str                 # feasible / infeasible / aborted
    module: FiniteModule
    alphabet: int
    orbits: list = field(default_factory=list)
    envelope_warning: str = ""
    reason: str = ""            # why an aborted run stopped
    config_count: int = 0

    @property
    def torus_measure(self):
        """The dense measure on every orbit member, None unless feasible."""
        if self.status != FEASIBLE:
            return None
        codec = _Codec(self.alphabet, self.module.size)
        steps = _unit_steps(self.module.periods, codec.width)
        masses = {codec.unpack(t): mass for cfg, _, mass in self.orbits
                  for t in _translates(codec.pack(cfg), steps)}
        cells = Domain(self.module.dim, self.module.elements())
        return Measure(cells, self.alphabet, masses)


def _strides(periods):
    """The stride of each axis in module order, first axis outermost."""
    return [math.prod(periods[a + 1:]) for a in range(len(periods))]


def _unit_steps(periods, width):
    """One (r, keep, l, wrap) per axis of period > 1: a configuration t
    packed in fields of `width` bits (_Codec) steps by one cell along
    that axis to t >> r & keep | t << l & wrap.  Along an axis of stride
    s each block of p * s cells rolls by s: cell i reads cell i - s, or
    on the block's first s cells (`wrap`) cell i + (p - 1) s.  The masks
    are read from bit strings; no |cells| x |cells| table is built."""
    n = math.prod(periods)
    steps = []
    for p, stride in zip(periods, _strides(periods)):
        if p > 1:
            r = stride * width
            wrap = int(("1" * r + "0" * (p - 1) * r) * (n // (p * stride)), 2)
            steps.append((r, (1 << n * width) - 1 ^ wrap, (p - 1) * r, wrap))
    return steps


def _translates(cfg, steps):
    """The distinct translates of a packed configuration, in order of the
    first cell g (in module.elements() order) that gives each: axis by
    axis, each translate so far is stepped until it comes back."""
    out = [cfg]
    for r, keep, l, wrap in steps:
        seen = {}
        for t in out:
            while t not in seen:
                seen[t] = None
                t = t >> r & keep | t << l & wrap
        out = list(seen)
    return out


def _orbit_partition(configs, module, width):
    """(least member, size) of each translation orbit of the packed
    configurations, in order of the orbit's first configuration.

    An orbit holds every translate of its configurations, whether or not
    that translate is in `configs` (compute_H counts such translates).
    """
    steps = _unit_steps(module.periods, width)
    orbits = []
    done = set()
    for cfg in configs:
        if cfg not in done:
            orbit = _translates(cfg, steps)
            orbits.append((min(orbit), len(orbit)))
            done.update(orbit)
    return orbits


def _reads(points, periods, strides, spans):
    """The cells read by each placement points + t on a torus, t_a in
    range(spans[a]), in product order: u + t is cell sum_a ((u_a + t_a)
    mod p_a) * strides[a].  Module strides and spans equal to the periods
    read the points at every cell, in module.elements() order."""
    return list(zip(*([sum(c) for c in itertools.product(*(
        [(x + t) % p * s for t in range(k)]
        for x, p, s, k in zip(u, periods, strides, spans)))] for u in points)))


def periodic_extension(mu, periods, node_cap=10 ** 7, config_cap=10 ** 6,
                       pivot_limit=DEFAULT_PIVOT_LIMIT):
    """Decide existence of an invariant torus measure extending mu.

    Exact in both directions: any invariant measure on the torus whose
    base marginal is mu must be supported on admissible configurations
    and constant on translation orbits, so the reduced LP loses nothing.
    """
    res = is_locally_stationary(mu)
    if not res.ok:
        raise ValueError("periodic extension requires a locally stationary "
                         f"base; witness {res.witness}")
    T = support_word_set(mu)
    module = _torus_module(T, periods)
    if not module.injective_on(mu.domain):
        raise ValueError("quotient map is not injective on the base domain")
    env = verify_envelope(Envelope(module, mu.domain), max_subset_size=3)
    warning = ""
    if env.status != "pass":
        warning = (f"envelope check {env.status}"
                   + (f" (witness {env.witness})" if env.witness else ""))

    try:
        walk = _StripWalk(T, module, node_cap)
        configs = walk.every(config_cap)
    except SearchBudget as exc:
        return PeriodicExtensionResult(ABORTED, module, mu.alphabet, [],
                                       warning, reason=str(exc))
    orbits = [(walk.codec.unpack(least), size) for least, size
              in _orbit_partition(configs, module, walk.codec.width)]
    names = [f"y{o}" for o in range(len(orbits))]
    system = _class_lp(mu, orbits, names, [_reads(
        mu.domain.points, module.periods, _strides(module.periods),
        module.periods)])

    warm = {v: Fraction(1, len(configs)) for v in names} if configs else None
    sol = solve_feasibility(system, pivot_limit=pivot_limit, warm_start=warm)
    result = PeriodicExtensionResult(
        sol.status, module, mu.alphabet, envelope_warning=warning,
        reason="pivot limit exceeded" if sol.status == ABORTED else "",
        config_count=len(configs))
    if sol.status != FEASIBLE:
        return result

    for v, (least, size) in zip(names, orbits):
        y = sol.assignment[v]
        if y != 0:
            result.orbits.append((least, size, y))
    # exact re-check of the defining marginal property
    if pullback_periodic(result, mu.domain).masses != mu.masses:
        raise AssertionError("torus solution fails exact marginal re-check")
    return result


def pullback_periodic(result, W):
    """A feasible torus solution read on a window W of the lattice: the
    translates of an orbit's least configuration by every cell list each
    member |cells| / size times, so each carries mass * size / |cells|."""
    module = result.module
    # int numerators over one denominator: lcm(mass denominators) * |cells|
    lcm = math.lcm(*(mass.denominator for _, _, mass in result.orbits))
    least = [cfg for cfg, _, _ in result.orbits]
    shares = [mass.numerator * (lcm // mass.denominator) * size
              for _, size, mass in result.orbits]
    out = defaultdict(int)
    # (word, share) pairs counted over every read of every orbit at once
    reads = _reads(W.points, module.periods, _strides(module.periods),
                   module.periods)
    for (u, share), k in _read_counts(least, shares, reads).items():
        out[u] += share * k
    den = lcm * module.size
    return Measure(W, result.alphabet,
                   {w: Fraction(n, den) for w, n in out.items()})


def compute_H(module, U, alphabet):
    """Number of distinct torus characters in the translate closure.

    A character of the symbol torus is an exponent word over the cells
    in module.elements() order; those supported on phi(U) are the words
    with exponents in Z/alphabet at the images of U and 0 elsewhere.
    The count covers all their translates under the module action (the
    trivial character included).
    """
    codec = _Codec(alphabet, module.size)
    origin, = _reads(U.points, module.periods, _strides(module.periods),
                     (1,) * module.dim)
    shifts = sorted({codec.shifts[i] for i in origin})
    words = [sum(map(lshift, exps, shifts)) for exps
             in itertools.product(range(alphabet), repeat=len(shifts))]
    return sum(n for _, n in _orbit_partition(words, module, codec.width))


def epsilon_bound(result, U):
    """The stability radius min-mass / H for a fully supported torus measure."""
    A, module = result.alphabet, result.module
    if sum(size for _, size, _ in result.orbits) != A ** module.size:
        raise ValueError("torus measure must have full support")
    return min(m for _, _, m in result.orbits) / compute_H(module, U, A)


# ---------------------------------------------------------------------------
# refutation pipeline


@dataclass
class RefutationReport:
    verdict: str               # "refuted" or "unknown"
    method: str = ""           # "stationarity", "entropy-chain", "tiling"
                               # or "lp"
    window: Domain = None
    detail: dict = field(default_factory=dict)

    def to_json_dict(self):
        return {
            "verdict": self.verdict,
            "method": self.method,
            "window": ([list(p) for p in self.window.points]
                       if self.window is not None else None),
            "detail": {k: str(v) for k, v in self.detail.items()},
        }


def refute_nonextendible(mu, max_window=4, node_cap=10 ** 7,
                         pivot_limit=DEFAULT_PIVOT_LIMIT):
    """Attempt to prove that mu admits no stationary extension.

    Tries, in order: local stationarity (a failing overlap is the
    witness), entropy-chain contradictions, emptiness of the subshift
    defined by the support, and exact LP infeasibility of the window
    extension polytopes over the window schedule.  Any single success is
    a proof of non-extendibility; exhausting the schedule (the boxes of
    side 1 to max_window) is not, so the fallback verdict is "unknown".
    A pattern search, window polytope or simplex tableau that passes the
    cell cap is recorded in the detail and skipped.
    """
    local = is_locally_stationary(mu)
    if not local.ok:
        return RefutationReport("refuted", "stationarity", mu.domain,
                                {"witness": local.witness})

    D = mu.domain.dim
    windows = _fitting_windows(mu.domain, max_window)
    detail = {}

    # the largest window that fits, if any, has side max_window
    chain = _entropy_chain(mu, max(max_window - 1, 1) if windows else 1)
    if chain.verdict == "refuted":
        box = Domain(D, chain.path + mu.domain.points).bounding_box()
        W = Domain.box(D, tuple(hi - lo + 1 for lo, hi in box),
                       origin=tuple(lo for lo, _ in box))
        return RefutationReport("refuted", "entropy-chain", W,
                                {"pair": chain.pair, "chain": chain.path})

    # with no scheduled window the tiling condition says nothing
    if windows:
        try:
            empt = sft_emptiness(support_word_set(mu), max_window, node_cap)
        except CapExceeded as exc:
            detail["tiling"] = str(exc)
        else:
            if empt.status == "empty":
                return RefutationReport("refuted", "tiling", empt.window)
            if empt.reason:
                detail["tiling"] = empt.reason

    last = None
    for W in windows:
        try:
            polytope = build_window_polytope(mu, W)
            res = polytope.solve(pivot_limit=pivot_limit)
        except CapExceeded as exc:
            detail[f"lp {W.bounding_box()}"] = str(exc)
            continue
        if res.status == INFEASIBLE:
            return RefutationReport(
                "refuted", "lp", W,
                {"lp_digest": polytope.system.digest(), "pivots": res.pivots,
                 "symmetries": len(polytope.symmetries)})
        if res.status == ABORTED:
            detail[f"lp {W.bounding_box()}"] = "pivot limit exceeded"
            continue
        last = W
    if last is not None:
        detail["feasible_up_to"] = last.bounding_box()
    return RefutationReport("unknown", "", last, detail)
