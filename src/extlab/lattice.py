"""Finite subsets of Z^D, finite quotient modules, and envelopes.

Lattice points are plain tuples of ints.  A Domain is a canonicalized
finite subset of Z^D; a FiniteModule is a product of cyclic groups
Z/P_1 x ... x Z/P_D together with the coordinatewise reduction map
from Z^D.  Envelopes record when the reduction map is faithful enough
(injectivity on a window, liftability of overlaps) for periodization
arguments to go through.
"""

import itertools
import math
import operator
import os
from dataclasses import dataclass


DEFAULT_CELL_CAP = 10 ** 6


def cell_cap():
    """Size guard for dense enumerations, overridable via EXTLAB_CAP_CELLS."""
    raw = os.environ.get("EXTLAB_CAP_CELLS")
    if raw is None:
        return DEFAULT_CELL_CAP
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"EXTLAB_CAP_CELLS must be an integer, got {raw!r}")


class CapExceeded(Exception):
    """A dense enumeration would exceed the configured cell cap."""


def add(p, q):
    return tuple(map(operator.add, p, q))


def sub(p, q):
    return tuple(map(operator.sub, p, q))


@dataclass(frozen=True)
class Domain:
    """A finite subset of Z^dim with a canonical (lexicographic) point order."""

    dim: int
    points: tuple

    def __init__(self, dim, points):
        pts = sorted(set(tuple(int(x) for x in p) for p in points))
        for p in pts:
            if len(p) != dim:
                raise ValueError(f"point {p} does not have dimension {dim}")
        object.__setattr__(self, "dim", int(dim))
        object.__setattr__(self, "points", tuple(pts))
        # point -> position in `points`; not a dataclass field, so ==,
        # hash and repr still read dim and points only
        object.__setattr__(self, "_position",
                           {p: i for i, p in enumerate(pts)})

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __contains__(self, p):
        return tuple(p) in self._position

    @property
    def point_set(self):
        """The points as a set-like view."""
        return self._position.keys()

    def index(self, p):
        """Position of p in `points`; ValueError if p is not a point."""
        try:
            return self._position[tuple(p)]
        except KeyError:
            raise ValueError(f"{tuple(p)} is not in the domain") from None

    def shift(self, k):
        """Translate every point by the vector k."""
        k = tuple(k)
        if len(k) != self.dim:
            raise ValueError("shift vector has wrong dimension")
        return Domain(self.dim, [add(p, k) for p in self.points])

    def issubset(self, other):
        return self.point_set <= other.point_set

    def union(self, other):
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return Domain(self.dim, self.points + other.points)

    def bounding_box(self):
        """Pairs (lo_i, hi_i) of coordinate extremes, inclusive."""
        if not self.points:
            raise ValueError("empty domain has no bounding box")
        lo = [min(p[i] for p in self.points) for i in range(self.dim)]
        hi = [max(p[i] for p in self.points) for i in range(self.dim)]
        return list(zip(lo, hi))

    @classmethod
    def box(cls, dim, sides, origin=None):
        """The box prod_i [origin_i .. origin_i + sides_i - 1]."""
        if isinstance(sides, int):
            sides = (sides,) * dim
        if origin is None:
            origin = (0,) * dim
        ranges = [range(o, o + s) for o, s in zip(origin, sides)]
        return cls(dim, itertools.product(*ranges))

    @classmethod
    def interval(cls, lo, hi):
        """The 1-D interval [lo .. hi], inclusive."""
        return cls(1, [(i,) for i in range(lo, hi + 1)])


def translates_inside(V, W):
    """All vectors k with V + k contained in W."""
    if V.dim != W.dim:
        raise ValueError("dimension mismatch")
    if not V.points:
        raise ValueError("empty translate pattern")
    v0 = V.points[0]
    wset = W.point_set
    out = []
    for w in W.points:
        k = sub(w, v0)
        if all(add(p, k) in wset for p in V.points):
            out.append(k)
    return out


def _placements(U, cells, shifts):
    """Cell indices read by each placement U + t, t in shifts, in word
    order, where `cells` is the window Domain holding every placement.
    A torus reads its placements by arithmetic instead (engine._reads).
    """
    return [[cells.index(add(u, t)) for u in U.points] for t in shifts]


def _overlaps(domain):
    """(V, k, left, right) for each nonzero shift k = q - p between domain
    points, one per +/- pair, in increasing order.

    V = domain cap (domain - k) is the tuple of points p with p + k in
    the domain, in canonical order, and is never empty (it holds p).
    `left` and `right` are the positions in domain.points of V and of
    V + k, in V's order, so a word reads its overlap marginals there.
    """
    zero = (0,) * domain.dim
    shifts = {sub(q, p) for p in domain.points for q in domain.points}
    for k in sorted(d for d in shifts if d > zero):
        V, left, right = [], [], []
        for i, p in enumerate(domain.points):
            q = add(p, k)
            if q in domain:
                V.append(p)
                left.append(i)
                right.append(domain.index(q))
        yield tuple(V), k, tuple(left), tuple(right)


@dataclass(frozen=True)
class FiniteModule:
    """The quotient Z^D -> Z/P_1 x ... x Z/P_D, coordinatewise reduction."""

    periods: tuple

    def __init__(self, periods):
        periods = tuple(int(p) for p in periods)
        if not periods or any(p < 1 for p in periods):
            raise ValueError(f"periods must be positive, got {periods}")
        object.__setattr__(self, "periods", periods)

    @property
    def dim(self):
        return len(self.periods)

    @property
    def size(self):
        return math.prod(self.periods)

    def quotient(self, p):
        """Reduce a lattice point coordinatewise modulo the periods."""
        if len(p) != self.dim:
            raise ValueError("point has wrong dimension")
        return tuple(map(operator.mod, p, self.periods))

    def elements(self):
        """All residues, in lexicographic order."""
        return list(itertools.product(*(range(m) for m in self.periods)))

    def injective_on(self, U):
        """Whether the quotient map separates the points of U."""
        images = set(self.quotient(p) for p in U.points)
        return len(images) == len(U.points)


@dataclass(frozen=True)
class Envelope:
    """A finite module proposed as a faithful period structure for a window U.

    The first condition asks that reduction be injective on U.  The
    second asks that whenever a residue shift g~ moves the image of a
    subset V of U inside the image of U, some true lattice shift g with
    g mod P = g~ realizes it, i.e. g + V is contained in U.
    """

    module: FiniteModule
    window: Domain


def envelope_for(U):
    """Doubled-bounding-box envelope: periods 2*N_i for box sides N_i."""
    box = U.bounding_box()
    periods = tuple(2 * (hi - lo + 1) for lo, hi in box)
    return Envelope(FiniteModule(periods), U)


@dataclass(frozen=True)
class EnvelopeCheck:
    status: str          # "pass", "fail", or "partial"
    condition: str       # "" on pass/partial, else "injective" or "liftable"
    witness: tuple       # () on pass/partial, else (V points, g_tilde)


def verify_envelope(env, max_subset_size=None):
    """Check the two envelope conditions, exhaustively up to a subset cap.

    If max_subset_size is given and smaller than |U|, only subsets V of
    that size or less are tried and a clean run reports "partial".
    Any violation found reports "fail" with a witness.

    The liftability search rests on one lemma, read off the point pairs
    (u, v) of U.  For a lattice vector g let L(g) be the sites v with
    v + g in U, and for a residue g~ let S(g~) be the sites v with
    phi(v) + g~ in phi(U).  Then v is in L(g) exactly when g = u - v for
    some u in U, and v is in S(g~) exactly when g~ = phi(u) - phi(v) =
    (u - v) mod P for some u.  So the only lifts g of g~ with a nonempty
    L(g) are the differences u - v with u - v == g~ mod P, and S(g~) is
    the union of their L(g).  A subset V fails at g~ exactly when V lies
    in S(g~) but in no L(g), so g~ can fail only if S(g~) is not itself
    one of its L(g).  S and every L are int bitmasks over U.points,
    built from one pass over the pairs.  When no residue is "risky" the
    result needs no subset enumeration.  Otherwise subsets are tried in
    the order size, then itertools.combinations order over U.points,
    then risky residues in mod.elements() order, and the first failing
    (V, g~) is the witness: the same one an enumeration of every subset
    against every residue in that order finds first.
    """
    mod = env.module
    U = env.window
    if mod.dim != U.dim:
        raise ValueError("module and window dimensions differ")
    if not mod.injective_on(U):
        return EnvelopeCheck("fail", "injective", ())

    n = len(U.points)
    cap = n if max_subset_size is None else min(max_subset_size, n)
    L = {}
    for u in U.points:
        for i, v in enumerate(U.points):
            g = sub(u, v)
            L[g] = L.get(g, 0) | 1 << i
    lifted = {}         # g~ -> [L(g) for each difference g == g~ mod P]
    for g, bits in L.items():
        lifted.setdefault(mod.quotient(g), []).append(bits)
    risky = []          # (g_tilde, S, [L(g) for each lift g])
    for g_tilde in sorted(lifted):
        S = 0
        for bits in lifted[g_tilde]:
            S |= bits
        if S not in lifted[g_tilde]:
            risky.append((g_tilde, S, lifted[g_tilde]))

    # a failing V lies inside some risky S
    reach = 0
    for _, S, _ in risky:
        reach |= S
    sites = [i for i in range(n) if reach >> i & 1]
    for size in range(1, cap + 1):
        for V in itertools.combinations(sites, size):
            bits = sum(1 << i for i in V)
            for g_tilde, S, lifted in risky:
                if not bits & ~S and all(bits & ~L for L in lifted):
                    return EnvelopeCheck(
                        "fail", "liftable",
                        (tuple(U.points[i] for i in V), g_tilde))
    status = "pass" if cap == n else "partial"
    return EnvelopeCheck(status, "", ())
