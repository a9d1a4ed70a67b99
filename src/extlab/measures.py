"""Exact rational measures on finite windows of Z^D.

A measure assigns a Fraction mass to each word over a finite Domain;
words are tuples of symbols aligned with the domain's canonical point
order and zero-mass words are simply omitted.  Everything downstream
(marginals, stationarity checks, linear programs) stays in exact
arithmetic; entropy is the only float-valued quantity.
"""

import itertools
import math
import re
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

from .lattice import Domain, CapExceeded, cell_cap, sub, add, _overlaps


def word_key(word):
    """The JSON key of a word (or lattice point): comma-joined integers."""
    return ",".join(map(str, word))


def parse_word_key(key):
    """Inverse of word_key; ValueError on anything else."""
    if not isinstance(key, str):
        raise ValueError(f"word key {key!r} is not a string")
    word = tuple(int(s) for s in key.split(",")) if key else ()
    if word_key(word) != key:
        raise ValueError(f"malformed word key {key!r}")
    return word


# what str(Fraction) emits: an integer, or p/q with q > 0
_MASS = re.compile(r"-?[0-9]+(/[0-9]*[1-9][0-9]*)?")


def _parse_mass(val):
    if not (isinstance(val, str) and _MASS.fullmatch(val)):
        raise ValueError(f"mass {val!r} is not a \"p/q\" string, q > 0")
    return Fraction(val)


def _header_to_json(domain, alphabet):
    return {"dim": domain.dim, "alphabet": alphabet,
            "domain": [list(p) for p in domain.points]}


def _field(data, name):
    """data[name], or a ValueError that names the missing field."""
    if name not in data:
        raise ValueError(f"missing field {name!r}")
    return data[name]


def _header_from_json(data):
    """(domain, alphabet) from a JSON object, types checked."""
    if not isinstance(data, dict):
        raise ValueError("expected a JSON object")
    for name in ("dim", "alphabet"):
        value = _field(data, name)
        if type(value) is not int or value < 1:
            raise ValueError(f"{name} must be an integer >= 1, "
                             f"got {value!r}")
    points = _integer_points(_field(data, "domain"), "domain")
    return Domain(data["dim"], points), data["alphabet"]


def _integer_points(points, what):
    """points, checked to be a JSON list of integer coordinate lists
    (no floats, booleans or strings, which Domain would coerce)."""
    if not (isinstance(points, list) and all(
            isinstance(p, list) and all(type(x) is int for x in p)
            for p in points)):
        raise ValueError(f"{what} must be a list of integer coordinate lists")
    return points


def _check_symbols(word, alphabet, npoints):
    if len(word) != npoints:
        raise ValueError(f"word {word} has wrong length (expected {npoints})")
    for s in word:
        if not (0 <= s < alphabet):
            raise ValueError(f"symbol {s} outside alphabet of size {alphabet}")


class SignedMeasure:
    """A finitely supported rational signed measure on words over a domain."""

    def __init__(self, domain, alphabet, masses):
        self.domain = domain
        self.alphabet = int(alphabet)
        n = len(domain)
        clean = {}
        for word, mass in masses.items():
            word = tuple(int(s) for s in word)
            _check_symbols(word, self.alphabet, n)
            if not isinstance(mass, Fraction):
                mass = Fraction(mass)
            if mass:
                clean[word] = mass
        self.masses = clean
        self._validate()

    def _validate(self):
        pass

    def __getitem__(self, word):
        return self.masses.get(tuple(word), Fraction(0))

    def support(self):
        return set(self.masses)

    def total_mass(self):
        return sum(self.masses.values(), Fraction(0))

    def word_count(self):
        """|A|^|domain|, the number of possible words."""
        return self.alphabet ** len(self.domain)

    def shift(self, k):
        """The same masses read on the translated domain."""
        shifted = self.domain.shift(k)
        # lexicographic order is translation invariant, so words carry over
        return type(self)(shifted, self.alphabet, dict(self.masses))

    def marginal(self, V):
        """Project onto a sub-domain V by summing over the other sites."""
        if not V.issubset(self.domain):
            raise ValueError("marginal target is not a sub-domain")
        idx = [self.domain.index(p) for p in V.points]
        out = defaultdict(Fraction)
        for word, mass in self.masses.items():
            out[tuple(word[i] for i in idx)] += mass
        return type(self)(V, self.alphabet, out)

    def to_json_dict(self):
        return {**_header_to_json(self.domain, self.alphabet),
                "masses": {word_key(w): str(m)
                           for w, m in sorted(self.masses.items())}}

    @classmethod
    def from_json_dict(cls, data):
        domain, alphabet = _header_from_json(data)
        masses = _field(data, "masses")
        if not isinstance(masses, dict):
            raise ValueError("masses must be a JSON object")
        return cls(domain, alphabet, {parse_word_key(key): _parse_mass(val)
                                      for key, val in masses.items()})


class Measure(SignedMeasure):
    """A probability measure: nonnegative masses summing to one."""

    def _validate(self):
        # int numerators over one common denominator, as in
        # is_locally_stationary
        den = math.lcm(*(m.denominator for m in self.masses.values()))
        total = 0
        for word, mass in self.masses.items():
            if mass.numerator < 0:
                raise ValueError(f"negative mass {mass} at word {word}")
            total += mass.numerator * (den // mass.denominator)
        if total != den:
            raise ValueError(f"masses sum to {Fraction(total, den)}, "
                             "expected 1")

    @classmethod
    def uniform(cls, domain, alphabet):
        count = alphabet ** len(domain)
        if count > cell_cap():
            raise CapExceeded(f"uniform measure needs {count} words")
        mass = Fraction(1, count)
        words = itertools.product(range(alphabet), repeat=len(domain))
        return cls(domain, alphabet, {w: mass for w in words})

    @classmethod
    def product_measure(cls, rho, domain):
        """I.i.d. measure with single-site law rho (list of Fractions)."""
        rho = [Fraction(r) for r in rho]
        if sum(rho) != 1 or any(r < 0 for r in rho):
            raise ValueError("rho must be a probability vector")
        support = [a for a, r in enumerate(rho) if r > 0]
        masses = {}
        for word in itertools.product(support, repeat=len(domain)):
            mass = Fraction(1)
            for s in word:
                mass *= rho[s]
            masses[word] = mass
        return cls(domain, len(rho), masses)

    @classmethod
    def point_mass(cls, domain, alphabet, word):
        return cls(domain, alphabet, {tuple(word): Fraction(1)})


def tv_distance(mu, nu):
    """Total variation distance, exact."""
    if mu.domain != nu.domain or mu.alphabet != nu.alphabet:
        raise ValueError("measures live on different spaces")
    words = set(mu.masses) | set(nu.masses)
    return sum((abs(mu[w] - nu[w]) for w in words), Fraction(0)) / 2


def convex_combine(t, mu, nu):
    """(1-t)*mu + t*nu, exact."""
    t = Fraction(t)
    if not 0 <= t <= 1:
        raise ValueError("t must lie in [0, 1]")
    if mu.domain != nu.domain or mu.alphabet != nu.alphabet:
        raise ValueError("measures live on different spaces")
    out = defaultdict(Fraction)
    for w, m in mu.masses.items():
        out[w] += (1 - t) * m
    for w, m in nu.masses.items():
        out[w] += t * m
    return Measure(mu.domain, mu.alphabet, out)


@dataclass(frozen=True)
class StationarityResult:
    ok: bool
    witness: tuple  # () if ok, else (V points, word, shift k)


def is_locally_stationary(mu):
    """Check marginal consistency on all maximal self-overlaps of the domain.

    For each nonzero shift k the overlap V = U cap (U - k) satisfies both
    V <= U and V + k <= U, and agreement of the two induced marginals for
    every such k is equivalent to agreement for all translated sub-domain
    pairs inside U.  Each word adds its mass to its reading at V and
    subtracts it from its reading at V + k, as int numerators over one
    common denominator; the witness is the first word, in sorted order,
    left with a nonzero sum.
    """
    den = math.lcm(*(m.denominator for m in mu.masses.values()))
    ints = [(word, m.numerator * (den // m.denominator))
            for word, m in mu.masses.items()]
    for V, k, left, right in _overlaps(mu.domain):
        diff = defaultdict(int)
        for word, n in ints:
            diff[tuple(word[i] for i in left)] += n
            diff[tuple(word[i] for i in right)] -= n
        for b in sorted(diff):
            if diff[b]:
                return StationarityResult(False, (V, b, k))
    return StationarityResult(True, ())


def finite_window_entropy(mu):
    """Shannon entropy of the word distribution, in bits (float)."""
    h = 0.0
    for mass in mu.masses.values():
        p = float(mass)
        h -= p * math.log2(p)
    return h


def conditional_entropy(mu, V, W):
    """H[V | W] = H(V union W) - H(W), in bits."""
    if not (V.issubset(mu.domain) and W.issubset(mu.domain)):
        raise ValueError("conditioning sets must be sub-domains")
    joint = mu.marginal(V.union(W))
    return finite_window_entropy(joint) - finite_window_entropy(mu.marginal(W))


def entropy_metric(mu, V, W):
    """D[V, W] = H[V | W] + H[W | V], in bits."""
    return conditional_entropy(mu, V, W) + conditional_entropy(mu, W, V)


# ---------------------------------------------------------------------------
# entropy-chain refutation


@dataclass(frozen=True)
class ChainResult:
    verdict: str        # "refuted" or "unknown"
    pair: tuple         # offending (u, w) pair of domain points, or ()
    path: tuple         # chain of lattice points linking u to w (a closed
                        # walk when u == w), or ()


def _deterministic_map(joint):
    """If the 2-site joint's support is a bijection graph, return it."""
    fwd, bwd = {}, {}
    for (a, b) in joint.masses:
        if fwd.setdefault(a, b) != b or bwd.setdefault(b, a) != a:
            return None
    return fwd


def entropy_chain_refute(mu, horizon=4):
    """Try to refute extendibility via chained zero-entropy-distance pairs.

    Each pair of sites whose joint marginal is a bijection graph forces,
    in any stationary extension, the same bijection between every pair of
    sites at that difference vector.  Compose these forced bijections
    along paths inside the bounding box inflated by `horizon`; if two
    domain sites end up linked by a composite bijection that their own
    joint marginal violates, or two paths from one domain site to one
    box node compose differently on the site's symbols, no extension
    exists.
    """
    res = is_locally_stationary(mu)
    if not res.ok:
        raise ValueError("entropy_chain_refute requires a locally "
                         f"stationary input; witness {res.witness}")
    return _entropy_chain(mu, horizon)


def _entropy_chain(mu, horizon):
    """entropy_chain_refute on a measure known to be locally stationary.

    Each site u grows one breadth-first tree over the box: edges p -> p + d
    for d in the order its forced bijection was found, and a node's parent
    is the node that first reached it, so the path to every later site w
    is a shortest one.  Every node q carries the composite of the forced
    bijections along its tree path, which X_q must equal as a function of
    X_u.  The reported pair is the first (u, w) in domain order whose
    composite along its tree path its joint marginal violates.  Failing
    that, it is the first edge p -> q of some tree whose bijection,
    composed after p's composite, disagrees with q's on the symbols of a
    site: then the pair is (u, u) and the path the closed walk from u to
    p, over the edge to q and back to u along q's tree path, whose
    composite is not the identity.
    """
    U = mu.domain
    # forced bijections per difference vector
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

    # every site has the same symbol support (local stationarity), and
    # each forced bijection permutes it
    symbols = tuple(next(iter(sigma.values())))
    box = [(lo - horizon, hi + horizon) for lo, hi in U.bounding_box()]
    clash = None

    def tree_path(parent, q):
        path = [q]
        while parent[path[-1]] is not None:
            path.append(parent[path[-1]])
        return path[::-1]

    for i, u in enumerate(U.points):
        parent = {u: None}
        comp = {u: symbols}     # the symbols at each node, read off X_u
        queue = [u]
        for p in queue:
            here = comp[p]
            for d, f in sigma.items():
                q = add(p, d)
                if q in comp:
                    if clash is None and comp[q] != tuple(map(f.get, here)):
                        clash = (tree_path(parent, p)
                                 + tree_path(parent, q)[::-1])
                elif all(lo <= x <= hi for x, (lo, hi) in zip(q, box)):
                    parent[q] = p
                    comp[q] = tuple(map(f.get, here))
                    queue.append(q)
        for w in U.points[i + 1:]:
            if w not in parent:
                continue
            at_w = dict(zip(symbols, comp[w]))
            for (a, b) in joints[u, w].masses:
                if at_w[a] != b:
                    return ChainResult("refuted", (u, w),
                                       tuple(tree_path(parent, w)))
    if clash is not None:
        return ChainResult("refuted", (clash[0], clash[0]), tuple(clash))
    return ChainResult("unknown", (), ())


# ---------------------------------------------------------------------------
# word sets (supports of measures; inputs to the subshift machinery)


@dataclass(frozen=True)
class WordSet:
    domain: Domain
    alphabet: int
    words: frozenset

    def __init__(self, domain, alphabet, words):
        clean = set()
        for w in words:
            w = tuple(int(s) for s in w)
            _check_symbols(w, alphabet, len(domain))
            clean.add(w)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "alphabet", int(alphabet))
        object.__setattr__(self, "words", frozenset(clean))

    def to_json_dict(self):
        return {**_header_to_json(self.domain, self.alphabet),
                "words": sorted(word_key(w) for w in self.words)}

    @classmethod
    def from_json_dict(cls, data):
        domain, alphabet = _header_from_json(data)
        keys = _field(data, "words")
        if not isinstance(keys, list):
            raise ValueError("words must be a JSON list")
        return cls(domain, alphabet, map(parse_word_key, keys))


def support_word_set(mu):
    return WordSet(mu.domain, mu.alphabet, mu.support())


# ---------------------------------------------------------------------------
# random locally stationary inputs (used heavily by the test suite)


def random_stationary_measure(alphabet, length, rng):
    """A random exact locally stationary measure on the interval [0..length-1].

    Draw random rational masses on words around a cycle Z/period, period
    = length + 2, and symmetrize over rotation; the pullback to Z is
    stationary, and its marginal on any interval is exactly locally
    stationary.
    """
    period = length + 2
    words = list(itertools.product(range(alphabet), repeat=period))
    raw = {}
    total = 0
    while total == 0:
        for w in words:
            raw[w] = rng.randrange(0, 4)
        total = sum(raw.values())
    sym = defaultdict(Fraction)
    for w, m in raw.items():
        for r in range(period):
            sym[w[r:] + w[:r]] += Fraction(m, total * period)
    cyc = Measure(Domain.interval(0, period - 1), alphabet, sym)
    return cyc.marginal(Domain.interval(0, length - 1))
