"""Concrete instances: counterexamples, tilings, counters, CA encodings.

Coordinate convention throughout: points are (x, y) with y increasing
upward, and words list symbols in the domain's lexicographic point
order.  Tile matrices below are written row-major top-to-bottom, the
way they read on the page, and converted when words are built.
"""

import itertools
from fractions import Fraction

from .lattice import Domain, CapExceeded, cell_cap
from .measures import Measure, WordSet


# ---------------------------------------------------------------------------
# the disconnected three-site counterexample


def disconnected_counterexample(alphabet=2, rho=None):
    """mu[a b c] = rho(a) rho(c) [a == b] on the sites {0, 1, 3}.

    Locally stationary whenever rho is a probability vector, but never
    the marginal of a stationary process if rho is not a point mass:
    sites 0 and 1 are glued, hence so are all neighbors in any
    extension, forcing 0 and 3 to agree -- which the measure denies.
    """
    if rho is None:
        rho = [Fraction(1, alphabet)] * alphabet
    rho = [Fraction(r) for r in rho]
    if len(rho) != alphabet:
        raise ValueError("rho length must equal the alphabet size")
    if sum(rho) != 1 or any(r < 0 for r in rho):
        raise ValueError("rho must be a probability vector")
    domain = Domain(1, [(0,), (1,), (3,)])
    masses = {}
    for a, pa in enumerate(rho):
        for c, pc in enumerate(rho):
            if pa and pc:
                masses[(a, a, c)] = pa * pc
    return Measure(domain, alphabet, masses)


# ---------------------------------------------------------------------------
# the 18-tile pseudolattice measure


# tiles as (top-left, top-right, bottom-left, bottom-right) over {0..15}
PSEUDOLATTICE_TILES = (
    (9, 1, 10, 0), (1, 4, 0, 0), (4, 9, 0, 10),
    (10, 0, 11, 7), (0, 0, 6, 6), (0, 10, 7, 11),
    (11, 7, 9, 1), (7, 7, 1, 4), (7, 11, 4, 9),
    (13, 12, 14, 2), (12, 5, 2, 2), (5, 13, 2, 14),
    (14, 2, 15, 6), (2, 2, 7, 7), (2, 14, 6, 15),
    (15, 6, 13, 12), (6, 6, 12, 5), (6, 15, 5, 13),
)


def _square_word(tl, tr, bl, br):
    # domain box(2, 2) point order: (0,0), (0,1), (1,0), (1,1)
    return (bl, tl, br, tr)


def pseudolattice_measure():
    """Uniform mass 1/18 on eighteen 2x2 words over a 16-letter alphabet.

    Locally stationary, yet the subshift generated by the support is
    empty, so no stationary process has these window statistics.
    """
    mass = Fraction(1, 18)
    masses = {_square_word(*tile): mass for tile in PSEUDOLATTICE_TILES}
    return Measure(Domain.box(2, 2), 16, masses)


def pseudolattice_support():
    return WordSet(Domain.box(2, 2), 16,
                   [_square_word(*tile) for tile in PSEUDOLATTICE_TILES])


# ---------------------------------------------------------------------------
# Robinson-style tiles as a letter-level word set


ROBINSON_LETTERS = "0aAbBcCd"
_L = {ch: i for i, ch in enumerate(ROBINSON_LETTERS)}

# base tiles, 3x3 letter matrices, rows top to bottom
ROBINSON_BASE_TILES = (
    ("ACA", "B0d", "ABA"),
    ("aca", "c0c", "aCa"),
    ("aba", "c0c", "aBa"),
    ("aCa", "B0C", "aBa"),
    ("aba", "c0c", "aba"),
    ("aba", "b0b", "aBa"),
)

_EDGE_PAIRS = {(_L["b"], _L["B"]), (_L["B"], _L["b"]),
               (_L["c"], _L["C"]), (_L["C"], _L["c"])}


def _rotate(matrix):
    """Quarter turn clockwise; edge and corner letters travel with it."""
    return tuple(tuple(matrix[2 - c][r] for c in range(3)) for r in range(3))


def robinson_tiles(d_reading="distinct"):
    """All rotations of the base tiles, as 3x3 numeric matrices.

    The odd letter on the first tile's right edge is either kept as its
    own eighth symbol (matching no edge) or read as a typo for 'C'.
    """
    if d_reading not in ("distinct", "typo"):
        raise ValueError("d_reading must be 'distinct' or 'typo'")
    tiles = []
    for rows in ROBINSON_BASE_TILES:
        m = tuple(tuple(_L[ch] if not (ch == "d" and d_reading == "typo")
                        else _L["C"] for ch in row) for row in rows)
        for _ in range(4):
            if m not in tiles:
                tiles.append(m)
            m = _rotate(m)
    return tiles


def tiles_match_horizontal(left, right):
    return (left[1][2], right[1][0]) in _EDGE_PAIRS


def tiles_match_vertical(top, bottom):
    return (top[2][1], bottom[0][1]) in _EDGE_PAIRS


def corner_rule_ok(tl, tr, bl, br):
    """At a four-tile meeting point: exactly three 'a', one 'A'."""
    corners = (tl[2][2], tr[2][0], bl[0][2], br[0][0])
    return (sorted(corners) == [_L["a"], _L["a"], _L["a"], _L["A"]])


def robinson_patches(d_reading="distinct"):
    """All 2x2 tile patches satisfying edge matching and the corner rule."""
    tiles = robinson_tiles(d_reading)
    hpairs = [(a, b) for a in tiles for b in tiles
              if tiles_match_horizontal(a, b)]
    patches = []
    for tl, tr in hpairs:
        for bl, br in hpairs:
            if (tiles_match_vertical(tl, bl)
                    and tiles_match_vertical(tr, br)
                    and corner_rule_ok(tl, tr, bl, br)):
                patches.append((tl, tr, bl, br))
    return patches


def robinson_word_set(d_reading="distinct"):
    """Every 3x3 letter window of a valid 2x2 tile patch.

    Any 3x3 window of a legal tiling sits inside some aligned 2x2 patch,
    so the subshift defined by this word set contains the tiling shift.
    """
    words = set()
    domain = Domain.box(2, 3)
    for tl, tr, bl, br in robinson_patches(d_reading):
        grid = [list(tl[r]) + list(tr[r]) for r in range(3)] + \
               [list(bl[r]) + list(br[r]) for r in range(3)]
        for r0 in range(4):
            for c0 in range(4):
                words.add(tuple(grid[r0 + 2 - y][c0 + x]
                                for x in range(3) for y in range(3)))
    return WordSet(domain, len(ROBINSON_LETTERS), words)


# ---------------------------------------------------------------------------
# the binary counter family


def _counter_rows(value, k):
    """Big-endian bits of value, then a 0 separator: one row of width k+1."""
    return tuple((value >> (k - 1 - i)) & 1 for i in range(k)) + (0,)


def binary_counter_words(k):
    """All cyclic rotations of the (value, value+1) two-row blocks."""
    if k < 0:
        raise ValueError(f"counter size must be at least 0, got {k}")
    cap = cell_cap()
    if k >= cap.bit_length() or 2 ** k * (k + 1) > cap:  # skips 2^k for big k
        raise CapExceeded(f"counter({k}) has 2^{k} * {k + 1} words")
    words = set()
    width = k + 1
    for value in range(2 ** k):
        bottom = _counter_rows(value, k)
        top = _counter_rows((value + 1) % 2 ** k, k)
        for r in range(width):
            words.add(tuple(row[(x + r) % width]
                            for x in range(width) for row in (bottom, top)))
    return words


def binary_counter_domain(k):
    return Domain.box(2, (k + 1, 2), origin=(1, 0))


def binary_counter_measure(k):
    """Uniform measure on the counter words: 2^k (k+1) of them.

    Extends to an invariant measure on the (k+1) x 2^k torus through the
    orbit of the counting configuration.  Smaller tori can be feasible
    too: a row that is a rotation of two counter values (0110 reads as 3
    and as 6) lets the rows skip ahead, and these phase-slip
    configurations make k=2 feasible at (3,3) (12 configurations), k=3
    at (4,4) (36) and k=4 at (5,8).
    """
    words = binary_counter_words(k)
    mass = Fraction(1, len(words))
    return Measure(binary_counter_domain(k), 2,
                   {w: mass for w in words})


def binary_counter_support(k):
    return WordSet(binary_counter_domain(k), 2, binary_counter_words(k))


# ---------------------------------------------------------------------------
# cellular automata as subshifts one dimension up


def ca_to_sft(rule, U, alphabet):
    """Encode a CA with local rule `rule` on neighborhood U as an SFT.

    The new domain stacks U at layer 0 with one extra site above the
    origin; admissible words are exactly the (input, output) pairs, so
    there are alphabet^|U| of them.
    """
    D = U.dim
    count = alphabet ** len(U)
    if count > cell_cap():
        raise CapExceeded(f"rule table has {count} entries")
    out_site = (0,) * D + (1,)
    points = [p + (0,) for p in U.points] + [out_site]
    domain = Domain(D + 1, points)
    words = []
    for w in itertools.product(range(alphabet), repeat=len(U)):
        symbols = dict(zip((p + (0,) for p in U.points), w))
        symbols[out_site] = rule[w]
        words.append(tuple(symbols[p] for p in domain.points))
    return domain, WordSet(domain, alphabet, words)


def eca_rule(number):
    """The local rule of elementary cellular automaton `number`."""
    if not 0 <= number < 256:
        raise ValueError("elementary CA numbers range over 0..255")
    U = Domain.interval(-1, 1)
    rule = {}
    for a, b, c in itertools.product(range(2), repeat=3):
        rule[(a, b, c)] = (number >> (4 * a + 2 * b + c)) & 1
    return rule, U
