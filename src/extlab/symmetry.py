"""Symmetries of a window polytope, and its feasibility LP on their quotient.

A window polytope S(W) (engine.build_window_polytope) has one variable per
word of A^W, in itertools.product order.  Its symmetry group G is made of
pairs (g, pi): g is a signed permutation of the axes plus the translation
that maps W onto W, and it maps the base domain U onto a translate of U;
pi is a permutation of the symbols (every one of the A! for A <= 4, only
the identity for larger alphabets).  The pair acts on a configuration x of
W by (g, pi) x = pi o x o g^-1, and it is kept when the word map it
induces on U leaves mu unchanged.

Such a pair maps stationary measures on W to stationary ones, and the
translates of U inside W onto themselves, so it permutes the polytope's
variables and maps each of its rows to a nonzero multiple of a row.
The average of a point over G is then a point of S(W) constant on every
G-orbit of words, so S(W) is empty exactly when its restriction to such
points is.  solve_quotient solves that restriction, one variable per
orbit; see ExtensionPolytope.solve for what each verdict rests on.
"""

import itertools
import math
from fractions import Fraction

from .lattice import sub
from .lp import LinearSystem, solve_feasibility, FEASIBLE, INFEASIBLE


def _index_map(domain, axes, signs):
    """The positions in domain of the points p -> (signs[i] * p[axes[i]])_i
    moved by the translation that puts that image onto domain, or None
    when the image is no translate of domain."""
    images = [tuple(s * p[a] for s, a in zip(signs, axes))
              for p in domain.points]
    # the lexicographically least point moves with any translation
    t = sub(domain.points[0], min(images))
    position = {p: i for i, p in enumerate(domain.points)}
    out = [position.get(tuple(a + b for a, b in zip(q, t))) for q in images]
    return None if None in out else out


def stabiliser(mu, W):
    """The group G of mu on the window W, as (positions, pi) pairs, the
    identity first: the configuration x maps to the y with
    y[positions[i]] = pi[x[i]], positions read in W.points order.

    Each candidate pair is tested on supp(mu) alone, so a base with no
    symmetry costs one pass over its support per signed axis permutation
    that keeps the shapes of W and U.
    """
    A, dim = mu.alphabet, W.dim
    pis = (list(itertools.permutations(range(A))) if A <= 4
           else [tuple(range(A))])
    group = []
    for axes in itertools.permutations(range(dim)):
        for signs in itertools.product((1, -1), repeat=dim):
            on_w = _index_map(W, axes, signs)
            on_u = on_w and _index_map(mu.domain, axes, signs)
            if not on_u:
                continue
            for pi in pis:
                if all(mu[_word_image(w, on_u, pi)] == m
                       for w, m in mu.masses.items()):
                    group.append((on_w, pi))
    return group


def _word_image(word, positions, pi):
    out = [0] * len(word)
    for i, a in enumerate(word):
        out[positions[i]] = pi[a]
    return tuple(out)


def _variable_map(element, alphabet, n):
    """The index of the image of each word of A^n, words in product order."""
    positions, pi = element
    images = [0]
    for i in range(n):
        weight = alphabet ** (n - 1 - positions[i])
        images = [x + pi[a] * weight for x in images for a in range(alphabet)]
    return images


def _row_key(ints, rhs):
    """An integer-form row up to a nonzero factor: divided by the gcd of
    its integers, and signed so its least variable's coefficient is > 0."""
    g = math.gcd(rhs, *ints.values())
    if ints[min(ints)] < 0:
        g = -g
    return frozenset((v, c // g) for v, c in ints.items()), rhs // g


def maps_rows_onto_rows(system, image):
    """Whether sending the i-th variable to the image[i]-th keeps the set
    of nonnegative variables and maps every equality of the system onto
    one of its equalities up to a nonzero factor (_row_key).  Such a map
    permutes the classes of rows equal up to a factor, as a renaming maps
    rows that are not multiples of each other to rows that are not
    either, so it maps the system's solutions onto themselves."""
    names = system.variables
    rename = dict(zip(names, (names[j] for j in image)))
    if any((v in system.nonneg) != (rename[v] in system.nonneg)
           for v in names):
        return False
    rows = {_row_key(ints, rhs) for _, ints, rhs in system.equalities}
    return all(_row_key({rename[v]: c for v, c in ints.items()}, rhs) in rows
               for _, ints, rhs in system.equalities)


def solve_quotient(system, alphabet, group, pivot_limit):
    """Feasibility of a window polytope's system over its G-invariant
    points, with one variable per G-orbit of words.

    The system's variables are the words of A^n in product order and its
    rows are equalities, as build_window_polytope makes them.  `group`
    is all of G (stabiliser), so a word's orbit is its set of images,
    named by the least.  Each row is rewritten with x_w = z_orbit(w),
    and one equal to an earlier one up to a nonzero factor (_row_key) is
    dropped.  A feasible point is lifted to x_w = z_orbit(w) and checked
    exactly against the full system.  Before an infeasible verdict is
    returned, every element of the group is checked by
    maps_rows_onto_rows; an element that fails raises AssertionError.
    """
    names = system.variables
    maps = [_variable_map(h, alphabet, len(h[0])) for h in group[1:]]
    of = {v: names[min(images)]
          for v, images in zip(names, zip(range(len(names)), *maps))}

    quotient = LinearSystem()
    for v in names:
        if of[v] == v:
            quotient.add_variable(v, nonneg=True)
    seen = set()
    for scale, ints, rhs in system.equalities:
        coeffs = {}
        for v, c in ints.items():
            z = of[v]
            coeffs[z] = coeffs.get(z, 0) + c
        coeffs = {z: c for z, c in coeffs.items() if c}
        if not coeffs and rhs == 0:
            continue
        # a row proportional to an earlier one adds nothing
        key = _row_key(coeffs, rhs)
        if key in seen:
            continue
        seen.add(key)
        quotient.add_eq({z: Fraction(c, scale) for z, c in coeffs.items()},
                        Fraction(rhs, scale))
    res = solve_feasibility(quotient, pivot_limit=pivot_limit)
    if res.status == FEASIBLE:
        point = {v: res.assignment[of[v]] for v in names}
        if not system.check(point):
            raise AssertionError("lifted quotient point fails the window "
                                 "polytope")
        res.assignment = point
    elif res.status == INFEASIBLE and not all(
            maps_rows_onto_rows(system, image) for image in maps):
        raise AssertionError("a detected symmetry does not map the window "
                             "polytope onto itself")
    return res
