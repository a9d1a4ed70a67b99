"""Fourier analysis on finite symbol windows, as a floating cross-check.

Characters of the product group (Z/A)^W are exponent maps on the window
sites.  All arithmetic here is complex floating point; exact decisions
stay with the rational modules, and these routines exist to confirm
them independently within small tolerances.

A coefficient table lists the characters in `all_characters` order:
exponent vectors as mixed-radix numbers, first site most significant,
the same order as the words of the window.  It comes from one
length-A DFT along each site in turn (Cooley-Tukey on (Z/A)^W), which
costs |W| * A^(|W|+1) operations instead of the A^|W| * |support| of
summing every coefficient directly.  The stationarity check builds
one table and reads every coefficient and shifted coefficient from it;
`fourier_coeff`, the direct sum, serves single coefficients of large
windows and is the reference the table is tested against.
"""

import cmath
import itertools
import math
from dataclasses import dataclass

from .lattice import (CapExceeded, cell_cap, add, translates_inside,
                      _overlaps)


@dataclass(frozen=True)
class Character:
    """A character chi(b) = prod_p omega^(e_p * b_p), omega = e^(2 pi i / A)."""

    alphabet: int
    exponents: tuple   # sorted ((point, e), ...) with e nonzero

    @classmethod
    def make(cls, alphabet, exponents):
        items = tuple(sorted((tuple(p), e % alphabet)
                             for p, e in dict(exponents).items()
                             if e % alphabet))
        return cls(alphabet, items)

    @property
    def support(self):
        return tuple(p for p, _ in self.exponents)

    def shift(self, k):
        return Character.make(self.alphabet,
                              [(add(p, k), e) for p, e in self.exponents])

    def evaluate(self, word, domain):
        """chi at a word given in the domain's canonical site order."""
        phase = 0
        for p, e in self.exponents:
            phase += e * word[domain.index(p)]
        return cmath.exp(2j * math.pi * (phase % self.alphabet)
                         / self.alphabet)


def all_characters(domain, alphabet):
    count = alphabet ** len(domain)
    if count > cell_cap():
        raise CapExceeded(f"character group has {count} elements")
    out = []
    for exps in itertools.product(range(alphabet), repeat=len(domain)):
        out.append(Character.make(alphabet, zip(domain.points, exps)))
    return out


def _site_dft(values, alphabet, sites, sign):
    """Length-A DFT, kernel e^(sign 2 pi i e b / A), along every site.

    `values` is indexed by mixed-radix site digits, first site most
    significant.  Each pass transforms the first site and appends it
    as the last, so after one pass per site the order is restored.
    """
    n = len(values)
    roots = [cmath.exp(2j * math.pi * r / alphabet) for r in range(alphabet)]
    if sign < 0:
        roots = [r.conjugate() for r in roots]
    kernel = [[roots[e * b % alphabet] for b in range(alphabet)]
              for e in range(alphabet)]
    m = n // alphabet
    for _ in range(sites):
        rows = [values[b * m:(b + 1) * m] for b in range(alphabet)]
        out = [0j] * n
        for e, weights in enumerate(kernel):
            acc = rows[0]
            for w, row in zip(weights[1:], rows[1:]):
                acc = [a + w * x for a, x in zip(acc, row)]
            out[e::alphabet] = acc
        values = out
    return values


def fourier_coeff(mu, chi):
    """mu^(chi) = sum_b mu[b] conj(chi(b)), summed over the support."""
    total = 0j
    for word, mass in mu.masses.items():
        total += float(mass) * chi.evaluate(word, mu.domain).conjugate()
    return total


def fourier_transform(mu):
    """All coefficients, keyed by Character in `all_characters` order."""
    A = mu.alphabet
    characters = all_characters(mu.domain, A)
    values = [0j] * len(characters)
    for word, mass in mu.masses.items():
        index = 0
        for symbol in word:
            index = index * A + symbol
        values[index] = complex(float(mass))
    return dict(zip(characters, _site_dft(values, A, len(mu.domain), -1)))


def inverse_transform(coeffs, domain, alphabet):
    """Word masses from a full coefficient table.

    The normalization 1/A^|W| makes this the exact inverse of
    fourier_transform (round-trip error at floating precision only).
    Missing characters count as zero; a key that is not a character of
    the window raises ValueError.
    """
    characters = all_characters(domain, alphabet)
    if coeffs.keys() - set(characters):
        raise ValueError("a coefficient key is not a character of the window")
    values = [coeffs.get(chi, 0j) for chi in characters]
    n = len(values)
    words = itertools.product(range(alphabet), repeat=len(domain))
    masses = _site_dft(values, alphabet, len(domain), 1)
    return {word: v / n for word, v in zip(words, masses)}


def parseval_residual(mu):
    """| sum |mu^|^2 - A^|W| sum mu[b]^2 |, which should vanish."""
    lhs = sum(abs(c) ** 2 for c in fourier_transform(mu).values())
    rhs = mu.word_count() * float(sum(m * m for m in mu.masses.values()))
    return abs(lhs - rhs)


def check_stationarity_fourier(mu, tol=1e-9):
    """Local stationarity via coefficient agreement along translates.

    For each character supported in the window and each lattice shift
    keeping the support inside, the two coefficients must agree; this
    mirrors the exact marginal-overlap criterion.  A support S moves by
    k inside the window exactly when S lies in the overlap V of shift k
    (and by -k when it lies in V + k), so the overlaps of the exact
    check list every shift once, sorted, with the sites it may move.
    Both coefficients are read from one table: a shifted character is
    supported in the window, so it is a key of it.  Returns (ok, witness).
    """
    coeffs = fourier_transform(mu)
    points = mu.domain.points
    shifts = []
    for V, k, _, right in _overlaps(mu.domain):
        shifts.append((k, frozenset(V)))
        shifts.append((tuple(-c for c in k),
                       frozenset(points[i] for i in right)))
    shifts.sort()
    for chi, base in coeffs.items():
        if not chi.exponents:
            continue
        support = chi.support
        for k, sites in shifts:
            if sites.issuperset(support):
                shifted = coeffs[chi.shift(k)]
                if abs(base - shifted) > tol:
                    return False, (chi, k)
    return True, ()


def check_extension_fourier(base, ext, tol=1e-9):
    """Marginal agreement of ext with base on every translate, in frequency.

    For each character of the base window and each translate of the base
    domain inside the extension window, the extension's coefficient at
    the shifted character must match the base coefficient.
    """
    if base.alphabet != ext.alphabet:
        raise ValueError("alphabet mismatch")
    for chi in all_characters(base.domain, base.alphabet):
        want = fourier_coeff(base, chi)
        for t in translates_inside(base.domain, ext.domain):
            got = fourier_coeff(ext, chi.shift(t))
            if abs(want - got) > tol:
                return False, (chi, t)
    return True, ()
