"""Fourier analysis on finite symbol windows, as a floating cross-check.

A character chi(b) = omega^(sum_p e_p b_p), omega = e^(2 pi i / A), of
(Z/A)^W is an exponent word: exponents aligned with `domain.points`,
like a word of a Measure.  All arithmetic here is complex floating
point; exact decisions stay with the rational modules, and these
routines exist to confirm them independently within small tolerances.

A coefficient table lists the characters in `all_characters` order,
which is the word order of the window: exponent words as mixed-radix
numbers, first site most significant.  It comes from one length-A DFT
along each site in turn (Cooley-Tukey on (Z/A)^W), which costs
|W| * A^(|W|+1) operations instead of the A^|W| * |support| of summing
every coefficient directly.  The stationarity check builds one table
and reads every coefficient and shifted coefficient from it;
`fourier_coeff`, the direct sum, serves single coefficients of large
windows and is the reference the table is tested against.
"""

import cmath
import itertools
import math

from .lattice import (CapExceeded, cell_cap, translates_inside, _overlaps,
                      _placements)

# the largest coefficient gap the checks below read as agreement
TOL = 1e-9


def all_characters(domain, alphabet):
    """The exponent words of the window, in itertools.product order."""
    count = alphabet ** len(domain)
    if count > cell_cap():
        raise CapExceeded(f"character group has {count} elements")
    return list(itertools.product(range(alphabet), repeat=len(domain)))


def _place(chi, move, size):
    """The exponent word of length `size` that carries each nonzero
    exponent of chi from position i to position move[i]."""
    out = [0] * size
    for i, e in enumerate(chi):
        if e:
            out[move[i]] = e
    return tuple(out)


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
    if len(chi) != len(mu.domain):
        raise ValueError("a character is not a word of the window")
    A = mu.alphabet
    conj = [cmath.exp(2j * math.pi * r / A).conjugate() for r in range(A)]
    support = [(i, e) for i, e in enumerate(chi) if e]
    total = 0j
    for word, mass in mu.masses.items():
        total += float(mass) * conj[sum(e * word[i] for i, e in support) % A]
    return total


def fourier_transform(mu):
    """All coefficients, keyed by exponent word in `all_characters` order."""
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
    Missing characters count as zero; a key that is not a word of the
    window (wrong length, or an exponent outside range(alphabet)) raises
    ValueError.
    """
    words = all_characters(domain, alphabet)
    if coeffs.keys() - set(words):
        raise ValueError("a coefficient key is not a word of the window")
    values = [coeffs.get(chi, 0j) for chi in words]
    masses = _site_dft(values, alphabet, len(domain), 1)
    return {word: v / len(words) for word, v in zip(words, masses)}


def parseval_residual(mu):
    """| sum |mu^|^2 - A^|W| sum mu[b]^2 |, which should vanish."""
    lhs = sum(abs(c) ** 2 for c in fourier_transform(mu).values())
    rhs = mu.word_count() * float(sum(m * m for m in mu.masses.values()))
    return abs(lhs - rhs)


def check_stationarity_fourier(mu):
    """Local stationarity via coefficient agreement along translates.

    For each character and each lattice shift keeping its nonzero
    positions inside the window, the two coefficients must agree; this
    mirrors the exact marginal-overlap criterion.  A character moves by
    k when those positions lie in the overlap's `left` positions (to
    `right`), and by -k when they lie in `right`.  Both coefficients are
    read from one table; they agree when they differ by at most TOL.
    Returns (ok, witness) with witness (chi, k).
    """
    coeffs = fourier_transform(mu)
    shifts = []
    for _, k, left, right in _overlaps(mu.domain):
        shifts.append((k, dict(zip(left, right))))
        shifts.append((tuple(-c for c in k), dict(zip(right, left))))
    shifts.sort(key=lambda shift: shift[0])
    for chi, base in coeffs.items():
        support = {i for i, e in enumerate(chi) if e}
        if not support:
            continue
        for k, move in shifts:
            if support <= move.keys():
                if abs(base - coeffs[_place(chi, move, len(chi))]) > TOL:
                    return False, (chi, k)
    return True, ()


def check_extension_fourier(base, ext):
    """Marginal agreement of ext with base on every translate, in frequency.

    For each character of the base window U and each translate U + t
    inside the extension window, the extension's coefficient at the
    character placed on the positions of U + t must match the base
    coefficient to within TOL.  Returns (ok, witness) with witness
    (chi, t).
    """
    if base.alphabet != ext.alphabet:
        raise ValueError("alphabet mismatch")
    U, W = base.domain, ext.domain
    shifts = translates_inside(U, W)
    places = list(zip(shifts, _placements(U, W, shifts)))
    for chi in all_characters(U, base.alphabet):
        want = fourier_coeff(base, chi)
        for t, move in places:
            got = fourier_coeff(ext, _place(chi, move, len(W)))
            if abs(want - got) > TOL:
                return False, (chi, t)
    return True, ()
