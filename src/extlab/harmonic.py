"""Fourier analysis on finite symbol windows, as a floating cross-check.

Characters of the product group (Z/A)^W are exponent maps on the window
sites.  All arithmetic here is complex floating point; exact decisions
stay with the rational modules, and these routines exist to confirm
them independently within small tolerances.
"""

import cmath
import itertools
import math
from dataclasses import dataclass

from .lattice import CapExceeded, cell_cap, add, translates_inside


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


def fourier_coeff(mu, chi):
    """mu^(chi) = sum_b mu[b] conj(chi(b)), summed over the support."""
    total = 0j
    for word, mass in mu.masses.items():
        total += float(mass) * chi.evaluate(word, mu.domain).conjugate()
    return total


def fourier_transform(mu):
    """All coefficients, keyed by Character."""
    return {chi: fourier_coeff(mu, chi)
            for chi in all_characters(mu.domain, mu.alphabet)}


def inverse_transform(coeffs, domain, alphabet):
    """Word masses from a full coefficient table.

    The normalization 1/A^|W| makes this the exact inverse of
    fourier_transform (round-trip error at floating precision only).
    """
    n = alphabet ** len(domain)
    out = {}
    for word in itertools.product(range(alphabet), repeat=len(domain)):
        total = 0j
        for chi, c in coeffs.items():
            total += c * chi.evaluate(word, domain)
        out[word] = total / n
    return out


def parseval_residual(mu):
    """| sum |mu^|^2 - A^|W| sum mu[b]^2 |, which should vanish."""
    lhs = sum(abs(c) ** 2 for c in fourier_transform(mu).values())
    rhs = mu.word_count() * float(sum(m * m for m in mu.masses.values()))
    return abs(lhs - rhs)


def check_stationarity_fourier(mu, tol=1e-9):
    """Local stationarity via coefficient agreement along translates.

    For each character supported in the window and each lattice shift
    keeping the support inside, the two coefficients must agree; this
    mirrors the exact marginal-overlap criterion.  Returns (ok, witness).
    """
    from .lattice import Domain
    W = mu.domain
    for chi in all_characters(W, mu.alphabet):
        if not chi.exponents:
            continue
        S = Domain(W.dim, chi.support)
        base = fourier_coeff(mu, chi)
        for k in translates_inside(S, W):
            if all(c == 0 for c in k):
                continue
            shifted = fourier_coeff(mu, chi.shift(k))
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
