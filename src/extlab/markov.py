"""Markov extensions of locally stationary measures on 1-D intervals.

A locally stationary base measure on an interval of length m+1 induces
a stationary m-step Markov process whose window marginals are computed
by the usual chain-rule product of conditionals.  Among all stationary
extensions of the base, this one maximizes entropy rate.
"""

from dataclasses import dataclass
from fractions import Fraction

from .lattice import Domain, CapExceeded, cell_cap
from .measures import Measure, is_locally_stationary, finite_window_entropy


class MarkovExtension:
    """The maximal-entropy stationary extension of a 1-D interval base."""

    def __init__(self, base):
        if base.domain.dim != 1:
            raise ValueError("Markov extension requires a 1-D base")
        pts = [p[0] for p in base.domain.points]
        if not pts or pts != list(range(pts[0], pts[0] + len(pts))):
            raise ValueError("base domain must be a nonempty contiguous "
                             "interval")
        res = is_locally_stationary(base)
        if not res.ok:
            raise ValueError("base measure is not locally stationary; "
                             f"witness {res.witness}")
        if pts[0] != 0:
            base = base.shift((-pts[0],))
        self.base = base
        self.memory = len(pts) - 1  # m-step Markov
        self.prefix = self._prefix_marginal(self.memory)

    def _prefix_marginal(self, length):
        """Marginal of the base on its first `length` sites."""
        return self.base.marginal(Domain.interval(0, length - 1))

    def _step(self, tail, a):
        """P(next symbol a | last m symbols tail).  The numerator is at
        most the denominator, so a null tail gives 0, never 0/0."""
        num = self.base[tail + (a,)]
        return num / self.prefix[tail] if num else num

    def cylinder(self, word):
        """Exact mass of a cylinder word on a contiguous interval."""
        s = tuple(word)
        m = self.memory
        if len(s) < m:
            return self._prefix_marginal(len(s))[s]
        mass = self.prefix[s[:m]]
        for k in range(m, len(s)):
            mass *= self._step(s[k - m:k], s[k])
        return mass

    def window_measure(self, n):
        """The induced measure on the window [0 .. n-1], support only.

        Builds the support by extending prefixes one site at a time, so
        the cost is proportional to the support size, not alphabet**n.
        Each conditional is computed once per supported base word, into
        a table from each tail in the prefix's support to its (symbol,
        probability) pairs, symbols ascending, and every window word
        extends through that table; no other symbol is tried.  Raises
        CapExceeded as soon as the support passes cell_cap().
        """
        if n < 1:
            raise ValueError("window length must be positive")
        m = self.memory
        if n <= m + 1:
            return self._prefix_marginal(n)
        cap = cell_cap()
        # a supported word's last m symbols are supported by the prefix,
        # as the base is locally stationary
        steps = {tail: [] for tail in self.prefix.masses}
        for w in sorted(self.base.masses):
            p = self._step(w[:m], w[m])
            steps[w[:m]].append((w[m], p.numerator, p.denominator))
        # masses as int pairs (numerator, denominator), reduced at the end
        current = {w: (x.numerator, x.denominator)
                   for w, x in self.base.masses.items()}
        for _ in range(n - m - 1):
            nxt = {}
            for w, (num, den) in current.items():
                for a, p, q in steps[w[len(w) - m:]]:
                    nxt[w + (a,)] = (num * p, den * q)
                if len(nxt) > cap:
                    raise CapExceeded(f"window {n} passes {cap} words")
            current = nxt
        return Measure(Domain.interval(0, n - 1), self.base.alphabet,
                       {w: Fraction(*x) for w, x in current.items()})


@dataclass(frozen=True)
class EntropyRateEstimate:
    per_site: float      # H(window n) / n
    markov_rate: float   # H(window m+1) - H(window m), the true rate


def entropy_rate(ext, n, window=None):
    """Per-site window entropy alongside the exact Markov entropy rate.

    `window` is ext.window_measure(n) when the caller has built it already.
    """
    if window is None:
        window = ext.window_measure(n)
    per_site = finite_window_entropy(window) / n
    h_full = finite_window_entropy(ext.base)
    h_pref = finite_window_entropy(ext.prefix)
    return EntropyRateEstimate(per_site, h_full - h_pref)
