"""Markov extensions of locally stationary measures on 1-D intervals.

A locally stationary base measure on an interval of length m+1 induces
a stationary m-step Markov process whose window marginals are computed
by the usual chain-rule product of conditionals.  Among all stationary
extensions of the base, this one maximizes entropy rate.
"""

from collections import defaultdict
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

    def _prefix_marginal(self, length):
        """Marginal of the base on its first `length` sites."""
        return self.base.marginal(Domain.interval(0, length - 1))

    def cylinder(self, word):
        """Exact mass of a cylinder word on a contiguous interval.

        Any conditional with zero denominator forces mass zero (the
        conditioning event is already null).
        """
        s = tuple(word)
        m = self.memory
        if len(s) == 0:
            return Fraction(1)
        if len(s) <= m + 1:
            return self._prefix_marginal(len(s))[s]
        pref = self._prefix_marginal(m) if m > 0 else None
        mass = self.base[s[0:m + 1]]
        for k in range(1, len(s) - m):
            if mass == 0:
                return Fraction(0)
            num = self.base[s[k:k + m + 1]]
            if num == 0:
                return Fraction(0)
            den = pref[s[k:k + m]] if m > 0 else Fraction(1)
            if den == 0:
                return Fraction(0)
            mass *= Fraction(num, den)
        return mass

    def window_measure(self, n):
        """The induced measure on the window [0 .. n-1], support only.

        Builds the support by extending prefixes one site at a time, so
        the cost is proportional to the support size, not alphabet**n.
        Raises CapExceeded as soon as that support passes cell_cap().
        """
        if n < 1:
            raise ValueError("window length must be positive")
        m = self.memory
        if n <= m + 1:
            return self._prefix_marginal(n)
        pref = self._prefix_marginal(m) if m > 0 else None
        cap = cell_cap()
        current = dict(self.base.masses)
        for _ in range(n - m - 1):
            nxt = defaultdict(Fraction)
            for w, mass in current.items():
                tail = w[-m:] if m > 0 else ()
                den = pref[tail] if m > 0 else Fraction(1)
                if den == 0:
                    continue
                for a in range(self.base.alphabet):
                    num = self.base[tail + (a,)]
                    if num != 0:
                        nxt[w + (a,)] += mass * Fraction(num, den)
                if len(nxt) > cap:
                    raise CapExceeded(f"window {n} passes {cap} words")
            current = nxt
        return Measure(Domain.interval(0, n - 1), self.base.alphabet, current)


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
    m = ext.memory
    h_full = finite_window_entropy(ext.base)
    h_pref = (finite_window_entropy(ext._prefix_marginal(m))
              if m > 0 else 0.0)
    return EntropyRateEstimate(per_site, h_full - h_pref)
