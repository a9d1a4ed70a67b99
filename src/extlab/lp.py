"""Exact rational linear feasibility via two-phase primal simplex.

Systems are built symbolically (named variables, equality and >=
constraints, nonnegativity flags) and solved over Fraction with
Dantzig's rule, switching to Bland's rule after 30 consecutive
degenerate pivots until the objective moves again, so termination is
guaranteed and every verdict is exact.
A pivot cap turns pathological instances into an explicit "aborted"
verdict rather than a wrong answer.
"""

import hashlib
import random
from dataclasses import dataclass, field
from fractions import Fraction


FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
ABORTED = "aborted"

DEFAULT_PIVOT_LIMIT = 200000


class LinearSystem:
    """Ax = b, Cx >= d, with selected variables constrained nonnegative."""

    def __init__(self):
        self.variables = []
        self._var_index = {}
        self.nonneg = set()
        self.equalities = []    # (coeff dict, rhs)
        self.inequalities = []  # (coeff dict, rhs), meaning row . x >= rhs

    def add_variable(self, name, nonneg=True):
        if name in self._var_index:
            raise ValueError(f"duplicate variable {name!r}")
        self._var_index[name] = len(self.variables)
        self.variables.append(name)
        if nonneg:
            self.nonneg.add(name)

    def _clean(self, coeffs):
        out = {}
        for name, c in coeffs.items():
            if name not in self._var_index:
                raise ValueError(f"unknown variable {name!r}")
            c = Fraction(c)
            if c != 0:
                out[name] = c
        return out

    def add_eq(self, coeffs, rhs):
        self.equalities.append((self._clean(coeffs), Fraction(rhs)))

    def add_ge(self, coeffs, rhs):
        self.inequalities.append((self._clean(coeffs), Fraction(rhs)))

    def check(self, assignment):
        """Exactly verify a candidate assignment against every constraint."""
        for name in self.variables:
            if name not in assignment:
                return False
            if name in self.nonneg and assignment[name] < 0:
                return False
        for coeffs, rhs in self.equalities:
            if sum((c * assignment[v] for v, c in coeffs.items()),
                   Fraction(0)) != rhs:
                return False
        for coeffs, rhs in self.inequalities:
            if sum((c * assignment[v] for v, c in coeffs.items()),
                   Fraction(0)) < rhs:
                return False
        return True

    def dumps(self):
        """Canonical text rendering (also used for report hashing)."""
        lines = [f"var {v}{' >= 0' if v in self.nonneg else ''}"
                 for v in self.variables]
        for kind, rows in (("==", self.equalities), (">=", self.inequalities)):
            for coeffs, rhs in rows:
                terms = " + ".join(f"{c}*{v}" for v, c in sorted(coeffs.items()))
                lines.append(f"{terms or '0'} {kind} {rhs}")
        return "\n".join(lines) + "\n"

    def digest(self):
        return hashlib.sha256(self.dumps().encode()).hexdigest()[:16]


@dataclass
class FeasibilityResult:
    status: str
    assignment: dict = field(default_factory=dict)
    pivots: int = 0


class _Tableau:
    """Dense simplex tableau over Fraction; Dantzig's rule, Bland on stalls."""

    def __init__(self, rows, rhs, ncols):
        self.rows = rows          # list of lists, len ncols each
        self.rhs = rhs
        self.ncols = ncols
        self.basis = [None] * len(rows)
        self.pivots = 0

    def pivot(self, r, c):
        piv = self.rows[r][c]
        inv = 1 / piv
        row = self.rows[r]
        self.rows[r] = [x * inv if x else x for x in row]
        self.rhs[r] *= inv
        prow = self.rows[r]
        for i, other in enumerate(self.rows):
            if i != r and other[c] != 0:
                f = other[c]
                self.rows[i] = [x - f * y if y else x
                                for x, y in zip(other, prow)]
                self.rhs[i] -= f * self.rhs[r]
        self.basis[r] = c
        self.pivots += 1

    def maximize(self, cost, pivot_limit):
        """Maximize cost . x over the current basis.

        Uses Dantzig's rule while the objective makes progress and falls
        back to Bland's rule (guaranteed termination) after a stall.
        Returns "optimal", "unbounded", or "aborted".
        """
        m = len(self.rows)
        # reduced costs relative to current basis
        red = list(cost)
        for r, c in enumerate(self.basis):
            if cost[c] != 0:
                f = cost[c]
                row = self.rows[r]
                red = [x - f * y for x, y in zip(red, row)]
        stall = 0
        while True:
            if self.pivots >= pivot_limit:
                return "aborted"
            if stall < 30:
                enter, best = None, 0
                for j in range(self.ncols):
                    if red[j] > best:
                        enter, best = j, red[j]
            else:  # Bland: least index, immune to cycling
                enter = next((j for j in range(self.ncols) if red[j] > 0),
                             None)
            if enter is None:
                return "optimal"
            ratio, leave = None, None
            for i in range(m):
                a = self.rows[i][enter]
                if a > 0:
                    t = self.rhs[i] / a
                    if ratio is None or t < ratio or (
                            t == ratio and self.basis[i] < self.basis[leave]):
                        ratio, leave = t, i
            if leave is None:
                return "unbounded"
            stall = stall + 1 if ratio == 0 else 0
            self.pivot(leave, enter)
            f = red[enter]
            red = [x - f * y if y else x
                   for x, y in zip(red, self.rows[leave])]


def _standard_form(system):
    """Split free variables, add slacks, and return (rows, rhs, colmap).

    colmap maps each original variable to (plus_col, minus_col_or_None).
    """
    cols = {}
    ncols = 0
    for v in system.variables:
        if v in system.nonneg:
            cols[v] = (ncols, None)
            ncols += 1
        else:
            cols[v] = (ncols, ncols + 1)
            ncols += 2
    nslack = len(system.inequalities)
    rows, rhs = [], []
    Z = Fraction(0)
    for k, (coeffs, b) in enumerate(system.equalities + system.inequalities):
        row = [Z] * (ncols + nslack)
        for v, c in coeffs.items():
            plus, minus = cols[v]
            row[plus] += c
            if minus is not None:
                row[minus] -= c
        if k >= len(system.equalities):
            row[ncols + (k - len(system.equalities))] = Fraction(-1)
        if b < 0:
            row = [-x for x in row]
            b = -b
        rows.append(row)
        rhs.append(Fraction(b))
    return rows, rhs, cols, ncols + nslack


def solve_feasibility(system, objective=None, pivot_limit=DEFAULT_PIVOT_LIMIT,
                      warm_start=None):
    """Find a feasible point, optionally maximizing a rational objective.

    A warm-start assignment that verifies exactly short-circuits the
    search (feasibility mode only).  The returned assignment is
    re-verified exactly against the system; exceeding the pivot cap
    yields status "aborted", never a guess.
    """
    if warm_start is not None and objective is None \
            and system.check(warm_start):
        return FeasibilityResult(FEASIBLE, dict(warm_start))
    rows, rhs, cols, width = _standard_form(system)
    m = len(rows)
    Z = Fraction(0)
    # phase 1: artificial basis
    tab = _Tableau([row + [Z] * m for row in rows], list(rhs), width + m)
    for i in range(m):
        tab.rows[i][width + i] = Fraction(1)
        tab.basis[i] = width + i
    cost = [Z] * width + [Fraction(-1)] * m
    status = tab.maximize(cost, pivot_limit)
    if status == "aborted":
        return FeasibilityResult(ABORTED, pivots=tab.pivots)
    infeas = sum((tab.rhs[i] for i in range(m)
                  if tab.basis[i] >= width), Z)
    if infeas != 0:
        return FeasibilityResult(INFEASIBLE, pivots=tab.pivots)
    # drive leftover artificials out of the basis (or drop redundant rows)
    for i in range(m):
        if tab.basis[i] >= width:
            c = next((j for j in range(width) if tab.rows[i][j] != 0), None)
            if c is not None:
                tab.pivot(i, c)
    keep = [i for i in range(m) if tab.basis[i] < width]
    tab.rows = [tab.rows[i][:width] for i in keep]
    tab.rhs = [tab.rhs[i] for i in keep]
    tab.basis = [tab.basis[i] for i in keep]
    tab.ncols = width

    if objective is not None:
        cost = [Z] * width
        for v, c in objective.items():
            plus, minus = cols[v]
            cost[plus] += Fraction(c)
            if minus is not None:
                cost[minus] -= Fraction(c)
        status = tab.maximize(cost, pivot_limit)
        if status == "aborted":
            return FeasibilityResult(ABORTED, pivots=tab.pivots)
        if status == "unbounded":
            # feasible but no optimum; fall through with the current point
            pass

    values = [Z] * width
    for i, b in enumerate(tab.basis):
        values[b] = tab.rhs[i]
    assignment = {}
    for v, (plus, minus) in cols.items():
        assignment[v] = values[plus] - (values[minus] if minus is not None
                                        else Z)
    if not system.check(assignment):
        raise AssertionError("simplex produced an invalid feasible point")
    return FeasibilityResult(FEASIBLE, assignment, tab.pivots)


def enumerate_vertices(system, max_count=50, seed=0, tries=None,
                       pivot_limit=DEFAULT_PIVOT_LIMIT):
    """Collect distinct vertices by optimizing random rational objectives.

    Deterministic for a fixed seed.  For a bounded polytope every vertex
    is the unique optimum of some objective, so with enough tries this
    finds them all; no completeness is promised for a fixed try budget.
    """
    rng = random.Random(seed)
    if tries is None:
        tries = 8 * max_count
    vertices = []
    seen = set()
    for _ in range(tries):
        if len(vertices) >= max_count:
            break
        objective = {v: Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                     for v in system.variables}
        res = solve_feasibility(system, objective, pivot_limit)
        if res.status == INFEASIBLE:
            return []
        if res.status != FEASIBLE:
            continue
        key = tuple(res.assignment[v] for v in system.variables)
        if key not in seen:
            seen.add(key)
            vertices.append(res.assignment)
    return vertices
