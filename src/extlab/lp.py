"""Exact rational linear feasibility via two-phase primal simplex.

Systems are built symbolically (named variables, equality and >=
constraints, nonnegativity flags) and solved exactly over integer rows
(see _Tableau) with Dantzig's rule, switching to Bland's rule after 30
consecutive degenerate pivots until the objective moves again, so
termination is guaranteed.  A pivot updates each affected row only at
the pivot row's nonzeros, and takes a gcd only of the rows it scales.
Only the solution read out is a Fraction, and it is re-verified exactly
against the system, also in ints: each constraint is stored only in its
integer form (_int_row), made when it is added.  The tableau reads it,
LinearSystem.check sums it against the point put over one common
denominator, and dumps renders it as Fractions.  Vertex enumeration runs
phase 1 once and phase 2 per objective from a copy of its tableau, and
reads out each basis once.  A pivot cap turns pathological instances
into an explicit "aborted" verdict rather than a wrong answer.
"""

import hashlib
import math
import operator
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress

from .lattice import CapExceeded, cell_cap


FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
ABORTED = "aborted"

DEFAULT_PIVOT_LIMIT = 200000


class LinearSystem:
    """Ax = b, Cx >= d, with selected variables constrained nonnegative.

    Each constraint is stored once, in insertion order, as its integer
    form (see _int_row)."""

    def __init__(self):
        self.variables = []
        self._var_index = {}
        self.nonneg = set()
        self.equalities = []    # integer forms (_int_row)
        self.inequalities = []  # the same, meaning row . x >= rhs

    def add_variable(self, name, nonneg=True):
        if name in self._var_index:
            raise ValueError(f"duplicate variable {name!r}")
        self._var_index[name] = len(self.variables)
        self.variables.append(name)
        if nonneg:
            self.nonneg.add(name)

    def _row(self, coeffs, rhs):
        if not coeffs.keys() <= self._var_index.keys():
            name = next(v for v in coeffs if v not in self._var_index)
            raise ValueError(f"unknown variable {name!r}")
        return _int_row(coeffs, rhs)

    def add_eq(self, coeffs, rhs):
        self.equalities.append(self._row(coeffs, rhs))

    def add_ge(self, coeffs, rhs):
        self.inequalities.append(self._row(coeffs, rhs))

    def check(self, assignment):
        """Exactly verify a candidate assignment against every constraint.

        Values (ints or Fractions) are put over one common denominator,
        and each row, in its integer form (see _int_row), is summed in
        ints: row . x == rhs becomes sum(c * X[v]) == rhs * den.
        """
        for name in self.variables:
            if name not in assignment:
                return False
            if name in self.nonneg and assignment[name] < 0:
                return False
        values = [assignment[v] for v in self.variables]
        den = math.lcm(*(x.denominator for x in values))
        X = {v: x.numerator * (den // x.denominator)
             for v, x in zip(self.variables, values)}
        for rows, ok in ((self.equalities, operator.eq),
                         (self.inequalities, operator.ge)):
            for _, ints, b in rows:
                if not ok(sum(c * X[v] for v, c in ints.items()), b * den):
                    return False
        return True

    def dumps(self):
        """Canonical text, rows as Fractions (also used for report hashing)."""
        lines = [f"var {v}{' >= 0' if v in self.nonneg else ''}"
                 for v in self.variables]
        for kind, rows in (("==", self.equalities), (">=", self.inequalities)):
            for scale, ints, rhs in rows:
                terms = " + ".join(f"{Fraction(c, scale)}*{v}"
                                   for v, c in sorted(ints.items()))
                lines.append(f"{terms or '0'} {kind} {Fraction(rhs, scale)}")
        return "\n".join(lines) + "\n"

    def digest(self):
        return hashlib.sha256(self.dumps().encode()).hexdigest()[:16]


@dataclass
class FeasibilityResult:
    status: str
    assignment: dict = field(default_factory=dict)
    pivots: int = 0


def _reduce(row):
    """Divide an int row by the gcd of its entries (a positive scale)."""
    g = math.gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _exact(x):
    return x if isinstance(x, (int, Fraction)) else Fraction(x)


def _int_row(coeffs, rhs):
    """A constraint times the lcm of its denominators, its integer form
    (scale, {variable: int coefficient}, int rhs); zeros are dropped.

    Ints, bools and Fractions are read through their own numerator and
    denominator; any other value (a str, a float) is made a Fraction."""
    coeffs = {v: _exact(c) for v, c in coeffs.items()}
    rhs = _exact(rhs)
    scale = math.lcm(rhs.denominator,
                     *(c.denominator for c in coeffs.values()))
    return (scale,
            {v: c.numerator * (scale // c.denominator)
             for v, c in coeffs.items() if c},
            rhs.numerator * (scale // rhs.denominator))


def _nonzeros(row, n):
    """The (position, value) pairs of the nonzeros among row[:n]."""
    return [(j, row[j]) for j in compress(range(n), row)]


def _eliminate(row, f, p, nz):
    """row * p - f * prow, prow given by its nonzeros nz.

    Only the positions in nz change.  With p == 1 the row is a copy and
    keeps its scale, so no gcd is taken; otherwise it is scaled by p and
    divided by its gcd.
    """
    out = row[:] if p == 1 else [x * p for x in row]
    for j, y in nz:
        out[j] -= f * y
    return out if p == 1 else _reduce(out)


class _Tableau:
    """Simplex tableau over int rows; Dantzig's rule, Bland on stalls.

    Row i is a list of ints, rhs last, standing for itself divided by
    rows[i][basis[i]] > 0.  A fraction-free pivot divides the pivot row
    by its gcd, p its entry in the pivot column, and turns each row with
    a nonzero f there into row*p - f*prow, over its gcd only if p != 1
    (with p == 1 the row's scale, its basic entry, does not change).
    The update is sparse: the pivot row's nonzeros are listed once, and
    only those positions of an affected row are touched (window
    polytope pivot rows are 4-25% nonzero, and p is often 1, so most
    rows are a plain copy plus a few subtractions).  Reduced costs are
    an int row up to a positive scale, updated the same way.  No choice
    reads a positive row scale: Dantzig's rule compares entries of one
    row, the ratio test cross-multiplies, and Bland's rule, the phase-1
    verdict and the drive-out read signs, so every choice is the
    rational tableau's.  Pivots replace rows and never edit one in
    place, so copy() may share them.
    """

    def __init__(self, rows, ncols, basis):
        self.rows = rows          # list of lists, len ncols + 1 each
        self.ncols = ncols
        self.basis = basis
        self.pivots = 0

    def copy(self):
        """A tableau with the same rows, basis and pivot count."""
        tab = _Tableau(self.rows[:], self.ncols, self.basis[:])
        tab.pivots = self.pivots
        return tab

    def pivot(self, r, c):
        """Pivot on (r, c); returns the pivot row's nonzeros."""
        prow = self.rows[r]
        prow = self.rows[r] = _reduce([-x for x in prow] if prow[c] < 0
                                      else prow)
        p = prow[c]
        nz = _nonzeros(prow, len(prow))
        for i, other in enumerate(self.rows):
            f = other[c]
            if i != r and f:
                self.rows[i] = _eliminate(other, f, p, nz)
        self.basis[r] = c
        self.pivots += 1
        return nz

    def maximize(self, cost, pivot_limit):
        """Maximize cost . x (cost a list of ints) over the current basis.

        Uses Dantzig's rule while the objective makes progress and falls
        back to Bland's rule (guaranteed termination) after a stall.
        Returns "optimal", "unbounded", or "aborted".
        """
        m = len(self.rows)
        # reduced costs relative to current basis, up to a positive scale
        red = list(cost)
        for r, c in enumerate(self.basis):
            f = red[c]
            if f:
                row = self.rows[r]
                red = _eliminate(red, f, row[c], _nonzeros(row, self.ncols))
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
            leave = None
            for i in range(m):
                a = self.rows[i][enter]
                if a > 0:
                    b = self.rows[i][-1]   # ratio b/a against lb/la
                    if leave is None or b * la < lb * a or (
                            b * la == lb * a
                            and self.basis[i] < self.basis[leave]):
                        leave, lb, la = i, b, a
            if leave is None:
                return "unbounded"
            stall = stall + 1 if lb == 0 else 0
            nz = self.pivot(leave, enter)
            if nz[-1][0] == self.ncols:  # red has no rhs entry
                nz.pop()
            red = _eliminate(red, red[enter], self.rows[leave][enter], nz)


def _standard_form(system):
    """Split free variables, add slacks and artificials: int rows.

    Each constraint, in its integer form (_int_row), is negated if its
    rhs is negative and ends in its rhs; its basic artificial holds the
    scale.  Returns (rows, colmap, width): width counts original and
    slack columns, colmap maps a variable to (plus_col, minus_col_or_None).
    A tableau of more than cell_cap() entries raises CapExceeded before
    any row is built.
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
    neq = len(system.equalities)
    constraints = system.equalities + system.inequalities
    m = len(constraints)
    width = ncols + m - neq
    if m * (width + m + 1) > cell_cap():
        raise CapExceeded(f"simplex tableau needs {m} x {width + m + 1} "
                          f"= {m * (width + m + 1)} entries")
    rows = []
    for k, (scale, ints, rhs) in enumerate(constraints):
        sign = -1 if rhs < 0 else 1
        row = [0] * (width + m + 1)
        for v, c in ints.items():
            plus, minus = cols[v]
            row[plus] = c * sign
            if minus is not None:
                row[minus] = -row[plus]
        if k >= neq:
            row[ncols + k - neq] = -sign * scale
        row[width + k] = scale
        row[-1] = rhs * sign
        rows.append(row)
    return rows, cols, width


def _phase1(system, pivot_limit):
    """Standard form, artificial phase and drive-out: returns (status,
    tableau, colmap), on FEASIBLE a feasible basis over the original and
    slack columns, redundant rows dropped."""
    rows, cols, width = _standard_form(system)
    m = len(rows)
    tab = _Tableau(rows, width + m, list(range(width, width + m)))
    if tab.maximize([0] * width + [-1] * m, pivot_limit) == "aborted":
        return ABORTED, tab, cols
    if any(row[-1] for row, b in zip(tab.rows, tab.basis) if b >= width):
        return INFEASIBLE, tab, cols
    # drive leftover artificials out of the basis (or drop redundant rows)
    for i in range(m):
        if tab.basis[i] >= width:
            c = next((j for j in range(width) if tab.rows[i][j] != 0), None)
            if c is not None:
                tab.pivot(i, c)
    keep = [i for i in range(m) if tab.basis[i] < width]
    tab.rows = [tab.rows[i][:width] + tab.rows[i][-1:] for i in keep]
    tab.basis = [tab.basis[i] for i in keep]
    tab.ncols = width
    return FEASIBLE, tab, cols


def _maximize(tab, cols, objective, pivot_limit):
    """tab.maximize's verdict on a rational objective."""
    # each variable owns its columns: the objective's integer form
    cost = [0] * tab.ncols
    for v, c in _int_row(objective, 0)[1].items():
        plus, minus = cols[v]
        cost[plus] = c
        if minus is not None:
            cost[minus] = -c
    return tab.maximize(cost, pivot_limit)


def _phase2(system, tab, cols, objective, pivot_limit):
    """Maximize a rational objective (if any) from phase 1's basis in
    tab, then read the point out and check it against the system."""
    # "unbounded" is feasible with no optimum: keep the current point
    if objective is not None \
            and _maximize(tab, cols, objective, pivot_limit) == "aborted":
        return FeasibilityResult(ABORTED, pivots=tab.pivots)
    Z = Fraction(0)
    values = [Z] * tab.ncols
    for row, b in zip(tab.rows, tab.basis):
        values[b] = Fraction(row[-1], row[b])
    assignment = {}
    for v, (plus, minus) in cols.items():
        assignment[v] = values[plus] - (values[minus] if minus is not None
                                        else Z)
    if not system.check(assignment):
        raise AssertionError("simplex produced an invalid feasible point")
    return FeasibilityResult(FEASIBLE, assignment, tab.pivots)


def solve_feasibility(system, objective=None, pivot_limit=DEFAULT_PIVOT_LIMIT,
                      warm_start=None):
    """Find a feasible point, optionally maximizing a rational objective.

    A warm-start assignment that verifies exactly short-circuits the
    search (feasibility mode only).  The returned assignment is
    re-verified exactly against the system; exceeding the pivot cap
    yields status "aborted", never a guess.  A tableau of more than
    cell_cap() entries raises CapExceeded before any row is built.
    """
    if warm_start is not None and objective is None \
            and system.check(warm_start):
        return FeasibilityResult(FEASIBLE, dict(warm_start))
    status, tab, cols = _phase1(system, pivot_limit)
    if status != FEASIBLE:
        return FeasibilityResult(status, pivots=tab.pivots)
    return _phase2(system, tab, cols, objective, pivot_limit)


def enumerate_vertices(system, max_count=50, seed=0,
                       pivot_limit=DEFAULT_PIVOT_LIMIT):
    """Collect up to max_count distinct vertices by optimizing at most
    8 * max_count random rational objectives.

    Deterministic for a fixed seed.  For a bounded polytope every vertex
    is the unique optimum of some objective, so with enough tries this
    would find them all; the fixed try budget promises no completeness.
    Phase 1 runs once; each try runs phase 2 on a copy of its tableau,
    phase 1's pivots counted, exactly as solve_feasibility would.  A
    basis (a set of columns) has one point, so a try ending on a basis
    read before is skipped: its point is neither read out nor checked.
    """
    rng = random.Random(seed)
    if max_count <= 0:
        return []
    status, tab, cols = _phase1(system, pivot_limit)
    if status != FEASIBLE:
        return []
    vertices, seen, bases = [], set(), set()
    for _ in range(8 * max_count):
        if len(vertices) >= max_count:
            break
        objective = {v: Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                     for v in system.variables}
        run = tab.copy()
        if _maximize(run, cols, objective, pivot_limit) == "aborted" \
                or frozenset(run.basis) in bases:
            continue
        bases.add(frozenset(run.basis))
        point = _phase2(system, run, cols, None, pivot_limit).assignment
        key = tuple(point[v] for v in system.variables)
        if key not in seen:
            seen.add(key)
            vertices.append(point)
    return vertices
