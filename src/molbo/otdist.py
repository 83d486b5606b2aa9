"""Optimal-transport dissimilarity between molecules.

The measure matches atom weight across two molecules, implicit hydrogens
included, as if both were hydrogen-expanded.  Matched weight pays an
element-mismatch penalty plus a bond-environment penalty (one minus the
multiset-Jaccard overlap of the two atoms' bond profiles); unmatched
weight pays one per unit on each side.  The original
inequality-constrained program is solved exactly in its
balanced-transportation reformulation: each side gains a sink node whose
supply/demand is the other molecule's total weight, penalty cells cost
one, and the sink-sink corner costs zero.

The element-mismatch penalty is the finite constant ``MISMATCH_PENALTY``
rather than infinity: leaving one unit unmatched on both sides costs 2,
so any finite penalty above 2 keeps mismatched elements out of optimal
plans while the program stays well posed.

Atoms with equal (element, bond profile) are interchangeable for this
cost structure, so both solvers work on classes of them, and
``_profile_cost`` is the one place ``c_str`` is computed.  ``solve_ot``
is the reference: it expands hydrogens, groups the atoms into classes in
sorted order, solves the whole class-level problem and returns the plan
expanded back to atom level by uniform splitting, which preserves
feasibility and cost.  ``build_costs`` gives the atom-level matrices of
the same program.

``distance_vectors`` computes the four costs of many pairs in one block
pass, and ``distance_vector`` is its one-pair call.  They need only the
optimal costs, and split the problem by element.  Because
``MISMATCH_PENALTY`` exceeds 2, no optimal plan moves weight between
elements, so the program is a sum of independent per-element blocks,
each with its own pair of sinks.  Every block cost is computed in unit
weights.  The pass turns the molecules' class tables into count rows over
their sorted key set and pre-matches every pair at once: the units of
equal bond profiles match at cost 0, which some optimal plan does
because ``c_str`` is a metric, leaving ``max(a - b, 0)`` on each side.
``np.add.reduceat`` gives each element's residual totals, and a residual
costs the larger total when one side is empty (a one-sided element
included) or every residual profile has at most one bond (hydrogen,
halogens).  Only residuals with a profile of two or more bonds stay in
Python: a cheapest-first fill when one side has a single class, and the
transportation simplex when both sides have two or more.  All atoms of
one element share one mass, so the mass-weighted block is the unit block
scaled by that mass and one solve serves both weight modes.  The per-pair
sums run element by element in sorted order, so a pair gets the same
bits in a block of any size.

Each molecule caches one class table for this path: the count of each
``(element, bond profile)`` class, implicit hydrogens counted into their
classes (profile: one single bond to the parent's element) without being
built, and its total unit and mass weights.  A join product's tally is
its reagents' tallies with the classes of the new bond's two ends moved
and their implicit hydrogens changed by the free-valence difference; a
reagent with no table yet is built first, by a loop over origins.
``distance_vector`` is symmetric bit for bit, as OTMANN's distance is:
every step but the simplex treats the two sides alike, and the simplex,
which may round differently on a transposed problem, gets each residual
with its sides in one canonical order (``_residual_cost``).
"""

from __future__ import annotations

import functools
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import SolverFailure
from .molgraph import (
    PERIODIC_TABLE,
    Molecule,
    WeightMode,
    add_explicit_hydrogens,
    atom_weight,
    bond_profile,
    hydrogen_bond,
)

MISMATCH_PENALTY = 10.0


@dataclass(frozen=True)
class DistanceConfig:
    weight_mode: WeightMode
    normalize: bool

    @property
    def label(self) -> str:
        return f"{self.weight_mode.value}_{'norm' if self.normalize else 'raw'}"


#: The four weight/normalization combinations, in fixed reporting order.
CONFIG_ORDER: tuple[DistanceConfig, ...] = (
    DistanceConfig(WeightMode.UNIT, False),
    DistanceConfig(WeightMode.UNIT, True),
    DistanceConfig(WeightMode.MASS, False),
    DistanceConfig(WeightMode.MASS, True),
)


@dataclass(frozen=True)
class CostMatrices:
    """Atom-level penalty matrices: element mismatch and bond-profile
    dissimilarity (the latter bounded in [0, 1])."""

    c_lbl: np.ndarray
    c_str: np.ndarray


@dataclass(frozen=True)
class TransportPlan:
    """Transport plan over (n1+1) x (n2+1) cells; the last row/column are
    the non-matching sinks.  ``cost`` is the raw optimal objective."""

    u: np.ndarray
    cost: float


# ---------------------------------------------------------------------------
# Atom classes: aggregation of interchangeable atoms
# ---------------------------------------------------------------------------


_Profile = tuple[tuple[str, str, str], ...]


@dataclass(frozen=True)
class _ClassTable:
    """A molecule's transport class table, all that ``distance_vectors``
    reads: the member count of each ``(element, bond profile)`` class,
    implicit hydrogens included, and its total unit and mass weights."""

    tally: Counter
    total_units: int
    total_mass: float


def _class_table(mol: Molecule) -> _ClassTable:
    """The cached class table of ``mol``.  A join product's table is
    built from its reagents', and a reagent with no table yet is built
    first, by a loop over origins, so a chain of joins of any depth stays
    off the recursion limit."""
    todo = [mol]
    while todo:
        m = todo[-1]
        if m._transport_classes is not None:
            todo.pop()
            continue
        reagents = () if m._origin is None else m._origin[:2]
        missing = [r for r in reagents if r._transport_classes is None]
        if missing:
            todo += missing
            continue
        todo.pop()
        tally = _full_tally(m) if m._origin is None else _joined_tally(m)
        # Sorted keys fix the order in which the total mass is summed.
        keys = sorted(tally)
        counts = np.array([tally[key] for key in keys], dtype=float)
        masses = np.array([PERIODIC_TABLE[sym].atomic_mass for sym, _ in keys])
        m._transport_classes = _ClassTable(
            tally, sum(tally.values()), float((counts * masses).sum())
        )
    return mol._transport_classes


def _full_tally(mol: Molecule) -> Counter:
    tally: Counter = Counter()
    for i in range(mol.n_atoms):
        sym = mol.atoms[i].symbol
        tally[sym, bond_profile(mol, i)] += 1
        hydrogens = mol.free_valence(i)
        if hydrogens:
            tally["H", (hydrogen_bond(sym),)] += hydrogens
    return tally


def _joined_tally(mol: Molecule) -> Counter:
    """The tally of a join product from its reagents' tallies.  The
    product lists reagent a's atoms, then reagent b's, and the new bond
    changes only the profiles and implicit hydrogens of its two ends."""
    a, b, u, v = mol._origin
    tally = a._transport_classes.tally + b._transport_classes.tally
    for reagent, i, j in ((a, u, u), (b, v - a.n_atoms, v)):
        sym = mol.atoms[j].symbol
        tally[sym, bond_profile(reagent, i)] -= 1
        tally[sym, bond_profile(mol, j)] += 1
        tally["H", (hydrogen_bond(sym),)] += mol.free_valence(j) - reagent.free_valence(i)
    return +tally  # drops the classes the join emptied


@functools.lru_cache(maxsize=1 << 16)
def _profile_cost(p: _Profile, q: _Profile) -> float:
    """``c_str`` between two atoms or classes, which depends only on their
    bond profiles: one minus the multiset Jaccard overlap, and 0 when both
    profiles are empty."""
    inter = sum((Counter(p) & Counter(q)).values())
    union = len(p) + len(q) - inter
    return 1.0 - inter / union if union else 0.0


def _atom_keys(mol: Molecule) -> list[tuple[str, _Profile]]:
    """Each atom's class key (element, bond profile), in atom order."""
    return [(atom.symbol, bond_profile(mol, i)) for i, atom in enumerate(mol.atoms)]


def build_costs(m1: Molecule, m2: Molecule) -> CostMatrices:
    """Atom-level cost matrices between two molecules; rows and columns
    index the atoms of the hydrogen-expanded molecules.

    ``c_lbl`` is 0 for equal elements and MISMATCH_PENALTY otherwise;
    ``c_str(i, j) = 1 - |P_i n P_j| / |P_i u P_j|`` over the atoms' bond
    profiles (multiset min/max), and 0 when both profiles are empty.
    """
    a1 = _atom_keys(add_explicit_hydrogens(m1))
    a2 = _atom_keys(add_explicit_hydrogens(m2))
    c_lbl = np.array([[0.0 if s == t else MISMATCH_PENALTY for t, _ in a2] for s, _ in a1])
    c_str = np.array([[_profile_cost(p, q) for _, q in a2] for _, p in a1])
    return CostMatrices(c_lbl=c_lbl, c_str=c_str)


# ---------------------------------------------------------------------------
# Exact transportation simplex
# ---------------------------------------------------------------------------

_REDUCED_COST_TOL = 1e-10


def solve_transport(
    supply: np.ndarray, demand: np.ndarray, cost: np.ndarray
) -> tuple[float, np.ndarray]:
    """Exact primal simplex for the balanced transportation problem.

    Minimizes ``<X, cost>`` subject to row sums equal to ``supply``,
    column sums equal to ``demand`` and ``X >= 0``.  Entering variables
    follow the most-negative reduced cost with first-index ties; if the
    pivot budget is exceeded the rule switches to Bland's (first negative
    in row-major order), which cannot cycle.  Raises SolverFailure only
    if even that fails to terminate.
    """
    supply = np.asarray(supply, dtype=float)
    demand = np.asarray(demand, dtype=float)
    cost = np.asarray(cost, dtype=float)
    n, m = cost.shape
    total = supply.sum()
    if abs(total - demand.sum()) > 1e-7 * max(1.0, total):
        raise SolverFailure("unbalanced transportation problem")
    if np.any(supply < -1e-12) or np.any(demand < -1e-12):
        raise SolverFailure("negative supply or demand")

    x = np.zeros((n, m))
    row_basis: list[set[int]] = [set() for _ in range(n)]
    col_basis: list[set[int]] = [set() for _ in range(m)]

    # Minimum-cost initial basic feasible solution: repeatedly fill the
    # cheapest cell among active rows/columns, deactivating exactly one
    # node per step.  That yields n+m-1 basic cells (degenerate zeros
    # included) that provably form a spanning tree, and usually starts
    # at or very close to the optimum.
    s = supply.copy()
    d = demand.copy()
    by_cost = np.argsort(cost, axis=None, kind="stable")
    row_active = [True] * n
    col_active = [True] * m
    rows_left = n
    cols_left = m
    ptr = 0
    while True:
        flat = int(by_cost[ptr])
        i, j = divmod(flat, m)
        if not (row_active[i] and col_active[j]):
            ptr += 1
            continue
        q = min(s[i], d[j])
        x[i, j] = q
        row_basis[i].add(j)
        col_basis[j].add(i)
        s[i] -= q
        d[j] -= q
        if rows_left == 1 and cols_left == 1:
            break
        if rows_left == 1 or (cols_left > 1 and s[i] > d[j]):
            col_active[j] = False
            cols_left -= 1
        else:
            row_active[i] = False
            rows_left -= 1

    u = np.empty(n)
    v = np.empty(m)
    tol = _REDUCED_COST_TOL * max(1.0, float(np.abs(cost).max()))
    bland_after = 60 * (n + m) + 500
    hard_cap = bland_after * 40 + 20000

    for pivot in range(hard_cap + 1):
        # Duals from the spanning-tree basis (u[0] anchored at zero).
        u_known = np.zeros(n, dtype=bool)
        v_known = np.zeros(m, dtype=bool)
        u[0] = 0.0
        u_known[0] = True
        stack = [(0, True)]
        while stack:
            node, is_row = stack.pop()
            if is_row:
                for jj in row_basis[node]:
                    if not v_known[jj]:
                        v[jj] = cost[node, jj] - u[node]
                        v_known[jj] = True
                        stack.append((jj, False))
            else:
                for ii in col_basis[node]:
                    if not u_known[ii]:
                        u[ii] = cost[ii, node] - v[node]
                        u_known[ii] = True
                        stack.append((ii, True))

        reduced = cost - u[:, None] - v[None, :]
        if pivot < bland_after:
            flat = int(np.argmin(reduced))
            if reduced.flat[flat] >= -tol:
                break
        else:
            negatives = np.flatnonzero(reduced.ravel() < -tol)
            if negatives.size == 0:
                break
            flat = int(negatives[0])
        ei, ej = divmod(flat, m)

        # Unique tree path from row ei to column ej; the entering cell
        # closes the cycle.  Walking from the column end, flows alternate
        # -, +, -, ... along the path.
        parent: dict[tuple[int, bool], tuple[int, bool] | None] = {(ei, True): None}
        stack = [(ei, True)]
        found = False
        while stack and not found:
            node, is_row = stack.pop()
            if is_row:
                for jj in row_basis[node]:
                    key = (jj, False)
                    if key not in parent:
                        parent[key] = (node, True)
                        if jj == ej:
                            found = True
                            break
                        stack.append(key)
            else:
                for ii in col_basis[node]:
                    key = (ii, True)
                    if key not in parent:
                        parent[key] = (node, False)
                        stack.append(key)
        if not found:
            raise SolverFailure("basis lost tree structure")

        path_cells: list[tuple[int, int]] = []
        node = (ej, False)
        while parent[node] is not None:
            pnode = parent[node]
            if node[1]:  # row node; edge to parent column
                path_cells.append((node[0], pnode[0]))
            else:
                path_cells.append((pnode[0], node[0]))
            node = pnode

        minus_cells = path_cells[0::2]
        theta = min(x[c] for c in minus_cells)
        leaving = next(c for c in minus_cells if x[c] <= theta)
        for k, c in enumerate(path_cells):
            x[c] += theta if k % 2 else -theta
        x[ei, ej] = theta
        row_basis[ei].add(ej)
        col_basis[ej].add(ei)
        row_basis[leaving[0]].discard(leaving[1])
        col_basis[leaving[1]].discard(leaving[0])
        x[leaving] = 0.0
    else:
        raise SolverFailure("transportation simplex exceeded its pivot budget")

    return float(np.sum(x * cost)), x


# ---------------------------------------------------------------------------
# Distances
# ---------------------------------------------------------------------------


def solve_ot(
    m1: Molecule, m2: Molecule, cfg: DistanceConfig
) -> tuple[float, TransportPlan]:
    """Solve the transport reformulation exactly for one configuration.

    Returns the dissimilarity (divided by the summed total weights when
    ``cfg.normalize``) and the atom-level transport plan, whose row sums
    equal ``[w(a) for a in A1, m(M2)]`` and column sums equal
    ``[w(a) for a in A2, m(M1)]``.  Its rows and columns index the atoms
    of the hydrogen-expanded molecules, then the sinks.

    The program is solved over the classes of interchangeable atoms, in
    sorted ``(element, bond profile)`` order, and each class's flow is
    split evenly over its atoms.
    """
    m1, m2 = add_explicit_hydrogens(m1), add_explicit_hydrogens(m2)
    sides = []
    for mol in (m1, m2):
        groups: dict[tuple[str, _Profile], list[int]] = {}
        for i, key in enumerate(_atom_keys(mol)):
            groups.setdefault(key, []).append(i)
        keys = sorted(groups)
        weights = np.array([atom_weight(PERIODIC_TABLE[sym], cfg.weight_mode) for sym, _ in keys])
        supply = np.array([len(groups[key]) for key in keys], dtype=float) * weights
        sides.append((keys, [groups[key] for key in keys], supply, float(supply.sum())))
    (keys1, members1, y1, t1), (keys2, members2, y2, t2) = sides
    k1, k2 = len(keys1), len(keys2)
    c_full = np.ones((k1 + 1, k2 + 1))
    for a, (s, p) in enumerate(keys1):
        for b, (t, q) in enumerate(keys2):
            c_full[a, b] = (0.0 if s == t else MISMATCH_PENALTY) + _profile_cost(p, q)
    c_full[k1, k2] = 0.0
    cost, class_plan = solve_transport(np.append(y1, t2), np.append(y2, t1), c_full)

    n1, n2 = m1.n_atoms, m2.n_atoms
    u = np.zeros((n1 + 1, n2 + 1))
    for a, rows in enumerate(members1):
        for b, cols in enumerate(members2):
            f = class_plan[a, b]
            if f > 0.0:
                u[np.ix_(rows, cols)] = f / (len(rows) * len(cols))
        f = class_plan[a, k2]
        if f > 0.0:
            u[rows, n2] = f / len(rows)
    for b, cols in enumerate(members2):
        f = class_plan[k1, b]
        if f > 0.0:
            u[n1, cols] = f / len(cols)
    u[n1, n2] = class_plan[k1, k2]
    distance = cost / (t1 + t2) if cfg.normalize else cost
    return float(distance), TransportPlan(u=u, cost=float(cost))


#: Pairs per slab of the block pass, which bounds its count arrays.
_CHUNK = 1024


def _element_costs(
    tables: list[_ClassTable], left: np.ndarray, right: np.ndarray
) -> tuple[list[str], np.ndarray]:
    """Optimal unit-weight cost of every element block of the pairs
    ``(tables[left[k]], tables[right[k]])``, each block with its own sinks.

    Returns the elements of ``tables`` in sorted order and the
    ``len(left) x len(elements)`` costs, 0 where neither side has the
    element.  The tables become count rows over their sorted key set, in
    which each element's classes are contiguous.

    Equal profiles are matched first, at cost 0: ``min(n_p, m_p)`` units
    of every profile ``p`` the two sides share, which leaves the
    residuals ``max(a - b, 0)`` and ``max(b - a, 0)``.  This is exact.
    Take an optimal plan that matches fewer; some unit of ``p`` on side 1
    then goes to ``j != p`` and some unit of ``p`` on side 2 comes from
    ``i != p`` (either may be a sink).  Rerouting them as ``p -> p`` and
    ``i -> j`` changes the cost by ``c(i, j) - c(i, p) - c(p, j)``, which
    is never positive: ``c_str`` (one minus multiset Jaccard) is a metric
    between classes, and a sink costs 1 to every class and 0 to the other
    sink.  Repeating the exchange yields an optimal plan with the
    pre-matching.  What is left is the residual block with its own sinks,
    each sink smaller by the matched units, which the sink-to-sink cell
    carried at cost 0.

    Every ``c_str`` is at most 1, below the cost 2 of leaving one unit
    unmatched on both sides, so the residual plan matches
    ``min(t1, t2)`` units of the residual totals and leaves the
    difference to the sinks.  A residual block costs ``max(t1, t2)`` when
    one side is empty (a one-sided element included) and when every
    residual profile has at most one entry, since distinct such profiles
    cost exactly 1.  Those cells close in numpy; the rest have a profile
    of two or more bonds on a side and go to ``_residual_cost``, their
    residual classes pulled out in one pass per slab.
    """
    keys = sorted(set().union(*(t.tally for t in tables)))
    column = {key: c for c, key in enumerate(keys)}
    counts = np.zeros((len(tables), len(keys)), dtype=np.int64)
    for row, t in enumerate(tables):
        counts[row, [column[key] for key in t.tally]] = list(t.tally.values())
    syms = [sym for sym, _ in keys]
    starts = [c for c in range(len(keys)) if c == 0 or syms[c] != syms[c - 1]]
    element_of = np.cumsum(np.isin(np.arange(len(keys)), starts)) - 1
    polyvalent = np.array([len(p) > 1 for _, p in keys])
    profiles = [p for _, p in keys]
    costs = np.empty((len(left), len(starts)))
    for lo in range(0, len(left), _CHUNK):
        a, b = counts[left[lo:lo + _CHUNK]], counts[right[lo:lo + _CHUNK]]
        r1, r2 = np.maximum(a - b, 0), np.maximum(b - a, 0)
        t1 = np.add.reduceat(r1, starts, axis=1)
        t2 = np.add.reduceat(r2, starts, axis=1)
        slab = costs[lo:lo + _CHUNK]
        slab[:] = np.maximum(t1, t2)
        poly = np.logical_or.reduceat((r1 + r2 > 0) & polyvalent, starts, axis=1)
        ks, es = np.nonzero((t1 > 0) & (t2 > 0) & poly)
        if not len(ks):
            continue
        same = element_of == es[:, None]
        residuals = []
        for r in (r1, r2):
            sub = np.where(same, r[ks], 0)
            cells, cols = np.nonzero(sub)
            bounds = np.searchsorted(cells, np.arange(len(ks) + 1)).tolist()
            pulled = list(zip(cols.tolist(), sub[cells, cols].tolist()))
            residuals.append([pulled[bounds[c]:bounds[c + 1]] for c in range(len(ks))])
        for k, e, res1, res2 in zip(ks.tolist(), es.tolist(), *residuals):
            slab[k, e] = _residual_cost(
                [(profiles[c], n) for c, n in res1], [(profiles[c], n) for c, n in res2]
            )
    return [syms[c] for c in starts], costs


def _residual_cost(r1: list[tuple[_Profile, int]], r2: list[tuple[_Profile, int]]) -> float:
    """Unit-weight cost of a residual block, its classes on each side in
    sorted profile order: a cheapest-first fill when one side has a single
    class, and the transportation simplex otherwise.  The side with fewer
    classes (then the smaller list) goes first, so both orders of a pair
    pose the same problem."""
    if (len(r2), r2) < (len(r1), r1):
        r1, r2 = r2, r1
    t1 = sum(n for _, n in r1)
    t2 = sum(m for _, m in r2)
    if len(r1) == 1:
        p = r1[0][0]
        left = min(t1, t2)
        cost = float(abs(t1 - t2))
        for c, n in sorted((_profile_cost(p, q), n) for q, n in r2):
            take = min(n, left)
            cost += take * c
            left -= take
            if left == 0:
                break
        return cost
    rows = [[_profile_cost(p, q) for q, _ in r2] + [1.0] for p, _ in r1]
    rows.append([1.0] * len(r2) + [0.0])
    supply = np.array([n for _, n in r1] + [t2], dtype=float)
    demand = np.array([m for _, m in r2] + [t1], dtype=float)
    cost, _ = solve_transport(supply, demand, np.array(rows))
    return cost


def distance_vectors(firsts: Sequence[Molecule], seconds: Sequence[Molecule]) -> np.ndarray:
    """``distance_vector(firsts[k], seconds[k])`` for every ``k``, as a
    ``len(firsts) x 4`` array, in one block pass over their class tables."""
    row: dict[Molecule, int] = {}
    left = np.array([row.setdefault(m, len(row)) for m in firsts], dtype=np.intp)
    right = np.array([row.setdefault(m, len(row)) for m in seconds], dtype=np.intp)
    if not row:
        return np.zeros((0, 4))
    tables = [_class_table(m) for m in row]
    elements, costs = _element_costs(tables, left, right)
    # Element by element, in sorted order, as a per-pair sum would add them.
    cost_u = np.zeros(len(left))
    cost_m = np.zeros(len(left))
    for e, sym in enumerate(elements):
        cost_u += costs[:, e]
        cost_m += PERIODIC_TABLE[sym].atomic_mass * costs[:, e]
    units = np.array([t.total_units for t in tables])
    mass = np.array([t.total_mass for t in tables])
    return np.stack([
        cost_u,
        cost_u / (units[left] + units[right]),
        cost_m,
        cost_m / (mass[left] + mass[right]),
    ], axis=1)


def distance_vector(m1: Molecule, m2: Molecule) -> np.ndarray:
    """The four dissimilarities in fixed order:
    [unit/raw, unit/normalized, mass/raw, mass/normalized].

    Equal to ``solve_ot`` in each configuration, but computed per element:
    with ``MISMATCH_PENALTY`` above 2 no weight crosses elements, so the
    raw cost is the sum of independent per-element block costs
    (``_element_costs``).  Each block is solved once in unit weights; its
    mass-weighted cost is that cost times the element's atomic mass, since
    every atom of the block has that mass.  The normalized entries divide
    by the summed total weights, as ``solve_ot`` does; in unit weights
    that is the number of atoms plus implicit hydrogens.  The one-pair
    call of ``distance_vectors``.
    """
    return distance_vectors([m1], [m2])[0]
