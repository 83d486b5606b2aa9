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

``distance_vector`` needs only the optimal costs, and splits the problem
by element.  Because ``MISMATCH_PENALTY`` exceeds 2, no optimal plan
moves weight between elements, so the program is a sum of independent
per-element blocks, each with its own pair of sinks.  Every block cost
is computed in unit weights: a one-sided element costs its atom count.
A shared element first matches the units of equal bond profiles at cost
0, which some optimal plan does because ``c_str`` is a metric; the
residual classes then have closed forms when one side is empty, when
every profile has at most one bond (hydrogen, halogens) or when one side
has a single class, and only residuals with two or more classes on both
sides go to the transportation simplex.  All atoms of one element share
one mass, so the mass-weighted block is the unit block scaled by that
mass and one solve serves both weight modes.  Each molecule caches one
class table for this path: its element blocks, with implicit hydrogens
counted into their classes (profile: one single bond to the parent's
element) without being built, and its total unit and mass weights.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
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
class _ElementBlock:
    """The classes of one element in one molecule."""

    mass: float                   # atomic mass shared by every atom
    total: int                    # atom count of the element
    counts: tuple[int, ...]       # per-class member count
    profiles: tuple[_Profile, ...]
    monovalent: bool              # every profile has at most one entry


@dataclass(frozen=True)
class _AtomClasses:
    """A molecule's transport class table, all that ``distance_vector``
    reads: the element blocks of its ``(element, bond profile)`` classes,
    implicit hydrogens included, and its total unit and mass weights."""

    blocks: dict[str, _ElementBlock]
    total_units: int
    total_mass: float


def _atom_classes(mol: Molecule) -> _AtomClasses:
    if mol._transport_classes is not None:
        return mol._transport_classes
    tally: Counter = Counter()
    for i in range(mol.n_atoms):
        sym = mol.atoms[i].symbol
        tally[sym, bond_profile(mol, i)] += 1
        hydrogens = mol.free_valence(i)
        if hydrogens:
            tally["H", (hydrogen_bond(sym),)] += hydrogens
    # Sorted keys keep each element's classes contiguous, and fix the
    # order in which the total mass is summed.
    keys = sorted(tally)
    blocks = {}
    for sym, run in itertools.groupby(keys, key=lambda key: key[0]):
        run = list(run)
        counts = tuple(tally[key] for key in run)
        profiles = tuple(p for _, p in run)
        blocks[sym] = _ElementBlock(
            mass=PERIODIC_TABLE[sym].atomic_mass,
            total=sum(counts),
            counts=counts,
            profiles=profiles,
            monovalent=all(len(p) <= 1 for p in profiles),
        )
    counts = np.array([tally[key] for key in keys], dtype=float)
    masses = np.array([PERIODIC_TABLE[sym].atomic_mass for sym, _ in keys])
    out = _AtomClasses(
        blocks=blocks,
        total_units=sum(tally.values()),
        total_mass=float((counts * masses).sum()),
    )
    mol._transport_classes = out
    return out


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


def _block_cost(b1: _ElementBlock, b2: _ElementBlock) -> float:
    """Optimal unit-weight cost of one element's block with its own sinks.

    Equal profiles are matched first, at cost 0: ``min(n_p, m_p)`` units
    of every profile ``p`` the two sides share.  This is exact.  Take an
    optimal plan that matches fewer; some unit of ``p`` on side 1 then
    goes to ``j != p`` and some unit of ``p`` on side 2 comes from
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
    ``min(t1, t2)`` units and leaves the difference to the sinks.
    """
    other = dict(zip(b2.profiles, b2.counts))
    r1 = []
    for p, n in zip(b1.profiles, b1.counts):
        m = other.get(p, 0)
        if n > m:
            r1.append((p, n - m))
        if m:
            other[p] = max(m - n, 0)
    r2 = [(q, m) for q, m in other.items() if m]
    t1 = sum(n for _, n in r1)
    t2 = sum(m for _, m in r2)
    if not (r1 and r2):
        return float(t1 + t2)
    if b1.monovalent and b2.monovalent:
        # Distinct profiles of at most one entry cost exactly 1, so every
        # residual unit costs 1 matched or not.
        return float(max(t1, t2))
    if len(r1) == 1 or len(r2) == 1:
        # One class on one side: fill the other side's classes cheapest first.
        if len(r1) != 1:
            r1, r2 = r2, r1
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


def distance_vector(m1: Molecule, m2: Molecule) -> np.ndarray:
    """The four dissimilarities in fixed order:
    [unit/raw, unit/normalized, mass/raw, mass/normalized].

    Equal to ``solve_ot`` in each configuration, but computed per element:
    with ``MISMATCH_PENALTY`` above 2 no weight crosses elements, so the
    raw cost is the sum of independent per-element block costs.  Each
    block is solved once in unit weights; its mass-weighted cost is that
    cost times the element's atomic mass, since every atom of the block
    has that mass.  The normalized entries divide by the summed total
    weights, as ``solve_ot`` does; in unit weights that is the number of
    atoms plus implicit hydrogens.
    """
    if m1.canonical_form == m2.canonical_form:
        return np.zeros(4)
    cl1, cl2 = _atom_classes(m1), _atom_classes(m2)
    cost_u = cost_m = 0.0
    for sym in sorted(cl1.blocks.keys() | cl2.blocks.keys()):
        b1, b2 = cl1.blocks.get(sym), cl2.blocks.get(sym)
        if b1 is None or b2 is None:
            block = b1 or b2
            mass, cost = block.mass, float(block.total)
        else:
            mass, cost = b1.mass, _block_cost(b1, b2)
        cost_u += cost
        cost_m += mass * cost
    return np.array([
        cost_u,
        cost_u / (cl1.total_units + cl2.total_units),
        cost_m,
        cost_m / (cl1.total_mass + cl2.total_mass),
    ])
