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
``_profile_cost`` is the one place ``c_str`` is computed.  It returns
``c_str`` times ``_SCALE = lcm(1, ..., 12)``, an exact integer, since a
bond profile has at most six entries, and every transportation program
is solved on that integer scale.  ``solve_ot`` is the reference: it
expands hydrogens, groups the atoms into classes in sorted order, solves
the unit-weight class program once for all four configurations and
returns the plan in the configuration's weights, expanded back to atom
level by uniform splitting, which preserves feasibility and cost.
``build_costs`` gives the atom-level matrices of the same program.

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
halogens).  Residuals with a profile of two or more bonds are closed
exactly on the integer scale, where a unit left to a sink costs
``_SCALE``: a cheapest-first fill in int64 numpy, for all of a slab's
cells at once, when one side has a single class, and the transportation
simplex on Python ints, one cell at a time, when both sides have two or
more.  Each element block is thus its exact optimum, kept as an
integer on that scale, a value no solver or summation order can change.
A pair's unit distances sum its blocks in int64 and divide once, so each
is the exact optimum correctly rounded.  All atoms of one element share
one mass, so the mass-weighted block is the unit block scaled by that
mass and one solve serves both weight modes.  The mass sums run element
by element in sorted order, so a pair gets the same bits in a block of
any size.

Each molecule caches one class table for this path: the count of each
``(element, bond profile)`` class, implicit hydrogens counted into their
classes (profile: one single bond to the parent's element) without being
built, and its total unit and mass weights.  A join product's tally is
its reagents' tallies with the classes of the new bond's two ends moved
and their implicit hydrogens changed by the free-valence difference; a
reagent with no table yet is built first, by a loop over origins
(``molgraph.build_from_origins``, which also orders fingerprint builds).
``distance_vector`` is symmetric bit for bit, as OTMANN's distance is:
each element block is an exact optimum, the same for both orders of a
pair, and every other step treats the two sides alike.
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
    build_from_origins,
    hydrogen_bond,
)

MISMATCH_PENALTY = 10


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
    first, by a loop over origins (``molgraph.build_from_origins``), so a
    chain of joins of any depth stays off the recursion limit."""
    if mol._transport_classes is None:
        build_from_origins(mol, lambda m: m._transport_classes is not None, _build_class_table)
    return mol._transport_classes


def _build_class_table(m: Molecule) -> None:
    tally = _full_tally(m) if m._origin is None else _joined_tally(m)
    # Sorted keys fix the order in which the total mass is summed.
    keys = sorted(tally)
    counts = np.array([tally[key] for key in keys], dtype=float)
    masses = np.array([PERIODIC_TABLE[sym].atomic_mass for sym, _ in keys])
    m._transport_classes = _ClassTable(
        tally, sum(tally.values()), float((counts * masses).sum())
    )


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


#: The integer scale of every ``c_str``: ``lcm(1, ..., 12)``.  A bond
#: profile lists at most six bonds (sulfur's valence), so the union of
#: two profiles, the denominator of ``c_str``, divides it.
_SCALE = 27720


@functools.lru_cache(maxsize=1 << 16)
def _profile_cost(p: _Profile, q: _Profile) -> int:
    """``c_str`` between two atoms or classes times ``_SCALE``, an exact
    integer.  ``c_str`` depends only on the bond profiles: one minus their
    multiset Jaccard overlap, and 0 when both profiles are empty.  Raises
    ValueError for profiles whose union does not divide the scale."""
    inter = sum((Counter(p) & Counter(q)).values())
    union = len(p) + len(q) - inter
    if not union:
        return 0
    if _SCALE % union:
        raise ValueError(f"bond profiles with {union} entries in their union exceed the cost scale")
    return (union - inter) * (_SCALE // union)


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
    c_str = np.array([[_profile_cost(p, q) for _, q in a2] for _, p in a1]) / _SCALE
    return CostMatrices(c_lbl=c_lbl, c_str=c_str)


# ---------------------------------------------------------------------------
# Exact transportation simplex
# ---------------------------------------------------------------------------


def solve_transport(
    supply: Sequence[int], demand: Sequence[int], cost: Sequence[Sequence[int]]
) -> tuple[int, list[list[int]]]:
    """Exact primal simplex for the balanced transportation problem.

    Minimizes ``<X, cost>`` subject to row sums equal to ``supply``,
    column sums equal to ``demand`` and ``X >= 0``, and returns the
    optimal value and the plan as a list of rows, all Python ints:
    integral data has an integral optimal basis (Dantzig 1951), so every
    comparison is exact and the optimum has one value.

    The initial basis fills the cheapest active cell first, in a stable
    order of the costs.  Entering variables follow the most-negative
    reduced cost with first-index ties; once ``_pivot_budget``'s pivots
    are spent the rule switches to Bland's (first negative in row-major
    order), which cannot cycle.  Raises SolverFailure for an empty or
    mis-shaped program, an entry that is not a Python int (bools and
    numpy scalars included), unbalanced or negative marginals, and if
    even Bland's rule exceeds the budget.
    """
    supply, demand = list(supply), list(demand)
    n, m = len(supply), len(demand)
    if not (n and m and len(cost) == n and all(len(row) == m for row in cost)):
        raise SolverFailure("transportation problem is empty or mis-shaped")
    flat = [c for row in cost for c in row]
    if set(map(type, supply + demand + flat)) != {int}:
        raise SolverFailure("transportation data must be Python ints")
    if sum(supply) != sum(demand):
        raise SolverFailure("unbalanced transportation problem")
    if min(supply + demand) < 0:
        raise SolverFailure("negative supply or demand")

    # The basis is a spanning tree over n row nodes 0..n-1 and m column
    # nodes n..n+m-1, one edge per basic cell.
    x = [[0] * m for _ in range(n)]
    tree: list[list[int]] = [[] for _ in range(n + m)]

    # Minimum-cost initial basic feasible solution: repeatedly fill the
    # cheapest cell among active rows/columns, deactivating exactly one
    # node per step.  That yields n+m-1 basic cells (degenerate zeros
    # included) that provably form a spanning tree, and usually starts
    # at or very close to the optimum.
    s, d = supply[:], demand[:]
    row_active = [True] * n
    col_active = [True] * m
    rows_left = n
    cols_left = m
    for cell in sorted(range(n * m), key=flat.__getitem__):
        i, j = divmod(cell, m)
        if not (row_active[i] and col_active[j]):
            continue
        q = s[i] if s[i] < d[j] else d[j]
        x[i][j] = q
        tree[i].append(n + j)
        tree[n + j].append(i)
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

    bland_after, hard_cap = _pivot_budget(n, m)

    for pivot in range(hard_cap + 1):
        # Duals from the tree rooted at row 0 (u[0] anchored at zero),
        # with each node's parent and depth for the cycle below.
        dual = [0] * (n + m)
        parent = [-1] * (n + m)
        depth = [0] * (n + m)
        parent[0] = 0
        stack = [0]
        while stack:
            a = stack.pop()
            for b in tree[a]:
                if parent[b] < 0:
                    parent[b] = a
                    depth[b] = depth[a] + 1
                    dual[b] = (cost[a][b - n] if a < n else cost[b][a - n]) - dual[a]
                    stack.append(b)
        if -1 in parent:
            raise SolverFailure("basis lost tree structure")
        v = dual[n:]

        # The entering cell: the first of the most negative reduced costs,
        # or once the budget is spent the first negative one.
        entering = None
        low = 0
        for i in range(n):
            ui = dual[i]
            reduced = [c - ui - vj for c, vj in zip(cost[i], v)]
            if pivot < bland_after:
                r = min(reduced)
                if r < low:
                    low, entering = r, (i, reduced.index(r))
            else:
                entering = next(((i, j) for j, r in enumerate(reduced) if r < low), None)
                if entering is not None:
                    break
        if entering is None:
            break
        ei, ej = entering

        # The tree path from column ej to row ei; the entering cell closes
        # the cycle, and flows alternate -, +, -, ... from the column end.
        a, b = n + ej, ei
        head, tail = [a], [b]
        while a != b:
            if depth[a] >= depth[b]:
                a = parent[a]
                head.append(a)
            else:
                b = parent[b]
                tail.append(b)
        path = head + tail[-2::-1]
        cells = [(p, q - n) if p < n else (q, p - n) for p, q in zip(path, path[1:])]
        theta = min(x[i][j] for i, j in cells[0::2])
        li, lj = next((i, j) for i, j in cells[0::2] if x[i][j] <= theta)
        for k, (i, j) in enumerate(cells):
            x[i][j] += theta if k % 2 else -theta
        x[ei][ej] = theta
        tree[ei].append(n + ej)
        tree[n + ej].append(ei)
        tree[li].remove(n + lj)
        tree[n + lj].remove(li)
        x[li][lj] = 0
    else:
        raise SolverFailure("transportation simplex exceeded its pivot budget")

    return sum(a * c for xs, cs in zip(x, cost) for a, c in zip(xs, cs)), x


def _pivot_budget(n: int, m: int) -> tuple[int, int]:
    """Pivots of an ``n x m`` transportation simplex by the most-negative
    rule before it switches to Bland's, and pivots in all."""
    bland_after = 60 * (n + m) + 500
    return bland_after, bland_after * 40 + 20000


def _with_sinks(n1: list[int], n2: list[int], costs: list[list[int]]) -> tuple[list, list, list]:
    """The balanced program of class counts ``n1``, ``n2`` and scaled
    class-to-class ``costs``: a sink on each side holds the other side's
    total at ``_SCALE`` per unit, and the sink-to-sink cell costs 0."""
    rows = [row + [_SCALE] for row in costs]
    return n1 + [sum(n2)], n2 + [sum(n1)], rows + [[_SCALE] * len(n2) + [0]]


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

    Every configuration solves one program: unit weights over the atom
    classes in sorted ``(element, bond profile)`` order, on the integer
    scale with ``_with_sinks``' sinks, two classes costing their
    ``_profile_cost`` plus ``MISMATCH_PENALTY * _SCALE`` across elements.
    No optimal plan moves weight between elements, so the weighted plan
    is the unit plan with each class's flows times its atoms' weight, and
    the sink-to-sink corner holds the matched weight.  Each class's flow
    is split evenly over its atoms.  The unit distances are the exact
    integer optimum divided once, ``distance_vector``'s bits.
    """
    m1, m2 = add_explicit_hydrogens(m1), add_explicit_hydrogens(m2)
    sides = []
    for mol in (m1, m2):
        groups: dict[tuple[str, _Profile], list[int]] = {}
        for i, key in enumerate(_atom_keys(mol)):
            groups.setdefault(key, []).append(i)
        keys = sorted(groups)
        weights = [atom_weight(PERIODIC_TABLE[sym], cfg.weight_mode) for sym, _ in keys]
        sides.append((keys, [groups[key] for key in keys], weights))
    (keys1, members1, w1), (keys2, members2, w2) = sides
    k1, k2 = len(keys1), len(keys2)
    supply, demand, cost = _with_sinks(
        [len(rows) for rows in members1], [len(cols) for cols in members2],
        [[(0 if s == t else MISMATCH_PENALTY * _SCALE) + _profile_cost(p, q) for t, q in keys2]
         for s, p in keys1])
    _, class_plan = solve_transport(supply, demand, cost)
    # The weighted class plan, its corner the matched weight, and its cost times ``_SCALE``.
    flows = [[f * w for f in row] for row, w in zip(class_plan, w1)]
    flows.append([f * w for f, w in zip(class_plan[k1], w2)] + [sum(sum(r[:k2]) for r in flows)])
    scaled = sum(f * c for fs, cs in zip(flows, cost) for f, c in zip(fs, cs))

    n1, n2 = m1.n_atoms, m2.n_atoms
    u = np.zeros((n1 + 1, n2 + 1))
    for a, rows in enumerate(members1):
        for b, cols in enumerate(members2):
            f = flows[a][b]
            if f > 0.0:
                u[np.ix_(rows, cols)] = f / (len(rows) * len(cols))
        f = flows[a][k2]
        if f > 0.0:
            u[rows, n2] = f / len(rows)
    for b, cols in enumerate(members2):
        f = flows[k1][b]
        if f > 0.0:
            u[n1, cols] = f / len(cols)
    u[n1, n2] = flows[k1][k2]
    total = sum(map(sum, flows))  # both molecules' total weights
    distance = scaled / (_SCALE * total) if cfg.normalize else scaled / _SCALE
    return distance, TransportPlan(u=u, cost=scaled / _SCALE)


#: Pairs per slab of the block pass, which bounds its count arrays.
_CHUNK = 1024


def _element_costs(
    tables: list[_ClassTable], left: np.ndarray, right: np.ndarray
) -> tuple[list[str], np.ndarray]:
    """Optimal unit-weight cost of every element block of the pairs
    ``(tables[left[k]], tables[right[k]])``, each block with its own sinks.

    Returns the elements of ``tables`` in sorted order and the
    ``len(left) x len(elements)`` costs times ``_SCALE``, exact int64, 0
    where neither side has the element.  The tables become count rows
    over their sorted key set, in which each element's classes are
    contiguous.

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
    of two or more bonds on a side, and ``_residual_costs`` closes them
    exactly on the ``_SCALE`` integer scale, all of a slab's cells in one
    call.  Every cost is the exact optimum of its block.
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
    costs = np.empty((len(left), len(starts)), dtype=np.int64)
    for lo in range(0, len(left), _CHUNK):
        a, b = counts[left[lo:lo + _CHUNK]], counts[right[lo:lo + _CHUNK]]
        r1, r2 = np.maximum(a - b, 0), np.maximum(b - a, 0)
        t1 = np.add.reduceat(r1, starts, axis=1)
        t2 = np.add.reduceat(r2, starts, axis=1)
        slab = costs[lo:lo + _CHUNK]
        slab[:] = np.maximum(t1, t2) * _SCALE
        poly = np.logical_or.reduceat((r1 + r2 > 0) & polyvalent, starts, axis=1)
        ks, es = np.nonzero((t1 > 0) & (t2 > 0) & poly)
        if len(ks):
            same = element_of == es[:, None]
            slab[ks, es] = _residual_costs(
                np.where(same, r1[ks], 0), np.where(same, r2[ks], 0), profiles)
    return [syms[c] for c in starts], costs


def _residual_costs(r1: np.ndarray, r2: np.ndarray, profiles: list[_Profile]) -> np.ndarray:
    """Exact unit-weight costs, times ``_SCALE``, of residual blocks given
    as rows ``r1``, ``r2`` of class counts over the keys with ``profiles``,
    zero outside each block's element.

    The blocks' class-to-class costs are gathered for every block at once,
    one ``_profile_cost`` per distinct pair of keys.  A block with one
    class ``p`` on a side is a fill: ``p``'s side sends ``min(t1, t2)``
    units to the other side's classes cheapest first and the difference
    goes to a sink, which is optimal because every class is matched
    against the same ``p``.  With the other side's classes ordered by cost
    within each block, a class of ``n`` units takes ``clip(min(t1, t2) -
    units before it, 0, n)``, and the block costs ``|t1 - t2| * _SCALE``
    plus its classes' ``take * cost``.  Blocks with two or more classes on
    both sides are solved one at a time by the simplex, with ``_with_sinks``'
    sinks; the optimum of integer data is exact, so both orders of a pair
    give the same value."""
    t1, t2 = r1.sum(axis=1), r2.sum(axis=1)
    cell1, col1 = np.nonzero(r1)
    cell2, col2 = np.nonzero(r2)
    units1, units2 = r1[cell1, col1], r2[cell2, col2]
    w1 = np.bincount(cell1, minlength=len(r1))
    w2 = np.bincount(cell2, minlength=len(r2))
    # Each block's pairs of classes, side-1 class major: i1 and i2 index
    # the two classes of each pair in cell1 and cell2.
    repeats = w2[cell1]
    i1 = np.repeat(np.arange(len(cell1)), repeats)
    i2 = np.repeat((np.cumsum(w2) - w2)[cell1] - (np.cumsum(repeats) - repeats), repeats)
    i2 += np.arange(len(i1))
    cells = cell1[i1]
    width = len(profiles)
    pairs, inverse = np.unique(col1[i1] * width + col2[i2], return_inverse=True)
    cost = np.array([_profile_cost(profiles[i], profiles[j])
                     for i, j in (divmod(pair, width) for pair in pairs.tolist())],
                    dtype=np.int64)[inverse]
    totals = np.abs(t1 - t2) * _SCALE
    fill = (w1 == 1) | (w2 == 1)
    if fill.any():
        chosen = fill[cells]
        units = np.where(w1[cells] == 1, units2[i2], units1[i1])[chosen]
        order = np.lexsort((cost[chosen], cells[chosen]))
        filled, units, fill_cost = cells[chosen][order], units[order], cost[chosen][order]
        heads = np.flatnonzero(np.diff(filled, prepend=-1))
        before = np.cumsum(units) - units
        before -= np.repeat(before[heads], np.diff(heads, append=len(filled)))
        take = np.clip(np.minimum(t1, t2)[filled] - before, 0, units)
        totals[fill] += np.add.reduceat(take * fill_cost, heads)
    if not fill.all():
        flat, units1, units2 = cost.tolist(), units1.tolist(), units2.tolist()
        start1, start2 = (np.cumsum(w1) - w1).tolist(), (np.cumsum(w2) - w2).tolist()
        start = (np.cumsum(w1 * w2) - w1 * w2).tolist()
        w1, w2 = w1.tolist(), w2.tolist()
        for c in np.flatnonzero(~fill).tolist():
            a, b, o = w1[c], w2[c], start[c]
            totals[c], _ = solve_transport(*_with_sinks(
                units1[start1[c]:start1[c] + a], units2[start2[c]:start2[c] + b],
                [flat[o + b * i:o + b * (i + 1)] for i in range(a)]))
    return totals


def distance_vectors(firsts: Sequence[Molecule], seconds: Sequence[Molecule]) -> np.ndarray:
    """``distance_vector(firsts[k], seconds[k])`` for every ``k``, as a
    ``len(firsts) x 4`` array, in one block pass over their class tables.

    A pair's unit columns divide its summed integer block costs once, by
    ``_SCALE`` and by ``_SCALE`` times its total units; both operands are
    exact integers below 2**53, so each entry is the exact optimum,
    correctly rounded.  The mass columns add each element's block cost
    times its atomic mass, element by element in sorted order."""
    row: dict[Molecule, int] = {}
    left = np.array([row.setdefault(m, len(row)) for m in firsts], dtype=np.intp)
    right = np.array([row.setdefault(m, len(row)) for m in seconds], dtype=np.intp)
    if not row:
        return np.zeros((0, 4))
    tables = [_class_table(m) for m in row]
    elements, costs = _element_costs(tables, left, right)
    total = costs.sum(axis=1)
    cost_m = np.zeros(len(left))
    for e, sym in enumerate(elements):
        cost_m += PERIODIC_TABLE[sym].atomic_mass * (costs[:, e] / _SCALE)
    units = np.array([t.total_units for t in tables], dtype=np.int64)
    mass = np.array([t.total_mass for t in tables])
    return np.stack([
        total / _SCALE,
        total / (_SCALE * (units[left] + units[right])),
        cost_m,
        cost_m / (mass[left] + mass[right]),
    ], axis=1)


def distance_vector(m1: Molecule, m2: Molecule) -> np.ndarray:
    """The four dissimilarities in fixed order:
    [unit/raw, unit/normalized, mass/raw, mass/normalized].

    Equal to ``solve_ot`` in each configuration, the unit entries bit for
    bit, but computed per element (``_element_costs``): no weight crosses
    elements, each block is solved once in unit weights, and its
    mass-weighted cost is that cost times the element's atomic mass.  The
    normalized entries divide by the summed total weights, in unit
    weights the number of atoms plus implicit hydrogens.  The one-pair
    call of ``distance_vectors``.
    """
    return distance_vectors([m1], [m2])[0]
