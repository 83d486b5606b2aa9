"""Independent reference implementations used to pin expected values.

These deliberately avoid the library's own solver paths: transport costs
are checked against scipy's generic dense LP (both the original
inequality program with the explicit non-matching term and the balanced
equality reformulation), the GP marginal likelihood against a direct
inverse/determinant formula, and expected improvement against plain
Monte Carlo.  The bond-environment cost ``c_str`` is checked against a
plain multiset Jaccard over entry counts, as an exact fraction.
Fingerprint path descriptors are checked against the plain enumeration
that joins each path's tokens in both directions, and per-element OT
block costs against the exact optimum of the whole block, without
matching equal bond profiles first, found by cancelling the negative
cycles of a plan on integer-scaled costs until none is left.  The GP
fit's batched candidate draw is checked against one scalar draw per
value, and the walk's draws against a walk whose every draw is numpy's own
``Generator.random``, ``integers`` or ``choice`` call.  The PSD
projection is checked against the ``eigh``-and-clamp projection that
runs on every stack, with no Cholesky certificate in front of it.
Template products are checked against the general merge that maps both
reagents' kept atoms to new indices and runs the ``Molecule``
constructor on the result.  The carboxylic-acid and aldehyde site finders
are checked against finders that build every carbon's neighbour lists
before testing them, and the logP, mass and QED objectives against sums
over a per-hydrogen generator of the expanded molecule's elements.
"""

import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog

from molbo.errors import EigenFailure, MissingContribution
from molbo.gp import _PARAM_RANGES
from molbo.molgraph import PERIODIC_TABLE, BondOrder, Molecule, WeightMode, atom_weight
from molbo.objectives import Objective
from molbo.optimizer import REAGENT_PAIR_PROBABILITY
from molbo.otdist import build_costs
from molbo.synthesis import _sorted_sites, record_synthesis, synthesize_detailed


def _weights(mol: Molecule, mode: WeightMode) -> np.ndarray:
    return np.array([atom_weight(a, mode) for a in mol.atoms])


def multiset_jaccard_distance(p, q) -> Fraction:
    """``1 - sum(min) / sum(max)`` over the entry counts of two bond
    profiles, exactly; 0 when both are empty."""
    cp, cq = Counter(p), Counter(q)
    entries = cp.keys() | cq.keys()
    high = sum(max(cp[e], cq[e]) for e in entries)
    low = sum(min(cp[e], cq[e]) for e in entries)
    return Fraction(high - low, high) if high else Fraction(0)


def ot_cost_inequality(m1: Molecule, m2: Molecule, mode: WeightMode) -> float:
    """Dense LP on the inequality form: matched weight pays the penalty
    matrices, every unit left unmatched on either side pays one."""
    cm = build_costs(m1, m2)
    n1, n2 = m1.n_atoms, m2.n_atoms
    w1, w2 = _weights(m1, mode), _weights(m2, mode)
    objective = (cm.c_lbl + cm.c_str - 2.0).ravel()
    rows = []
    bounds = []
    for i in range(n1):
        row = np.zeros((n1, n2))
        row[i, :] = 1.0
        rows.append(row.ravel())
        bounds.append(w1[i])
    for j in range(n2):
        col = np.zeros((n1, n2))
        col[:, j] = 1.0
        rows.append(col.ravel())
        bounds.append(w2[j])
    res = linprog(objective, A_ub=np.array(rows), b_ub=np.array(bounds), method="highs")
    assert res.status == 0, res.message
    return float(res.fun + w1.sum() + w2.sum())


def ot_cost_equality(m1: Molecule, m2: Molecule, mode: WeightMode) -> float:
    """Dense LP on the balanced transport form with sink row/column."""
    cm = build_costs(m1, m2)
    n1, n2 = m1.n_atoms, m2.n_atoms
    w1, w2 = _weights(m1, mode), _weights(m2, mode)
    c_full = np.ones((n1 + 1, n2 + 1))
    c_full[:n1, :n2] = cm.c_lbl + cm.c_str
    c_full[n1, n2] = 0.0
    y1 = np.append(w1, w2.sum())
    y2 = np.append(w2, w1.sum())
    rows = []
    rhs = []
    for i in range(n1 + 1):
        row = np.zeros((n1 + 1, n2 + 1))
        row[i, :] = 1.0
        rows.append(row.ravel())
        rhs.append(y1[i])
    for j in range(n2 + 1):
        col = np.zeros((n1 + 1, n2 + 1))
        col[:, j] = 1.0
        rows.append(col.ravel())
        rhs.append(y2[j])
    res = linprog(c_full.ravel(), A_eq=np.array(rows), b_eq=np.array(rhs), method="highs")
    assert res.status == 0, res.message
    return float(res.fun)


def dense_lml(k_matrix: np.ndarray, ys: np.ndarray, mean: float,
              noise_var: float, signal_scale: float) -> float:
    """Marginal likelihood via explicit inverse and determinant."""
    n = len(ys)
    ktilde = signal_scale**2 * k_matrix + noise_var * np.eye(n)
    r = ys - mean
    quad = r @ np.linalg.inv(ktilde) @ r
    _, logdet = np.linalg.slogdet(ktilde)
    return float(-0.5 * quad - 0.5 * logdet - 0.5 * n * np.log(2 * np.pi))


def mc_expected_improvement(mu: float, sigma: float, best: float,
                            n_samples: int, rng: np.random.Generator):
    """Monte-Carlo EI estimate and its standard error."""
    draws = mu + sigma * rng.standard_normal(n_samples)
    improvement = np.maximum(0.0, draws - best)
    return float(improvement.mean()), float(improvement.std(ddof=1) / np.sqrt(n_samples))


def path_descriptors_two_way(mol: Molecule, max_path_len: int) -> set[str]:
    """Every simple heavy-atom path with 0..max_path_len bonds, its token
    list joined forwards and backwards and the smaller string kept."""
    symbols = {i: mol.atoms[i].symbol for i in mol.heavy_indices()}
    heavy_adj = {
        i: [(j, order.symbol) for j, order in mol.neighbors(i) if j in symbols]
        for i in symbols
    }
    descriptors: set[str] = set()

    def extend(path: list[int], tokens: list[str]):
        descriptors.add(min("".join(tokens), "".join(reversed(tokens))))
        if (len(path) - 1) >= max_path_len:
            return
        on_path = set(path)
        for j, bond_sym in heavy_adj[path[-1]]:
            if j in on_path:
                continue
            extend(path + [j], tokens + [bond_sym, symbols[j]])

    for start in symbols:
        extend([start], [symbols[start]])
    return descriptors


def block_cost_exact(c1, c2) -> Fraction:
    """Exact optimal unit-weight cost of one element's block with its own
    sinks, from its classes ``((profile, count), ...)`` on each side,
    without matching equal bond profiles first.  Costs are the multiset
    Jaccard distances as fractions, scaled to integers by the least
    common multiple of their denominators; a unit to or from a sink costs
    one.  The plan starts from a cheapest-cell-first fill and cancels
    negative cycles of its residual graph (Klein's algorithm) until none
    is left, which is the optimality condition; each cancel lowers the
    integer cost, so the loop ends."""
    rows = [[multiset_jaccard_distance(p, q) for q, _ in c2] + [Fraction(1)] for p, _ in c1]
    rows.append([Fraction(1)] * len(c2) + [Fraction(0)])
    scale = math.lcm(*(f.denominator for row in rows for f in row))
    cost = [[int(f * scale) for f in row] for row in rows]
    supply = [n for _, n in c1] + [sum(n for _, n in c2)]
    demand = [n for _, n in c2] + [sum(n for _, n in c1)]
    x = [[0] * len(demand) for _ in supply]
    for i, j in sorted(itertools.product(range(len(supply)), range(len(demand))),
                       key=lambda c: cost[c[0]][c[1]]):
        q = min(supply[i], demand[j])
        x[i][j] += q
        supply[i] -= q
        demand[j] -= q
    while cycle := _negative_cycle(x, cost):
        theta = min(x[i][j] for i, j, sign in cycle if sign < 0)
        for i, j, sign in cycle:
            x[i][j] += sign * theta
    total = sum(a * c for xs, cs in zip(x, cost) for a, c in zip(xs, cs))
    return Fraction(total, scale)


def element_costs_exact(tables, left, right):
    """``otdist._element_costs`` from the exact oracle: the elements of
    ``tables`` in sorted order and, for each pair ``(tables[left[k]],
    tables[right[k]])``, the exact optimum of each element's block
    rounded once (the larger side's unit count when a side is empty)."""
    elements = sorted({sym for t in tables for sym, _ in t.tally})
    costs = np.zeros((len(left), len(elements)))
    for k, (i, j) in enumerate(zip(left, right)):
        for e, sym in enumerate(elements):
            c1, c2 = (tuple(sorted((p, n) for (s, p), n in tables[side].tally.items() if s == sym))
                      for side in (i, j))
            if c1 and c2:
                costs[k, e] = float(block_cost_exact(c1, c2))
            else:
                costs[k, e] = sum(n for _, n in c1 + c2)
    return elements, costs


def _negative_cycle(x, cost) -> list[tuple[int, int, int]]:
    """A negative-cost cycle of the residual graph of plan ``x`` as its
    cells ``(i, j, +1 or -1)``, or ``[]``: rows are nodes ``0..n-1`` and
    columns ``n..n+m-1``; a cell can always gain flow (row to column, at
    its cost) and can lose flow while it has some (column to row, at
    minus its cost).  Bellman-Ford from every node at once."""
    n, m = len(cost), len(cost[0])
    edges = [(i, n + j, cost[i][j]) for i in range(n) for j in range(m)]
    edges += [(n + j, i, -cost[i][j]) for i in range(n) for j in range(m) if x[i][j] > 0]
    dist = [0] * (n + m)
    pred = [-1] * (n + m)
    for _ in range(n + m):
        relaxed = -1
        for a, b, w in edges:
            if dist[a] + w < dist[b]:
                dist[b], pred[b], relaxed = dist[a] + w, a, b
        if relaxed < 0:
            return []
    for _ in range(n + m):  # walk back onto the cycle
        relaxed = pred[relaxed]
    cycle, node = [], relaxed
    while True:
        a = pred[node]
        cycle.append((a, node - n, 1) if a < n else (node, a - n, -1))
        node = a
        if node == relaxed:
            return cycle


def sample_one_at_a_time(names: list[str], rng: np.random.Generator,
                         count: int) -> list[dict[str, float]]:
    """GP search candidates drawn one value at a time: a scalar
    ``rng.uniform`` per hyperparameter, in candidate-major order, between
    the log bounds of log-scale parameters and exponentiated."""
    candidates = []
    for _ in range(count):
        params = {}
        for name in names:
            lo, hi, log_scale = _PARAM_RANGES[name]
            if log_scale:
                params[name] = float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
            else:
                params[name] = float(rng.uniform(lo, hi))
        candidates.append(params)
    return candidates


def pick_by_choice(rng: np.random.Generator, n: int, size: int) -> list[int]:
    """``size`` distinct indices below ``n`` drawn by numpy's own
    ``Generator.choice`` without replacement."""
    return rng.choice(n, size=size, replace=False).tolist()


def walk_by_choice(pool, conditions, past, oracle, rng, dag, max_failures, step):
    """The synthesis-graph walk of ``optimizer._walk``, every draw a call
    on ``rng`` itself: ``random()`` for the reagent count,
    ``integers(1, 3)`` for the condition count and ``pick_by_choice`` for
    the indices."""
    conditions = tuple(conditions)
    keys = {m.canonical_form for m in pool}
    failures = 0
    while failures < max_failures:
        size = min(2 if rng.random() < REAGENT_PAIR_PROBABILITY else 1, len(pool))
        reagents = [pool[k] for k in pick_by_choice(rng, len(pool), size)]
        q_size = min(int(rng.integers(1, 3)), len(conditions))
        conds = [conditions[k] for k in sorted(pick_by_choice(rng, len(conditions), q_size))]
        outcome = synthesize_detailed(reagents, conds, oracle)
        new = []
        if outcome is not None:
            products, template = outcome
            new = [p for p in sorted(products, key=lambda m: m.canonical_form)
                   if p.canonical_form not in keys and p.canonical_form not in past]
        if not new:
            failures += 1
            continue
        failures = 0
        if dag is not None:
            record_synthesis(dag, new, [r.canonical_form for r in reagents], template, conds,
                             step)
        step += 1
        pool.extend(new)
        keys.update(p.canonical_form for p in new)
        yield new


def psd_project_by_eigh(values: np.ndarray, floor: float) -> np.ndarray:
    """``kernel.psd_project`` with ``eigh`` on every stack: each member
    whose smallest eigenvalue is below ``floor`` (or NaN) has its
    eigenvalues clamped up to ``floor`` and is rebuilt; every other member
    comes back as it was."""
    if floor < 0:
        raise ValueError("floor must be nonnegative")
    mirrored = np.swapaxes(values, -1, -2)
    if not (np.abs(values - mirrored) <= 1e-12).all() and not np.allclose(
        values, mirrored, atol=1e-12, rtol=0.0
    ):
        raise ValueError("psd_project expects a symmetric matrix")
    try:
        w, v = np.linalg.eigh(values)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(str(exc)) from exc
    out = values.copy()
    low = ~(w[..., 0] >= floor)
    if low.any():
        w, v = np.maximum(w[low], floor), v[low]
        projected = (v * w[..., None, :]) @ np.swapaxes(v, -1, -2)
        out[low] = (projected + np.swapaxes(projected, -1, -2)) / 2.0
    return out


def combine_by_constructor(mol_a: Molecule, mol_b: Molecule, drop_a: set[int],
                           drop_b: set[int],
                           cross_bonds: list[tuple[int, int, BondOrder]]) -> Molecule:
    """Merge two heavy skeletons, dropping atoms and adding cross bonds,
    through the general constructor: ``mol_a``'s kept atoms, then
    ``mol_b``'s; ``mol_a``'s bonds, then ``mol_b``'s, then the cross
    bonds, which reference original indices (a-side, b-side)."""
    map_a = {}
    atoms = []
    for i, atom in enumerate(mol_a.atoms):
        if i not in drop_a:
            map_a[i] = len(atoms)
            atoms.append(atom)
    map_b = {}
    for i, atom in enumerate(mol_b.atoms):
        if i not in drop_b:
            map_b[i] = len(atoms)
            atoms.append(atom)
    bonds = {}
    for (i, j), order in mol_a.bonds.items():
        if i in map_a and j in map_a:
            bonds[(map_a[i], map_a[j])] = order
    for (i, j), order in mol_b.bonds.items():
        if i in map_b and j in map_b:
            bonds[(map_b[i], map_b[j])] = order
    for a, b, order in cross_bonds:
        bonds[(map_a[a], map_b[b])] = order
    return Molecule(atoms, bonds)


def carboxylic_acids_by_lists(mol: Molecule) -> list[tuple[int, int, int]]:
    """``synthesis.find_carboxylic_acids``, listing every carbon's
    carbonyl and hydroxyl neighbours before testing either."""
    sites = []
    for c in range(mol.n_atoms):
        if mol.atoms[c].symbol != "C":
            continue
        carbonyl = [
            j for j, o in mol.neighbors(c)
            if o is BondOrder.DOUBLE and mol.atoms[j].symbol == "O" and mol.degree(j) == 1
        ]
        hydroxyl = [
            j for j, o in mol.neighbors(c)
            if o is BondOrder.SINGLE and mol.atoms[j].symbol == "O"
            and mol.degree(j) == 1 and mol.free_valence(j) >= 1
        ]
        if carbonyl and hydroxyl:
            sites.append((c, carbonyl[0], hydroxyl[0]))
    return _sorted_sites(mol, sites)


def aldehydes_by_lists(mol: Molecule) -> list[tuple[int, int]]:
    """``synthesis.find_aldehydes``, listing every carbon's carbonyl
    neighbours and other neighbours before testing them."""
    sites = []
    for c in range(mol.n_atoms):
        if mol.atoms[c].symbol != "C" or mol.free_valence(c) < 1:
            continue
        carbonyl = [
            j for j, o in mol.neighbors(c)
            if o is BondOrder.DOUBLE and mol.atoms[j].symbol == "O" and mol.degree(j) == 1
        ]
        others = [j for j, _ in mol.neighbors(c) if j not in carbonyl]
        if carbonyl and len(others) <= 1:
            sites.append((c, carbonyl[0]))
    return _sorted_sites(mol, sites)


def expanded_elements(mol: Molecule):
    """The elements of the hydrogen-expanded molecule, in its atom order:
    every atom, then one hydrogen per implicit hydrogen in parent order."""
    yield from mol.atoms
    hydrogen = PERIODIC_TABLE["H"]
    for i in range(mol.n_atoms):
        for _ in range(mol.free_valence(i)):
            yield hydrogen


def weight_by_expansion(mol: Molecule, mode: WeightMode) -> float:
    """``molgraph.molecular_weight``: ``sum`` over the expanded elements."""
    return float(sum(atom_weight(a, mode) for a in expanded_elements(mol)))


def logp_by_expansion(obj: Objective, mol: Molecule) -> float:
    """The logP surrogate: ``+=`` over the expanded elements."""
    total = 0.0
    for atom in expanded_elements(mol):
        try:
            total += obj.contributions[atom.symbol]
        except KeyError:
            raise MissingContribution(
                f"no contribution configured for element {atom.symbol}"
            ) from None
    return total


def qed_by_expansion(obj: Objective, mol: Molecule) -> float:
    """The QED objective, each of its terms read from ``mol`` on its own."""
    donors = acceptors = 0
    for i, atom in enumerate(mol.atoms):
        if atom.symbol not in ("O", "N"):
            continue
        acceptors += 1
        if mol.free_valence(i) or any(mol.atoms[j].symbol == "H" for j, _ in mol.neighbors(i)):
            donors += 1
    bands = obj.qed_bands
    scores = (
        bands["mass"].score(weight_by_expansion(mol, WeightMode.MASS)),
        bands["logp"].score(logp_by_expansion(obj, mol)),
        bands["donors"].score(float(donors)),
        bands["acceptors"].score(float(acceptors)),
    )
    product = 1.0
    for s in scores:
        product *= s
    return product ** (1.0 / len(scores))
