"""Independent reference implementations used to pin expected values.

These deliberately avoid the library's own solver paths: transport costs
are checked against scipy's generic dense LP (both the original
inequality program with the explicit non-matching term and the balanced
equality reformulation), the GP marginal likelihood against a direct
inverse/determinant formula, and expected improvement against plain
Monte Carlo.  The bond-environment cost ``c_str`` is checked against a
plain multiset Jaccard over entry counts.  Fingerprint path descriptors are checked against the
plain enumeration that joins each path's tokens in both directions, and
per-element OT block costs against the transportation simplex on the
whole block, without matching equal bond profiles first.  The GP fit's
batched candidate draw is checked against one scalar draw per value.
"""

from collections import Counter

import numpy as np
from scipy.optimize import linprog

from molbo.gp import _PARAM_RANGES
from molbo.molgraph import Molecule, WeightMode, atom_weight
from molbo.otdist import _profile_cost, build_costs, solve_transport


def _weights(mol: Molecule, mode: WeightMode) -> np.ndarray:
    return np.array([atom_weight(a, mode) for a in mol.atoms])


def multiset_jaccard_distance(p, q) -> float:
    """``1 - sum(min) / sum(max)`` over the entry counts of two bond
    profiles; 0 when both are empty."""
    cp, cq = Counter(p), Counter(q)
    entries = cp.keys() | cq.keys()
    high = sum(max(cp[e], cq[e]) for e in entries)
    low = sum(min(cp[e], cq[e]) for e in entries)
    return 1.0 - low / high if high else 0.0


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


def block_cost_whole(c1, c2) -> float:
    """Unit-weight cost of one element's block with its own sinks, from
    its classes ``((profile, count), ...)`` on each side: closed forms for
    monovalent blocks and for one class on one side, otherwise the simplex
    on every class of both sides."""
    t1, t2 = sum(n for _, n in c1), sum(n for _, n in c2)
    if all(len(p) <= 1 for p, _ in c1 + c2):
        other = dict(c2)
        equal = sum(min(n, other.get(p, 0)) for p, n in c1)
        return float(max(t1, t2) - equal)
    if len(c1) == 1 or len(c2) == 1:
        if len(c1) != 1:
            c1, c2, t1, t2 = c2, c1, t2, t1
        p = c1[0][0]
        left = min(t1, t2)
        cost = float(abs(t1 - t2))
        for c, n in sorted((_profile_cost(p, q), n) for q, n in c2):
            take = min(n, left)
            cost += take * c
            left -= take
            if left == 0:
                break
        return cost
    rows = [[_profile_cost(p, q) for q, _ in c2] + [1.0] for p, _ in c1]
    rows.append([1.0] * len(c2) + [0.0])
    supply = np.array([n for _, n in c1] + [t2], dtype=float)
    demand = np.array([n for _, n in c2] + [t1], dtype=float)
    cost, _ = solve_transport(supply, demand, np.array(rows))
    return cost


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
