"""Black-box objective functions over molecules.

The partition-coefficient and drug-likeness objectives are documented
surrogates: per-element contribution tables and desirability bands are
plain configuration data, not literature-fitted values.  They keep the
optimization loop reproducible without a chemistry-toolkit dependency;
the loop itself is objective-agnostic.

Shipped kinds:

* heavy_atom: ``-|heavy atom count - target|`` (deterministic test
  objective, maximal exactly at the target).
* logp: sum of per-element contributions over all atoms, implicit
  hydrogens included.
* penlogp: logp minus a complexity proxy minus a long-ring penalty
  (``max(0, size - 6)`` summed over a minimum cycle basis).
* qed: geometric mean of four trapezoidal desirability scores in (0, 1]
  (molecular mass, logp, H-bond donors, H-bond acceptors).

A QED evaluation computes each atom's implicit-hydrogen count once
(``molgraph.implicit_hydrogens``) and shares it between logp and the
H-bond counts; ``molecular_weight`` counts its own.  Each sum keeps the
expanded molecule's order, every atom and then one hydrogen per implicit
hydrogen in parent order, so a molecule and its hydrogen expansion score
the same bits: logp adds its terms one at a time with ``+=``, the mass
with ``sum``.

Only the penalized kind needs networkx, for the minimum cycle basis;
``ring_data`` imports it, so a process that never scores penalized logP
never loads it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Mapping

from .errors import MissingContribution
from .molgraph import Molecule, WeightMode, implicit_hydrogens, molecular_weight

#: Additive logP-style contributions per element.  Surrogate values:
#: hydrophobic atoms positive, polar atoms negative.
DEFAULT_CONTRIBUTIONS: dict[str, float] = {
    "H": 0.11,
    "B": 0.04,
    "C": 0.34,
    "N": -0.60,
    "O": -0.45,
    "F": 0.14,
    "P": -0.30,
    "S": 0.25,
    "Cl": 0.65,
    "Br": 0.86,
    "I": 1.10,
}


@dataclass(frozen=True)
class Band:
    """Trapezoidal desirability: rises a..b, flat 1 on b..c, falls c..d;
    never below ``floor`` so geometric means stay positive."""

    a: float
    b: float
    c: float
    d: float
    floor: float = 0.05

    def score(self, x: float) -> float:
        if self.b <= x <= self.c:
            t = 1.0
        elif self.a < x < self.b:
            t = (x - self.a) / (self.b - self.a)
        elif self.c < x < self.d:
            t = (self.d - x) / (self.d - self.c)
        else:
            t = 0.0
        return max(self.floor, t)


DEFAULT_QED_BANDS: dict[str, Band] = {
    "mass": Band(40.0, 160.0, 400.0, 600.0),
    "logp": Band(-2.0, 0.0, 3.0, 6.0),
    "donors": Band(-1.0, 0.0, 3.0, 6.0),
    "acceptors": Band(-1.0, 0.0, 6.0, 11.0),
}


class ObjectiveKind(enum.Enum):
    HEAVY_ATOM_TARGET = "heavy_atom"
    LOGP = "logp"
    PENLOGP = "penlogp"
    QED = "qed"


@dataclass(frozen=True)
class Objective:
    kind: ObjectiveKind
    target: int = 25
    contributions: Mapping[str, float] = field(
        default_factory=lambda: dict(DEFAULT_CONTRIBUTIONS)
    )
    qed_bands: Mapping[str, Band] = field(
        default_factory=lambda: dict(DEFAULT_QED_BANDS)
    )


def _missing(symbol: str) -> MissingContribution:
    return MissingContribution(f"no contribution configured for element {symbol}")


def _contribution_sum(obj: Objective, mol: Molecule, hydrogens: int) -> float:
    """Contributions added one at a time in the expanded molecule's order:
    every atom, then the ``hydrogens`` implicit hydrogens."""
    contributions = obj.contributions
    total = 0.0
    for atom in mol.atoms:
        try:
            total += contributions[atom.symbol]
        except KeyError:
            raise _missing(atom.symbol) from None
    if hydrogens:
        try:
            h = contributions["H"]
        except KeyError:
            raise _missing("H") from None
        for _ in range(hydrogens):
            total += h
    return total


def ring_data(mol: Molecule) -> tuple[list[set[int]], float, float]:
    """Minimum cycle basis plus the derived penalties.

    Returns (rings, long-ring penalty, fused-ring count): the penalty is
    ``sum(max(0, len(ring) - 6))`` and a ring counts as fused when it
    shares an atom with another basis ring.
    """
    import networkx as nx

    g = nx.Graph()
    heavy = set(mol.heavy_indices())
    g.add_nodes_from(heavy)
    g.add_edges_from((i, j) for (i, j) in mol.bonds if i in heavy and j in heavy)
    rings = [set(c) for c in nx.minimum_cycle_basis(g)]
    penalty = float(sum(max(0, len(r) - 6) for r in rings))
    fused = 0
    for i, r in enumerate(rings):
        if any(r & other for j, other in enumerate(rings) if j != i):
            fused += 1
    return rings, penalty, float(fused)


def _complexity_proxy(mol: Molecule, fused_rings: float) -> float:
    branched = sum(
        1
        for i in mol.heavy_indices()
        if sum(1 for j, _ in mol.neighbors(i) if mol.atoms[j].symbol != "H") >= 3
    )
    return 0.25 * branched + 0.5 * fused_rings


def _hbond_counts(mol: Molecule, hydrogens: list[int]) -> tuple[int, int]:
    """Donors (O or N with an implicit or explicit hydrogen) and
    acceptors (every O or N); ``hydrogens`` is ``implicit_hydrogens(mol)``."""
    atoms = mol.atoms
    donors = 0
    acceptors = 0
    for i, atom in enumerate(atoms):
        if atom.symbol not in ("O", "N"):
            continue
        acceptors += 1
        if hydrogens[i] or any(atoms[j].symbol == "H" for j, _ in mol.neighbors(i)):
            donors += 1
    return donors, acceptors


def evaluate(obj: Objective, mol: Molecule) -> float:
    """Objective value of a molecule whose atoms carry implicit hydrogens
    for their free valence; its hydrogen expansion scores the same.

    Deterministic and invariant under atom relabeling; isomorphic
    molecules always score equally.
    """
    if obj.kind is ObjectiveKind.HEAVY_ATOM_TARGET:
        return -abs(mol.heavy_atom_count() - obj.target)
    if obj.kind is ObjectiveKind.LOGP:
        return _contribution_sum(obj, mol, sum(implicit_hydrogens(mol)))
    if obj.kind is ObjectiveKind.PENLOGP:
        _, ring_penalty, fused = ring_data(mol)
        logp = _contribution_sum(obj, mol, sum(implicit_hydrogens(mol)))
        return logp - _complexity_proxy(mol, fused) - ring_penalty
    if obj.kind is ObjectiveKind.QED:
        per_atom = implicit_hydrogens(mol)
        logp = _contribution_sum(obj, mol, sum(per_atom))
        donors, acceptors = _hbond_counts(mol, per_atom)
        bands = obj.qed_bands
        scores = (
            bands["mass"].score(molecular_weight(mol, WeightMode.MASS)),
            bands["logp"].score(logp),
            bands["donors"].score(float(donors)),
            bands["acceptors"].score(float(acceptors)),
        )
        product = 1.0
        for s in scores:
            product *= s
        return product ** (1.0 / len(scores))
    raise ValueError(f"unknown objective kind {obj.kind!r}")

