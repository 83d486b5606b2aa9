"""Synthesis oracles, the synthesis DAG, and recipe extraction.

The oracle contract, ``synthesize_detailed``, maps (reagents, process
conditions) to a predicted product set and the name of the rule that
fired, or None when no reaction applies.  One deterministic rule loop
serves both oracles, each a library of ``ReactionTemplate`` rules gated
on required conditions:

* TEMPLATE: five bimolecular rewrite rules (esterification, amide
  coupling, Williamson ether, imine formation, N-alkylation); the
  condensation byproducts (water, HX) are dropped, each as the one
  terminal leaving atom it takes from its reagent.
* JOIN (testing): one rule that, under the ``join`` condition, bonds the
  first free-valence heavy atom (canonical order) of two reagents; the
  product records its reagents and the new bond (``Molecule._origin``).

Rules fire in library order; when a functional group matches several
sites, the one with the smallest canonical atom rank fires.  Every
product of either oracle is assembled from its reagents' state by
``molgraph.join_molecules``, never by the ``Molecule`` constructor.

The conditions are validated, and each library's rules whose required
conditions they meet are resolved, once per distinct conditions tuple;
a draw then loops over only those rules.  The oracle's library is chosen
by identity, so a draw whose conditions are id strings hashes nothing
in Python.

Every product node in the DAG keeps the reagents that produced it, so a
recipe is the target's ancestor closure in topological order.
"""

from __future__ import annotations

import enum
import functools
import json
from dataclasses import dataclass
from typing import Callable

from .errors import CycleDetected, InvalidMolecule, UnknownMolecule, ValenceExceeded
from .molgraph import BondOrder, Molecule, join_molecules, parse_smiles, strip_hydrogens
# perfbench/spans.py patches this name here to count hydrogen expansions.
from .molgraph import add_explicit_hydrogens  # noqa: F401


@dataclass(frozen=True)
class Condition:
    id: str


CONDITION_LIBRARY: tuple[Condition, ...] = (
    Condition("acid_cat"),
    Condition("base"),
    Condition("heat"),
    Condition("pd_cat"),
    Condition("neat"),
    Condition("join"),
)

_CONDITION_IDS = frozenset(c.id for c in CONDITION_LIBRARY)


class OracleKind(enum.Enum):
    TEMPLATE = "template"
    JOIN = "join"


def _condition_id(condition) -> str:
    return condition.id if isinstance(condition, Condition) else str(condition)


def _condition_ids(conditions) -> frozenset[str]:
    ids = set()
    for c in conditions:
        cid = _condition_id(c)
        if cid not in _CONDITION_IDS:
            raise ValueError(f"unknown condition {cid!r}")
        ids.add(cid)
    return frozenset(ids)


# ---------------------------------------------------------------------------
# Functional-group patterns (heavy-skeleton matching)
# ---------------------------------------------------------------------------


def _sites(mol: Molecule, pattern: Callable) -> list[tuple]:
    """``pattern(mol)``, computed once per skeleton and kept on it."""
    memo = mol._sites
    if pattern not in memo:
        memo[pattern] = pattern(mol)
    return memo[pattern]


# The finders test a bond order per neighbour.  On Python 3.11 reading an
# enum member as a class attribute (``BondOrder.SINGLE``) goes through
# ``EnumType.__getattr__``, several times slower than a module global.
_SINGLE, _DOUBLE = BondOrder.SINGLE, BondOrder.DOUBLE


def _canonical_rank(mol: Molecule) -> dict[int, int]:
    return {atom: pos for pos, atom in enumerate(mol.canonical_heavy_order())}


def _sorted_sites(mol: Molecule, sites: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    if len(sites) < 2:
        return sites
    rank = _canonical_rank(mol)
    return sorted(sites, key=lambda site: tuple(rank[a] for a in site))


def find_carboxylic_acids(mol: Molecule) -> list[tuple[int, int, int]]:
    """Sites (carbon, carbonyl O, hydroxyl O) of -COOH groups: a carbon's
    first double-bonded and first single-bonded terminal oxygen in
    neighbour order, the latter with a free slot."""
    atoms, adjacency = mol.atoms, mol._adjacency
    sites = []
    for c, nbrs in enumerate(adjacency):
        if atoms[c].symbol != "C":
            continue
        carbonyl = hydroxyl = None
        for j, o in nbrs:
            if len(adjacency[j]) != 1 or atoms[j].symbol != "O":
                continue
            if o is _DOUBLE:
                if carbonyl is None:
                    carbonyl = j
            elif o is _SINGLE and hydroxyl is None and mol.free_valence(j) >= 1:
                hydroxyl = j
        if carbonyl is not None and hydroxyl is not None:
            sites.append((c, carbonyl, hydroxyl))
    return _sorted_sites(mol, sites)


def _is_carboxyl_carbon(mol: Molecule, c: int) -> bool:
    return any(
        o is _DOUBLE and mol.atoms[j].symbol == "O"
        for j, o in mol.neighbors(c)
    )


def find_alcohols(mol: Molecule) -> list[tuple[int]]:
    """Hydroxyl oxygens bound to a non-carbonyl carbon."""
    sites = []
    for o in range(mol.n_atoms):
        if mol.atoms[o].symbol != "O" or mol.degree(o) != 1 or mol.free_valence(o) < 1:
            continue
        j, order = mol.neighbors(o)[0]
        if order is _SINGLE and mol.atoms[j].symbol == "C" and not _is_carboxyl_carbon(mol, j):
            sites.append((o,))
    return _sorted_sites(mol, sites)


def find_primary_amines(mol: Molecule) -> list[tuple[int]]:
    """-NH2 nitrogens: one single-bonded carbon neighbor, two free slots."""
    sites = []
    for n in range(mol.n_atoms):
        if mol.atoms[n].symbol != "N" or mol.degree(n) != 1 or mol.free_valence(n) != 2:
            continue
        j, order = mol.neighbors(n)[0]
        if order is _SINGLE and mol.atoms[j].symbol == "C":
            sites.append((n,))
    return _sorted_sites(mol, sites)


def find_amines_with_h(mol: Molecule) -> list[tuple[int]]:
    """Nitrogens with at least one free slot and only single bonds."""
    sites = []
    for n in range(mol.n_atoms):
        if mol.atoms[n].symbol != "N" or mol.free_valence(n) < 1:
            continue
        if all(o is _SINGLE for _, o in mol.neighbors(n)):
            sites.append((n,))
    return _sorted_sites(mol, sites)


def find_halide_carbons(mol: Molecule) -> list[tuple[int, int]]:
    """Sites (carbon, halogen) of C-X single bonds (X in Cl, Br, I)."""
    sites = []
    for c in range(mol.n_atoms):
        if mol.atoms[c].symbol != "C":
            continue
        for j, o in mol.neighbors(c):
            if o is _SINGLE and mol.atoms[j].symbol in ("Cl", "Br", "I"):
                sites.append((c, j))
    return _sorted_sites(mol, sites)


def find_aldehydes(mol: Molecule) -> list[tuple[int, int]]:
    """Sites (carbon, carbonyl O) of aldehyde groups (C(=O)H): a carbon
    with a free slot, a double-bonded terminal oxygen (the first in
    neighbour order is reported) and at most one other neighbour."""
    atoms, adjacency = mol.atoms, mol._adjacency
    sites = []
    for c, nbrs in enumerate(adjacency):
        if atoms[c].symbol != "C":
            continue
        carbonyl = None
        oxygens = 0
        for j, o in nbrs:
            if o is _DOUBLE and len(adjacency[j]) == 1 and atoms[j].symbol == "O":
                oxygens += 1
                if carbonyl is None:
                    carbonyl = j
        if carbonyl is not None and len(nbrs) - oxygens <= 1 and mol.free_valence(c) >= 1:
            sites.append((c, carbonyl))
    return _sorted_sites(mol, sites)


# ---------------------------------------------------------------------------
# Rule libraries
# ---------------------------------------------------------------------------


GroupPattern = Callable[[Molecule], list[tuple]]


@dataclass(frozen=True)
class ReactionTemplate:
    """A two-reagent rule as data: it bonds the first atom of reagent 0's
    first ``required_groups[0]`` site to that of reagent 1's first
    ``required_groups[1]`` site with a bond of ``order``, and drops the
    ``leaving`` atom, ``(reagent, position in its site)``, if not None."""

    name: str
    required_groups: tuple[GroupPattern, ...]
    required_conditions: frozenset[str]
    order: BondOrder = BondOrder.SINGLE
    leaving: tuple[int, int] | None = None


TEMPLATE_LIBRARY: tuple[ReactionTemplate, ...] = (
    ReactionTemplate(
        "esterification",
        (find_carboxylic_acids, find_alcohols),
        frozenset({"acid_cat"}),
        leaving=(0, 2),
    ),
    ReactionTemplate(
        "amide_coupling",
        (find_carboxylic_acids, find_primary_amines),
        frozenset({"heat"}),
        leaving=(0, 2),
    ),
    ReactionTemplate(
        "williamson_ether",
        (find_alcohols, find_halide_carbons),
        frozenset({"base"}),
        leaving=(1, 1),
    ),
    ReactionTemplate(
        "imine_formation",
        (find_aldehydes, find_primary_amines),
        frozenset({"acid_cat"}),
        order=BondOrder.DOUBLE,
        leaving=(0, 1),
    ),
    ReactionTemplate(
        "n_alkylation",
        (find_amines_with_h, find_halide_carbons),
        frozenset({"base"}),
        leaving=(1, 1),
    ),
)


def _join_site(mol: Molecule) -> list[tuple[int]]:
    """The first free-valence heavy atom in canonical order, if any."""
    for atom in mol.canonical_heavy_order():
        if mol.free_valence(atom) >= 1:
            return [(atom,)]
    return []


_JOIN_LIBRARY: tuple[ReactionTemplate, ...] = (
    ReactionTemplate("join", (_join_site, _join_site), frozenset({"join"})),
)

# Compared by identity: a dict keyed by the enum would run the Python-level
# ``Enum.__hash__`` on every draw.
_TEMPLATE, _JOIN = OracleKind.TEMPLATE, OracleKind.JOIN


def _rules(conditions) -> tuple[tuple[ReactionTemplate, ...], tuple[ReactionTemplate, ...]]:
    """The template and join libraries' rules whose required conditions
    ``conditions`` meet, each in library order; a ``ValueError`` names an
    unknown condition."""
    ids = _condition_ids(conditions)
    return tuple(
        tuple(t for t in library if t.required_conditions <= ids)
        for library in (TEMPLATE_LIBRARY, _JOIN_LIBRARY)
    )


@functools.lru_cache(maxsize=256)
def _memo_rules(conditions: tuple):
    """``_rules`` once per distinct conditions tuple."""
    return _rules(conditions)


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def synthesize_detailed(reagents, conditions, oracle: OracleKind):
    """The oracle: ``(products, name of the rule that fired)`` for the
    reagents under the conditions (``Condition`` objects or their id
    strings), or None when no reaction applies.  Reagents may be
    hydrogen-expanded; products are heavy-atom molecules whose hydrogens
    are implicit.

    The rules the conditions allow are resolved once per distinct
    conditions tuple, and a draw loops over only those; a draw none of
    whose rules the conditions allow returns None before it strips a
    reagent.  Functional-group sites are looked up once per reagent
    skeleton and reused by later draws.  Errors come in this order: the
    reagent count, an unknown condition, an unknown oracle.
    """
    reagents = list(reagents)
    if not 1 <= len(reagents) <= 3:
        raise ValueError("synthesize_detailed takes one to three reagents")
    conditions = tuple(conditions)
    try:
        template_rules, join_rules = _memo_rules(conditions)
    except TypeError:  # an unhashable entry, which _condition_ids rejects
        template_rules, join_rules = _rules(conditions)
    if oracle is _TEMPLATE:
        rules = template_rules
    elif oracle is _JOIN:
        rules = join_rules
    else:
        raise ValueError(f"unknown oracle {oracle!r}")
    if len(reagents) != 2 or not rules:
        return None
    heavy = [strip_hydrogens(m) for m in reagents]
    for template in rules:
        group_a, group_b = template.required_groups
        for i, j in ((0, 1), (1, 0)):
            sites_a = _sites(heavy[i], group_a)
            if not sites_a:
                continue
            sites_b = _sites(heavy[j], group_b)
            if not sites_b:
                continue
            sites = (sites_a[0], sites_b[0])
            leaving = None
            if template.leaving is not None:
                side, pos = template.leaving
                leaving = (side, sites[side][pos])
            try:
                product = join_molecules(heavy[i], heavy[j], sites[0][0], sites[1][0],
                                         template.order, leaving)
            except (ValenceExceeded, InvalidMolecule):
                continue  # template reports no-fire on invalid output
            return {product}, template.name
    return None


# ---------------------------------------------------------------------------
# Synthesis DAG
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SynthesisNode:
    molecule: str
    parents: tuple[str, ...]
    template: str | None
    conditions: frozenset[str]
    step: int


def _canon(molecule) -> str:
    return molecule if isinstance(molecule, str) else molecule.canonical_form


class SynthesisDag:
    """Provenance of every synthesized molecule, keyed by canonical form."""

    def __init__(self):
        self.nodes: dict[str, SynthesisNode] = {}

    def add_initial(self, molecule) -> SynthesisNode:
        canon = _canon(molecule)
        node = self.nodes.get(canon)
        if node is None:
            node = SynthesisNode(canon, (), None, frozenset(), 0)
            self.nodes[canon] = node
        return node


def record_synthesis(
    dag: SynthesisDag, products, parents, template, conditions, step: int
) -> SynthesisDag:
    """Insert product nodes; a product already reachable keeps its
    earliest recipe.  Parents must already be present."""
    parent_keys = tuple(_canon(p) for p in parents)
    for key in parent_keys:
        if key not in dag.nodes:
            raise UnknownMolecule(f"parent {key!r} not in synthesis DAG")
        if dag.nodes[key].step >= step:
            raise CycleDetected(
                f"step {step} does not follow parent step {dag.nodes[key].step}"
            )
    cond_ids = _condition_ids(conditions)
    for product in products:
        key = _canon(product)
        existing = dag.nodes.get(key)
        if existing is not None and existing.step <= step:
            continue
        dag.nodes[key] = SynthesisNode(key, parent_keys, template, cond_ids, step)
    return dag


@dataclass(frozen=True)
class RecipeStep:
    molecule: str
    parents: tuple[str, ...]
    template: str | None
    conditions: tuple[str, ...]
    step: int
    from_pool: bool


def recipe(dag: SynthesisDag, target) -> list[RecipeStep]:
    """Topologically ordered minimal ancestor closure of the target;
    initial-pool reagents come first, marked ``from_pool``."""
    key = _canon(target)
    if key not in dag.nodes:
        raise UnknownMolecule(f"{key!r} not in synthesis DAG")
    closure: dict[str, SynthesisNode] = {}
    frontier = [key]
    while frontier:
        k = frontier.pop()
        if k in closure:
            continue
        node = dag.nodes[k]
        closure[k] = node
        frontier.extend(node.parents)
    ordered = sorted(closure.values(), key=lambda n: (n.step, n.molecule))
    return [
        RecipeStep(
            molecule=n.molecule,
            parents=n.parents,
            template=n.template,
            conditions=tuple(sorted(n.conditions)),
            step=n.step,
            from_pool=not n.parents,
        )
        for n in ordered
    ]


def replay_recipe(steps: list[RecipeStep], oracle: OracleKind) -> Molecule:
    """Re-run a recipe's reactions and return the final product, a
    heavy-atom molecule whose hydrogens are implicit.

    Raises if any step fails to regenerate its recorded molecule.
    """
    made: dict[str, Molecule] = {}
    last = None
    for step in steps:
        if step.from_pool:
            made[step.molecule] = parse_smiles(step.molecule)
            last = made[step.molecule]
            continue
        reagents = [made[p] for p in step.parents]
        outcome = synthesize_detailed(reagents, step.conditions, oracle)
        if outcome is None:
            raise InvalidMolecule(f"recipe step for {step.molecule!r} failed to fire")
        products = outcome[0]
        match = next(
            (p for p in products if p.canonical_form == step.molecule), None
        )
        if match is None:
            raise InvalidMolecule(
                f"recipe step regenerated {[p.canonical_form for p in products]}, "
                f"expected {step.molecule!r}"
            )
        made[step.molecule] = match
        last = match
    return last


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def recipe_to_json(target: str, steps: list[RecipeStep]) -> dict:
    return {
        "target": target,
        "steps": [
            {
                "molecule": s.molecule,
                "parents": list(s.parents),
                "template": s.template,
                "conditions": list(s.conditions),
                "step": s.step,
            }
            for s in steps
        ],
    }


def recipe_to_graph_text(steps: list[RecipeStep]) -> str:
    """One node/edge per line, for external rendering."""
    lines = []
    for s in steps:
        tag = "pool" if s.from_pool else f"step={s.step}"
        lines.append(f"node {s.molecule} {tag}")
    for s in steps:
        for p in s.parents:
            lines.append(f"edge {p} -> {s.molecule}")
    return "\n".join(lines)


def dag_to_json(dag: SynthesisDag) -> dict:
    return {
        "nodes": [
            {
                "molecule": n.molecule,
                "parents": list(n.parents),
                "template": n.template,
                "conditions": sorted(n.conditions),
                "step": n.step,
            }
            for n in sorted(dag.nodes.values(), key=lambda n: (n.step, n.molecule))
        ]
    }


def _strings(raw: dict, key: str) -> list[str]:
    value = raw[key]
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise TypeError(f"{key!r} must be a list of strings")
    return value


def dag_from_json(data) -> SynthesisDag:
    """``dag_to_json``'s inverse; a ``ValueError`` names the missing key,
    or the molecule whose node is malformed or whose parent is missing."""
    if not isinstance(data, dict) or not isinstance(data.get("nodes"), list):
        raise ValueError("a DAG file holds an object with a 'nodes' list")
    dag = SynthesisDag()
    for raw in data["nodes"]:
        if not isinstance(raw, dict) or not isinstance(raw.get("molecule"), str):
            raise ValueError(f"DAG node {raw!r} has no 'molecule' string")
        name = raw["molecule"]
        try:
            dag.nodes[name] = SynthesisNode(
                molecule=name,
                parents=tuple(_strings(raw, "parents")),
                template=raw["template"],
                conditions=frozenset(_strings(raw, "conditions")),
                step=int(raw["step"]),
            )
        except KeyError as exc:
            raise ValueError(f"DAG node {name!r} has no {exc.args[0]!r}") from None
        except (TypeError, ValueError) as exc:
            raise ValueError(f"DAG node {name!r}: {exc}") from None
    for node in dag.nodes.values():
        for parent in node.parents:
            if parent not in dag.nodes:
                raise ValueError(f"DAG node {node.molecule!r}: parent {parent!r} not in file")
    return dag


def save_dag(dag: SynthesisDag, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dag_to_json(dag), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_dag(path) -> SynthesisDag:
    with open(path, "r", encoding="utf-8") as fh:
        return dag_from_json(json.load(fh))
