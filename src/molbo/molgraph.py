"""Molecular graphs, a small SMILES dialect, and canonical forms.

A molecule is an immutable labeled graph: atoms carry an element, bonds
carry a ``BondOrder`` (single, double, triple, aromatic) whose SMILES
``symbol``, ``valence_contribution`` and canonical ``rank`` are plain
member attributes.  The parser covers a deliberately small SMILES
subset: organic-subset atoms, lowercase aromatic atoms, branches, ring
closures ``1``-``9`` and ``%nn``, bond symbols ``- = # :`` and bare
bracket atoms ``[X]``.  Charges, isotopes, stereo marks and
dot-separated fragments are rejected.

The ``Molecule`` constructor, which checks every invariant, runs only
for parsed molecules, hydrogen expansions and heavy skeletons.  Every
synthesis product is assembled by ``join_molecules`` from its two
reagents' state, less at most one terminal leaving atom.

Canonical forms are written over the heavy-atom skeleton.  An acyclic
skeleton (every molecule the benchmark workloads make) gets rooted-subtree
codes: an atom's code is its token followed by its children's codes,
each prefixed by its bond's rank, in sorted order.  The string starts at
the tree centre with the smaller code and writes children in code order,
so it is exact for trees.  The leaf stripping that finds the centre
computes the codes as it goes, and an explicit stack writes the string,
so no chain is too long for it.  A cyclic skeleton gets Morgan-style
extended-connectivity refinement, with remaining ties resolved by
exploring the tied atoms and keeping the lexicographically smallest
emitted string.  That is not a universal
isomorphism certificate, but it is deterministic and order-invariant for
the graphs this toolkit builds.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass

from .errors import (
    InvalidMolecule,
    MultiFragmentInput,
    UnbalancedBranch,
    UnclosedRing,
    UnknownToken,
    ValenceExceeded,
)


@dataclass(frozen=True)
class Element:
    """A chemical element with its standard valence set.

    ``valences`` lists accepted valences in ascending order; hydrogen
    filling targets the smallest entry covering the current bond sum,
    and the largest entry is the hard cap checked at construction.
    """

    symbol: str
    atomic_mass: float
    valences: tuple[int, ...]

    @property
    def default_valence(self) -> int:
        return self.valences[-1]

    def fill_valence(self, bond_sum: int) -> int:
        """Smallest standard valence >= bond_sum, or -1 if none fits."""
        for v in self.valences:
            if v >= bond_sum:
                return v
        return -1


PERIODIC_TABLE: dict[str, Element] = {
    "H": Element("H", 1.008, (1,)),
    "B": Element("B", 10.81, (3,)),
    "C": Element("C", 12.011, (4,)),
    "N": Element("N", 14.007, (3,)),
    "O": Element("O", 15.999, (2,)),
    "F": Element("F", 18.998, (1,)),
    "P": Element("P", 30.974, (5,)),
    "S": Element("S", 32.06, (2, 4, 6)),
    "Cl": Element("Cl", 35.45, (1,)),
    "Br": Element("Br", 79.904, (1,)),
    "I": Element("I", 126.904, (1,)),
}


class BondOrder(enum.Enum):
    """Order of a bond.  ``value`` and ``symbol`` are its SMILES symbol;
    ``valence_contribution`` is what it adds to an atom's bond-order sum
    (aromatic counts 1.5); ``rank`` is a stable small integer used in
    canonical-ordering keys.  All three are plain member attributes, so
    reading them costs no ``Enum`` property or hash."""

    SINGLE = ("-", 1.0, 0)
    DOUBLE = ("=", 2.0, 1)
    TRIPLE = ("#", 3.0, 2)
    AROMATIC = (":", 1.5, 3)

    def __new__(cls, symbol: str, valence_contribution: float, rank: int):
        member = object.__new__(cls)
        member._value_ = symbol
        member.symbol = symbol
        member.valence_contribution = valence_contribution
        member.rank = rank
        return member


# Elements that may be written as lowercase aromatic atoms.
_AROMATIC_WRITABLE = frozenset({"B", "C", "N", "O", "P", "S"})


class WeightMode(enum.Enum):
    UNIT = "unit"
    MASS = "mass"


def atom_weight(element: Element, mode: WeightMode) -> float:
    """Matching weight of one atom: 1.0 or its atomic mass."""
    if mode is WeightMode.UNIT:
        return 1.0
    return element.atomic_mass


class Molecule:
    """Immutable connected graph of atoms and bonds.

    ``atoms`` is a tuple of Elements (list position is the atom index);
    ``bonds`` maps sorted index pairs to bond orders.  The constructor
    checks the valence and connectivity invariants and keeps every atom's
    bond-order sum; a synthesis product (``join_molecules``) holds the
    same invariants by construction, re-summing and checking only the new
    bond's two ends.  Atom ``i`` carries ``free_valence(i)``
    implicit hydrogens besides any explicit H neighbours, so a molecule
    and its hydrogen expansion give the same objectives, bond profiles
    and distances.  Instances cache derived data, each built on first
    use: the canonical form and canonical heavy order, the heavy
    skeleton, the transport class table (``molbo.otdist``) and
    functional-group sites (``_sites``, filled by ``molbo.synthesis``).
    ``_origin`` is None, or for a product that drops no atom
    ``(reagent_a, reagent_b, u, v)``, set by ``join_molecules``: the
    reagents it bonds and the product indices of the new bond's ends
    (the product lists ``reagent_a``'s atoms, then ``reagent_b``'s), from
    which ``molbo.fingerprint`` builds its fingerprint and
    ``molbo.otdist`` its class table, in the order ``build_from_origins``
    gives: reagents first.  ``_set_slots`` is the one place that lists
    the slots.  Operations are pure and safe to call concurrently.
    """

    __slots__ = (
        "atoms",
        "bonds",
        "_adjacency",
        "_bond_sums",
        "_canonical",
        "_canonical_heavy_order",
        "_origin",
        "_sites",
        "_skeleton",
        "_transport_classes",
    )

    def __init__(self, atoms, bonds):
        atoms = tuple(atoms)
        if not atoms:
            raise InvalidMolecule("molecule must contain at least one atom")
        n = len(atoms)
        norm: dict[tuple[int, int], BondOrder] = {}
        adjacency: list[list[tuple[int, BondOrder]]] = [[] for _ in range(n)]
        for (i, j), order in dict(bonds).items():
            if i == j:
                raise InvalidMolecule(f"self bond on atom {i}")
            if not (0 <= i < n and 0 <= j < n):
                raise InvalidMolecule(f"bond ({i}, {j}) references a missing atom")
            key = (i, j) if i < j else (j, i)
            if key in norm:
                raise InvalidMolecule(f"duplicate bond {key}")
            norm[key] = order
            adjacency[i].append((j, order))
            adjacency[j].append((i, order))
        adjacency = tuple(tuple(sorted(nbrs, key=lambda t: t[0])) for nbrs in adjacency)
        _set_slots(self, atoms, norm, adjacency, None, None)
        self._check_connected()
        self._check_valence()

    # -- invariants ----------------------------------------------------

    def _check_connected(self):
        n = len(self.atoms)
        seen = [False] * n
        stack = [0]
        seen[0] = True
        count = 1
        while stack:
            u = stack.pop()
            for v, _ in self._adjacency[u]:
                if not seen[v]:
                    seen[v] = True
                    count += 1
                    stack.append(v)
        if count != n:
            raise MultiFragmentInput("molecule graph is disconnected")

    def _check_valence(self):
        self._bond_sums = tuple(_bond_sum(nbrs) for nbrs in self._adjacency)
        for i, elem in enumerate(self.atoms):
            s = self._bond_sums[i]
            if s > elem.default_valence:
                raise _valence_exceeded(i, elem, s)

    # -- basic accessors -----------------------------------------------

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)

    def neighbors(self, i: int) -> tuple[tuple[int, BondOrder], ...]:
        return self._adjacency[i]

    def degree(self, i: int) -> int:
        return len(self._adjacency[i])

    def heavy_indices(self) -> list[int]:
        return [i for i, a in enumerate(self.atoms) if a.symbol != "H"]

    def heavy_atom_count(self) -> int:
        return sum(1 for a in self.atoms if a.symbol != "H")

    def bond_order_sum(self, i: int) -> int:
        """Effective bond-order sum at atom i (aromatic sums are floored)."""
        return self._bond_sums[i]

    def free_valence(self, i: int) -> int:
        s = self.bond_order_sum(i)
        return self.atoms[i].fill_valence(s) - s

    @property
    def canonical_form(self) -> str:
        """Canonical SMILES over the heavy-atom skeleton (cached)."""
        if self._canonical is None:
            self._canonical, self._canonical_heavy_order = _canonicalize(self)
        return self._canonical

    def canonical_heavy_order(self) -> tuple[int, ...]:
        """Heavy atom indices of this molecule in canonical emission order."""
        if self._canonical_heavy_order is None:
            self.canonical_form  # populates both caches
        return self._canonical_heavy_order

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Molecule({self.canonical_form!r}, atoms={self.n_atoms})"


def _set_slots(mol: Molecule, atoms, bonds, adjacency, sums, origin) -> Molecule:
    """Set ``mol``'s graph and ``_origin`` and reset every cache slot."""
    mol.atoms, mol.bonds, mol._adjacency, mol._bond_sums = atoms, bonds, adjacency, sums
    mol._origin, mol._sites = origin, {}
    mol._canonical = mol._canonical_heavy_order = mol._skeleton = mol._transport_classes = None
    return mol


def _bond_sum(neighbors) -> int:
    # Contributions are exact binary fractions, so truncation floors an
    # aromatic sum and keeps any other sum whole.
    return int(sum(order.valence_contribution for _, order in neighbors))


def _valence_exceeded(i: int, elem: Element, s: int) -> ValenceExceeded:
    return ValenceExceeded(
        f"atom {i} ({elem.symbol}) carries bond order {s} > {elem.default_valence}"
    )


def _drop_leaving(mol: Molecule, x: int, end: int, shift: int):
    """``mol``'s atoms, bonds, adjacency and bond sums less its terminal
    atom ``x``, bonded to ``end``: later indices move down one, then all
    move up ``shift``.  Adjacency tuples that nothing renumbers are reused."""
    if not 0 <= x < len(mol.atoms) or [j for j, _ in mol._adjacency[x]] != [end]:
        raise InvalidMolecule(f"leaving atom {x} is not a terminal neighbour of atom {end}")
    bonds = {(i + shift - (i > x), j + shift - (j > x)): o
             for (i, j), o in mol.bonds.items() if i != x != j}
    adjacency = [
        nbrs if not shift and nbrs[-1][0] < x
        else tuple([(j + shift - (j > x), o) for j, o in nbrs if j != x])
        for nbrs in mol._adjacency[:x] + mol._adjacency[x + 1:]
    ]
    sums = mol._bond_sums
    return mol.atoms[:x] + mol.atoms[x + 1:], bonds, adjacency, [*sums[:x], *sums[x + 1:]]


def join_molecules(mol_a: Molecule, mol_b: Molecule, u: int, v: int,
                   order: BondOrder, leaving: tuple[int, int] | None = None) -> Molecule:
    """The product of bonding atom ``u`` of ``mol_a`` to atom ``v`` of
    ``mol_b`` with ``order``, less the ``leaving`` atom ``(side, index)``
    if given, which must be terminal and bonded to ``u`` (side 0) or to
    ``v`` (side 1), else ``InvalidMolecule``.

    The product lists the kept atoms of ``mol_a``, then of ``mol_b``, and
    equals the constructor's product in every slot, bond insertion order
    included.  Adjacency tuples are reused, or renumbered past the leaving
    atom and shifted, and the new bond is appended at ``u`` and prepended
    at ``v``, so all stay sorted.  Only the sums at ``u`` and ``v`` change;
    they are recomputed and checked in the constructor's order, with its
    error.  Reagents stay connected without a terminal atom, and the new
    bond joins them.  ``_origin`` records ``(mol_a, mol_b, u, v)``, ends as
    product indices, if no atom leaves, and None otherwise.
    """
    n = len(mol_a.atoms)
    if not (0 <= u < n and 0 <= v < len(mol_b.atoms)):
        raise InvalidMolecule(f"join ends ({u}, {v}) reference a missing atom")
    side, x = leaving or (None, None)
    if side == 0:
        atoms, bonds, adjacency, sums = _drop_leaving(mol_a, x, u, 0)
        u -= u > x
        n -= 1
    elif side in (None, 1):
        atoms, bonds = mol_a.atoms, dict(mol_a.bonds)
        adjacency, sums = [*mol_a._adjacency], [*mol_a._bond_sums]
    else:
        raise InvalidMolecule(f"leaving side {side} is neither 0 nor 1")
    if side == 1:
        atoms_b, bonds_b, adjacency_b, sums_b = _drop_leaving(mol_b, x, v, n)
        bonds.update(bonds_b)
        v -= v > x
    else:
        atoms_b, sums_b = mol_b.atoms, mol_b._bond_sums
        for (i, j), o in mol_b.bonds.items():
            bonds[(i + n, j + n)] = o
        adjacency_b = [tuple([(j + n, o) for j, o in nbrs]) for nbrs in mol_b._adjacency]
    atoms += atoms_b
    adjacency += adjacency_b
    sums += sums_b
    v += n
    bonds[(u, v)] = order
    adjacency[u] += ((v, order),)
    adjacency[v] = ((u, order), *adjacency[v])
    for i in (u, v):
        sums[i] = s = _bond_sum(adjacency[i])
        if s > atoms[i].default_valence:
            raise _valence_exceeded(i, atoms[i], s)
    return _set_slots(object.__new__(Molecule), atoms, bonds, tuple(adjacency), tuple(sums),
                      None if leaving else (mol_a, mol_b, u, v))


def build_from_origins(mol: Molecule, built, build) -> None:
    """Call ``build(m)`` for ``mol`` and each ancestor ``m`` reached
    through ``_origin`` for which ``built(m)`` is false, every reagent
    before its product and each molecule once, so a product's derived
    state can be built from its reagents'.  An explicit stack keeps a
    chain of joins of any depth off the recursion limit."""
    todo = [mol]
    while todo:
        m = todo.pop()
        if not built(m):
            missing = [r for r in (m._origin or ())[:2] if not built(r)]
            if missing:
                todo += [m, *missing]
            else:
                build(m)


def implicit_hydrogens(mol: Molecule) -> list[int]:
    """``free_valence(i)`` of every atom ``i``: the hydrogens its
    expansion adds to each atom, in parent order."""
    return [atom.fill_valence(s) - s for atom, s in zip(mol.atoms, mol._bond_sums)]


def molecular_weight(mol: Molecule, mode: WeightMode) -> float:
    """Total matching weight m(M) with implicit hydrogens, strictly
    positive and atom-additive; summed by ``sum`` in the expanded
    molecule's order: every atom, then one hydrogen per implicit hydrogen."""
    weights = [atom_weight(a, mode) for a in mol.atoms]
    weights += [atom_weight(PERIODIC_TABLE["H"], mode)] * sum(implicit_hydrogens(mol))
    return float(sum(weights))


def bond_profile(mol: Molecule, atom_index: int) -> tuple[tuple[str, str, str], ...]:
    """Multiset of (bond order, endpoint element pair) around one atom:
    sorted ``(order symbol, low element, high element)`` triples, one per
    incident bond and one single bond per implicit hydrogen."""
    if not (0 <= atom_index < mol.n_atoms):
        raise InvalidMolecule(f"atom index {atom_index} out of range")
    sym_i = mol.atoms[atom_index].symbol
    entries = []
    for j, order in mol.neighbors(atom_index):
        sym_j = mol.atoms[j].symbol
        lo, hi = (sym_i, sym_j) if sym_i <= sym_j else (sym_j, sym_i)
        entries.append((order.symbol, lo, hi))
    entries += [hydrogen_bond(sym_i)] * mol.free_valence(atom_index)
    return tuple(sorted(entries))


def hydrogen_bond(symbol: str) -> tuple[str, str, str]:
    """Bond-profile entry of a single bond between ``symbol`` and H."""
    return ("-", symbol, "H") if symbol <= "H" else ("-", "H", symbol)


# ---------------------------------------------------------------------------
# SMILES parsing
# ---------------------------------------------------------------------------

_ORGANIC_TWO = ("Cl", "Br")
_ORGANIC_ONE = frozenset("BCNOPSFI")
_AROMATIC_ONE = frozenset("bcnops")
_BOND_SYMBOLS = {"-": BondOrder.SINGLE, "=": BondOrder.DOUBLE,
                 "#": BondOrder.TRIPLE, ":": BondOrder.AROMATIC}


def parse_smiles(text: str) -> Molecule:
    """Parse a SMILES string into a heavy-atom molecular graph.

    Supports branches, ring closures (``1``-``9``, ``%nn``), explicit
    bond symbols, lowercase aromatic atoms of the organic subset and
    bracket atoms without charge/isotope/H-count annotations.  Bonds
    between two aromatic atoms default to aromatic order.
    """
    if not text:
        raise UnknownToken("empty SMILES string")
    if not text.isascii():
        raise UnknownToken("SMILES must be ASCII")

    atoms: list[tuple[Element, bool]] = []  # (element, written-aromatic)
    bonds: dict[tuple[int, int], BondOrder] = {}
    prev: int | None = None
    pending: BondOrder | None = None
    branch_stack: list[int] = []
    ring_open: dict[int, tuple[int, BondOrder | None]] = {}

    def add_bond(i: int, j: int, order: BondOrder):
        if i == j:
            raise InvalidMolecule("ring closure bonds an atom to itself")
        key = (i, j) if i < j else (j, i)
        if key in bonds:
            raise InvalidMolecule(f"duplicate bond between atoms {key}")
        bonds[key] = order

    def add_atom(symbol: str, aromatic: bool):
        nonlocal prev, pending
        idx = len(atoms)
        atoms.append((PERIODIC_TABLE[symbol], aromatic))
        if prev is not None:
            order = pending
            if order is None:
                order = (BondOrder.AROMATIC
                         if atoms[prev][1] and aromatic else BondOrder.SINGLE)
            add_bond(prev, idx, order)
        elif pending is not None:
            raise UnknownToken("bond symbol before any atom")
        pending = None
        prev = idx

    def close_or_open_ring(number: int):
        nonlocal pending
        if prev is None:
            raise UnknownToken("ring-closure digit before any atom")
        if number in ring_open:
            other, other_bond = ring_open.pop(number)
            if pending is not None and other_bond is not None and pending is not other_bond:
                raise UnknownToken(f"conflicting bond symbols on ring closure {number}")
            order = pending or other_bond
            if order is None:
                order = (BondOrder.AROMATIC
                         if atoms[prev][1] and atoms[other][1] else BondOrder.SINGLE)
            add_bond(other, prev, order)
        else:
            ring_open[number] = (prev, pending)
        pending = None

    i = 0
    while i < len(text):
        c = text[i]
        if c == ".":
            raise MultiFragmentInput("dot-separated fragments are unsupported")
        if c == "(":
            if prev is None:
                raise UnbalancedBranch("branch opened before any atom")
            if pending is not None:
                raise UnknownToken("bond symbol directly before '('")
            branch_stack.append(prev)
            i += 1
            continue
        if c == ")":
            if pending is not None:
                raise UnknownToken("dangling bond symbol before ')'")
            if not branch_stack:
                raise UnbalancedBranch("unmatched ')'")
            prev = branch_stack.pop()
            i += 1
            continue
        if c in _BOND_SYMBOLS:
            if pending is not None:
                raise UnknownToken("two consecutive bond symbols")
            pending = _BOND_SYMBOLS[c]
            i += 1
            continue
        if c.isdigit():
            if c == "0":
                raise UnknownToken("ring-closure digit 0 is not valid")
            close_or_open_ring(int(c))
            i += 1
            continue
        if c == "%":
            digits = text[i + 1: i + 3]
            if len(digits) != 2 or not digits.isdigit():
                raise UnknownToken("'%' ring closure needs two digits")
            close_or_open_ring(int(digits))
            i += 3
            continue
        if c == "[":
            end = text.find("]", i)
            if end < 0:
                raise UnknownToken("unterminated bracket atom")
            inner = text[i + 1: end]
            if inner == "H":
                raise UnknownToken("explicit hydrogen atoms are implicit in this dialect")
            if inner in PERIODIC_TABLE:
                add_atom(inner, aromatic=False)
            elif inner in _AROMATIC_ONE:
                add_atom(inner.upper(), aromatic=True)
            else:
                raise UnknownToken(
                    f"unsupported bracket atom '[{inner}]' (charges/isotopes/H-counts rejected)"
                )
            i = end + 1
            continue
        two = text[i: i + 2]
        if two in _ORGANIC_TWO:
            add_atom(two, aromatic=False)
            i += 2
            continue
        if c in _ORGANIC_ONE:
            add_atom(c, aromatic=False)
            i += 1
            continue
        if c in _AROMATIC_ONE:
            add_atom(c.upper(), aromatic=True)
            i += 1
            continue
        raise UnknownToken(f"unsupported token {c!r} at position {i}")

    if branch_stack:
        raise UnbalancedBranch("unclosed '('")
    if ring_open:
        raise UnclosedRing(f"unclosed ring closures: {sorted(ring_open)}")
    if pending is not None:
        raise UnknownToken("dangling bond symbol at end of input")
    return Molecule([elem for elem, _ in atoms], bonds)


# ---------------------------------------------------------------------------
# Hydrogen expansion
# ---------------------------------------------------------------------------


def add_explicit_hydrogens(mol: Molecule) -> Molecule:
    """Fill each atom's free valence with explicit single-bonded hydrogens.

    Sulfur fills to the smallest of its standard valences (2, 4, 6) that
    covers the current bond sum; aromatic atoms use the floored bond-order
    sum.  Hydrogens are appended in parent order.  Idempotent: an already
    expanded molecule has nothing to add and is returned unchanged.
    """
    counts = [mol.free_valence(i) for i in range(mol.n_atoms)]
    if not any(counts):
        return mol
    atoms = list(mol.atoms)
    bonds = dict(mol.bonds)
    hydrogen = PERIODIC_TABLE["H"]
    for i, extra in enumerate(counts):
        for _ in range(extra):
            atoms.append(hydrogen)
            bonds[(i, len(atoms) - 1)] = BondOrder.SINGLE
    return Molecule(atoms, bonds)


def strip_hydrogens(mol: Molecule) -> Molecule:
    """Heavy-atom skeleton of a molecule (inverse of hydrogen expansion).

    The skeleton is built once per molecule and cached; a molecule
    without hydrogens is its own skeleton.
    """
    if mol._skeleton is not None:
        return mol._skeleton
    heavy = mol.heavy_indices()
    if len(heavy) == mol.n_atoms:
        mol._skeleton = mol
        return mol
    if not heavy:
        raise InvalidMolecule("molecule has no heavy atoms")
    remap = {old: new for new, old in enumerate(heavy)}
    bonds = {
        (remap[i], remap[j]): order
        for (i, j), order in mol.bonds.items()
        if i in remap and j in remap
    }
    mol._skeleton = Molecule([mol.atoms[i] for i in heavy], bonds)
    return mol._skeleton


# ---------------------------------------------------------------------------
# Canonical ordering and SMILES emission
# ---------------------------------------------------------------------------

# Safety valve for the tie-breaking search; realistic molecules stay far
# below it (each branch fixes one atom of an automorphism orbit).
_MAX_TIE_LEAVES = 4096


def _dense_ranks(keys: list) -> list[int]:
    order = {k: r for r, k in enumerate(sorted(set(keys)))}
    return [order[k] for k in keys]


def _refine(ranks: list[int], adj: list[list[tuple[int, int]]]) -> list[int]:
    n = len(ranks)
    n_classes = len(set(ranks))
    while True:
        keys = [
            (ranks[i], tuple(sorted((br, ranks[j]) for j, br in adj[i])))
            for i in range(n)
        ]
        new_ranks = _dense_ranks(keys)
        new_classes = len(set(new_ranks))
        if new_classes == n_classes:
            return new_ranks
        ranks, n_classes = new_ranks, new_classes


def _canonicalize(mol: Molecule) -> tuple[str, tuple[int, ...]]:
    symbols = [a.symbol for a in mol.atoms]
    if "H" in symbols:
        heavy = [i for i, sym in enumerate(symbols) if sym != "H"]
        form, order = _canonicalize(strip_hydrogens(mol))
        return form, tuple(heavy[i] for i in order)
    n = len(symbols)
    adjacency = mol._adjacency
    # Atoms written lowercase: aromatic-bonded atoms of a writable element.
    lower = [False] * n
    tokens = symbols
    aromatic = BondOrder.AROMATIC
    if aromatic in mol.bonds.values():
        for (i, j), order in mol.bonds.items():
            if order is aromatic:
                lower[i] = symbols[i] in _AROMATIC_WRITABLE
                lower[j] = symbols[j] in _AROMATIC_WRITABLE
        tokens = [sym.lower() if low else sym for sym, low in zip(symbols, lower)]

    if len(mol.bonds) == n - 1:
        # Acyclic skeleton: rooted-subtree canonization, exact
        # (refinement ties in trees are automorphism orbits anyway).
        return _emit_tree(tokens, lower, adjacency)

    adj = [[(j, o.rank) for j, o in nbrs] for nbrs in adjacency]
    seed = [
        (symbols[i], len(adj[i]), tuple(sorted(br for _, br in adj[i])))
        for i in range(n)
    ]
    ranks = _refine(_dense_ranks(seed), adj)

    best: list = [None, None]  # (string, emission order)
    budget = [_MAX_TIE_LEAVES]

    def search(ranks: list[int]):
        if budget[0] <= 0:
            return
        if len(set(ranks)) == n:
            budget[0] -= 1
            s, order = _emit(n, tokens, lower, adj, mol.bonds, ranks)
            if best[0] is None or s < best[0]:
                best[0], best[1] = s, order
            return
        counts = Counter(ranks)
        split_rank = min(r for r, c in counts.items() if c > 1)
        members = [i for i in range(n) if ranks[i] == split_rank]
        for m in members:
            bumped = [2 * r for r in ranks]
            bumped[m] -= 1
            search(_refine(_dense_ranks(bumped), adj))

    search(ranks)
    return best[0], tuple(best[1])


#: Bond tokens by rank, written between atoms not both lowercase and
#: between two lowercase atoms: the default order (single, and aromatic
#: between lowercase atoms) is written as nothing.
_BOND_TOKENS = (("", "=", "#", ":"), ("-", "=", "#", ""))

#: The prefix a rooted-subtree code takes from the rank of its parent bond.
_RANK_PREFIX = ("0", "1", "2", "3")


def _bond_token(order: BondOrder, both_lower: bool) -> str:
    """SMILES symbol of a bond; empty for the default order, which is
    aromatic between two lowercase atoms and single otherwise."""
    return _BOND_TOKENS[both_lower][order.rank]


def _emit_tree(tokens, lower, adjacency):
    """Canonical SMILES of an acyclic heavy graph and its emission order.

    Each atom's rooted-subtree code is its token followed by its
    children's codes in parentheses, each child's code prefixed by the
    rank of its bond and the children sorted.  The root is the tree
    centre with the smaller code (the first centre on a tie).  Every
    atom writes its children in code order, ties broken by atom index,
    and all but the last as a branch.

    Leaf stripping finds the centres and builds the codes in one pass.
    An atom is removed when one neighbour is left, its parent; every
    other neighbour is a child removed in an earlier layer (atoms of one
    layer are never bonded), so the atom's sorted child list, code and
    bond token are built at removal.  The one or two centres come last.
    The emission reuses the child lists and runs on an explicit stack;
    nothing recurses, so chain length is not bounded by the interpreter
    stack.
    """
    n = len(tokens)
    if n == 1:
        return tokens[0], (0,)

    # key[v] is v's code prefixed by the rank of its parent bond, and ""
    # until v is removed; kids[v] is v's children as sorted (key, index)
    # and bond[v] the token of the bond to v's parent.
    degree = [len(nbrs) for nbrs in adjacency]
    key = [""] * n
    kids: list = [()] * n
    bond = [""] * n
    layer = [i for i in range(n) if degree[i] == 1]
    remaining = n
    while remaining > 2:
        remaining -= len(layer)
        nxt = []
        for u in layer:
            ks = []
            for v, order in adjacency[u]:
                k = key[v]
                if k:
                    ks.append((k, v))
                else:
                    p, up = v, order
            degree[p] -= 1
            if degree[p] == 1:
                nxt.append(p)
            if ks:
                ks.sort()
                kids[u] = ks
                key[u] = (_RANK_PREFIX[up.rank] + tokens[u] + "("
                          + ",".join([k for k, _ in ks]) + ")")
            else:
                key[u] = _RANK_PREFIX[up.rank] + tokens[u] + "()"
            bond[u] = _BOND_TOKENS[lower[u] and lower[p]][up.rank]
        layer = nxt

    if len(layer) == 1:
        root = layer[0]
        kids[root] = sorted([(key[v], v) for v, _ in adjacency[root]])
    else:
        # Two bonded centres: each one's code with the other as its parent,
        # then each one's code as the root.
        a, b = sorted(layer)
        order = next(o for v, o in adjacency[a] if v == b)
        rest_a = sorted([(key[v], v) for v, _ in adjacency[a] if v != b])
        rest_b = sorted([(key[v], v) for v, _ in adjacency[b] if v != a])
        key[a] = _RANK_PREFIX[order.rank] + _code(tokens[a], rest_a)
        key[b] = _RANK_PREFIX[order.rank] + _code(tokens[b], rest_b)
        kids_a = sorted([*rest_a, (key[b], b)])
        kids_b = sorted([*rest_b, (key[a], a)])
        token = _BOND_TOKENS[lower[a] and lower[b]][order.rank]
        if _code(tokens[b], kids_b) < _code(tokens[a], kids_a):
            root, kids[a], kids[b], bond[a] = b, rest_a, kids_b, token
        else:
            root, kids[a], kids[b], bond[b] = a, kids_a, rest_b, token

    # Depth-first in child order.  A child's prefix opens its branch and
    # closes its previous sibling's; the last child is not a branch.
    out: list[str] = []
    order: list[int] = []
    stack = [(root, "")]
    while stack:
        v, prefix = stack.pop()
        order.append(v)
        out.append(prefix + tokens[v])
        ks = kids[v]
        if len(ks) == 1:
            c = ks[0][1]
            stack.append((c, bond[c]))
        elif ks:
            c = ks[-1][1]
            stack.append((c, ")" + bond[c]))
            for _, c in reversed(ks[1:-1]):
                stack.append((c, ")(" + bond[c]))
            c = ks[0][1]
            stack.append((c, "(" + bond[c]))
    return "".join(out), tuple(order)


def _code(token: str, kids) -> str:
    """Rooted-subtree code of an atom from its token and sorted kids."""
    return token + "(" + ",".join([k for k, _ in kids]) + ")"


def _emit(n, tokens, lower, adj, orders, ranks):
    """Emit a SMILES string for a totally ranked heavy graph.

    DFS starts at the rank-0 atom and visits neighbors in rank order;
    back edges become ring closures numbered in order of first use, with
    digits reused once closed.  Returns the string and the visit order.
    Both the DFS and the writing run on explicit stacks, so no ring
    molecule is too large for the interpreter stack.
    """
    start = min(range(n), key=lambda i: ranks[i])
    nbr_order = [sorted((j for j, _ in adj[i]), key=lambda j: ranks[j]) for i in range(n)]

    visited = [False] * n
    visit_pos = [-1] * n
    visit_seq: list[int] = []
    tree: list[list[int]] = [[] for _ in range(n)]
    ring_edges: list[tuple[int, int]] = []  # (first-visited, second) endpoints
    seen_edges: set[tuple[int, int]] = set()

    # Each frame resumes its atom's neighbour scan after a child returns.
    frames = []

    def enter(u: int):
        visited[u] = True
        visit_pos[u] = len(visit_seq)
        visit_seq.append(u)
        frames.append((u, iter(nbr_order[u])))

    enter(start)
    while frames:
        u, pending = frames[-1]
        for v in pending:
            key = (min(u, v), max(u, v))
            if key in seen_edges:
                continue
            seen_edges.add(key)
            if visited[v]:
                a, b = (u, v) if visit_pos[u] < visit_pos[v] else (v, u)
                ring_edges.append((a, b))
            else:
                tree[u].append(v)
                enter(v)
                break
        else:
            frames.pop()

    ring_edges.sort(key=lambda e: (visit_pos[e[0]], visit_pos[e[1]]))
    opens: dict[int, list[tuple[int, int]]] = {}
    closes: dict[int, list[tuple[int, int]]] = {}
    for a, b in ring_edges:
        opens.setdefault(a, []).append((a, b))
        closes.setdefault(b, []).append((a, b))

    digit_of: dict[tuple[int, int], int] = {}
    free_digits = list(range(1, 100))

    def bond_token(a: int, b: int) -> str:
        order = orders[(a, b) if a < b else (b, a)]
        return _bond_token(order, lower[a] and lower[b])

    def digit_token(d: int) -> str:
        return str(d) if d < 10 else f"%{d:02d}"

    # Depth-first in tree order.  A child's prefix opens its branch and
    # closes its previous sibling's; the last child is not a branch.
    out: list[str] = []
    stack = [(start, "")]
    while stack:
        u, prefix = stack.pop()
        out.append(prefix + tokens[u])
        for edge in opens.get(u, []):
            if not free_digits:
                raise InvalidMolecule("too many simultaneous ring closures")
            d = free_digits.pop(0)
            digit_of[edge] = d
            out.append(bond_token(*edge) + digit_token(d))
        for edge in closes.get(u, []):
            d = digit_of.pop(edge)
            out.append(digit_token(d))
            free_digits.append(d)
            free_digits.sort()
        children = tree[u]
        if len(children) == 1:
            stack.append((children[0], bond_token(u, children[0])))
        elif children:
            v = children[-1]
            stack.append((v, ")" + bond_token(u, v)))
            for v in reversed(children[1:-1]):
                stack.append((v, ")(" + bond_token(u, v)))
            v = children[0]
            stack.append((v, "(" + bond_token(u, v)))
    return "".join(out), visit_seq


# ---------------------------------------------------------------------------
# Pool files
# ---------------------------------------------------------------------------


def load_pool(path) -> list[Molecule]:
    """Read a molecule pool file: one SMILES per line, ``#`` comments and
    blank lines ignored."""
    molecules = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            molecules.append(parse_smiles(line))
    return molecules
