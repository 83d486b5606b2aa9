import itertools
import random
from pathlib import Path

import numpy as np
import pytest

from molbo import optimizer
from molbo.errors import InvalidMolecule, MultiFragmentInput, ValenceExceeded
from molbo.molgraph import (
    BondOrder,
    Molecule,
    PERIODIC_TABLE,
    add_explicit_hydrogens,
    join_molecules,
    load_pool,
    parse_smiles,
)
from molbo.optimizer import explore_acquisition
from molbo.synthesis import CONDITION_LIBRARY, Condition, OracleKind, synthesize_detailed

DATA_DIR = Path(__file__).parent / "data"

#: Molecules beside the corpus.  Isobutane (in the corpus) and acrylic
#: acid are a pair whose distance vector the simplex once rounded
#: differently when the sides were swapped.
EXTRA = ("C=CC(=O)O", "c1ccc(O)cc1CCN", "CCSC(=O)CCl", "FC(F)(F)c1ccccc1", "OC1CCCCC1")


@pytest.fixture(scope="session")
def corpus() -> list[str]:
    lines = (DATA_DIR / "corpus.smi").read_text().splitlines()
    return [ln.strip() for ln in lines if ln.strip() and not ln.startswith("#")]


@pytest.fixture(scope="session")
def small_pool_path() -> Path:
    return DATA_DIR / "pool_small.smi"


@pytest.fixture(scope="session")
def template_pool_path() -> Path:
    return DATA_DIR / "pool_template.smi"


@pytest.fixture(scope="session")
def cached_molecules(corpus) -> list[Molecule]:
    """The corpus (heavy, expanded, and expanded with hydrogens among the
    heavy atoms) plus the pools of one walk per oracle; the walks have
    filled the skeleton and site caches of every molecule they drew."""
    heavy = [parse_smiles(text) for text in corpus]
    expanded = [add_explicit_hydrogens(m) for m in heavy]
    rng = random.Random(0)
    molecules = heavy + expanded + [relabel(m, rng) for m in expanded]
    walks = (
        (DATA_DIR / "pool_small.smi", OracleKind.JOIN, (Condition("join"),), 30),
        (DATA_DIR / "pool_template.smi", OracleKind.TEMPLATE, CONDITION_LIBRARY, 15),
    )
    for path, oracle, conditions, n in walks:
        pool = [add_explicit_hydrogens(m) for m in load_pool(path)]
        explore_acquisition(pool, conditions, set(), n, oracle,
                            lambda cands: np.zeros(len(cands)),
                            np.random.default_rng(5))
        molecules += pool
    return molecules


@pytest.fixture(scope="session")
def heavy_molecules(cached_molecules) -> list[Molecule]:
    """Every molecule of ``cached_molecules`` and of ``tests/data/*.smi``
    that holds no explicit hydrogen, walk products included."""
    heavy = [m for m in cached_molecules if m.heavy_atom_count() == m.n_atoms]
    for path in sorted(DATA_DIR.glob("*.smi")):
        heavy += load_pool(path)
    return heavy


@pytest.fixture(scope="session")
def template_walk_molecules(template_pool_path) -> list[Molecule]:
    """Every distinct reagent and product object, in draw order, of the
    first 150 successes of a seed-101 walk on ``pool_template.smi`` under
    every condition."""
    seen = {}

    def recording(reagents, conditions, oracle):
        outcome = synthesize_detailed(reagents, conditions, oracle)
        for mol in [*reagents, outcome[0]] if outcome else reagents:
            seen.setdefault(id(mol), mol)
        return outcome

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimizer, "synthesize_detailed", recording)
        walk = optimizer._walk(load_pool(template_pool_path), CONDITION_LIBRARY,
                               OracleKind.TEMPLATE, np.random.default_rng(101), None, 1000, 1)
        assert sum(1 for _ in itertools.islice(walk, 150)) == 150
        walk.close()
    return list(seen.values())


def relabel(mol: Molecule, rng: random.Random) -> Molecule:
    """Same molecule with randomly permuted atom indices."""
    n = mol.n_atoms
    perm = list(range(n))
    rng.shuffle(perm)
    atoms = [None] * n
    for old, new in enumerate(perm):
        atoms[new] = mol.atoms[old]
    bonds = {(perm[i], perm[j]): o for (i, j), o in mol.bonds.items()}
    return Molecule(atoms, bonds)


def random_molecule(rng: random.Random, max_heavy: int = 6, ring_p: float = 0.25,
                    expanded: bool = True) -> Molecule:
    """Random small connected molecule (random spanning tree plus an
    occasional ring edge), retried until valence-valid."""
    elems = ["C", "C", "C", "N", "O", "S", "F", "Cl"]
    while True:
        try:
            n = rng.randint(1, max_heavy)
            atoms = [PERIODIC_TABLE[rng.choice(elems)] for _ in range(n)]
            bonds = {}
            for i in range(1, n):
                j = rng.randrange(i)
                order = rng.choice(
                    [BondOrder.SINGLE] * 4 + [BondOrder.DOUBLE, BondOrder.TRIPLE]
                )
                bonds[(j, i)] = order
            if n >= 3 and rng.random() < ring_p:
                i, j = sorted(rng.sample(range(n), 2))
                bonds.setdefault((i, j), BondOrder.SINGLE)
            mol = Molecule(atoms, bonds)
            return add_explicit_hydrogens(mol) if expanded else mol
        except (ValenceExceeded, InvalidMolecule, MultiFragmentInput):
            continue


def bridges(mol):
    """The bonds of ``mol`` that lie on no ring."""
    for i, j in mol.bonds:
        if j not in _side(mol, i, j):
            yield i, j


def _side(mol, i, j):
    """Atoms reachable from ``i`` without the bond ``(i, j)``."""
    seen, stack = {i}, [i]
    while stack:
        a = stack.pop()
        for b, _ in mol.neighbors(a):
            if b not in seen and {a, b} != {i, j}:
                seen.add(b)
                stack.append(b)
    return seen


def _fragment(mol, atoms):
    index = {old: new for new, old in enumerate(atoms)}
    bonds = {(index[a], index[b]): order for (a, b), order in mol.bonds.items()
             if a in index and b in index}
    return Molecule([mol.atoms[a] for a in atoms], bonds), index


def split_and_rejoin(mol, i, j):
    """Cut ``mol`` at the bridge ``(i, j)`` and join the fragments again."""
    side = _side(mol, i, j)
    frag_a, index_a = _fragment(mol, sorted(side))
    frag_b, index_b = _fragment(mol, [a for a in range(mol.n_atoms) if a not in side])
    order = mol.bonds[(i, j)]
    return join_molecules(frag_a, frag_b, index_a[i], index_b[j], order)


def join_chain(n_joins):
    """A linear chain grown by ``n_joins`` joins of one atom at its end;
    every member of the chain is the origin of the next."""
    chain = [parse_smiles("C")]
    for k in range(n_joins):
        atom = parse_smiles("CNO"[k % 3])
        end = chain[-1].n_atoms - 1
        chain.append(join_molecules(chain[-1], atom, end, 0, BondOrder.SINGLE))
    return chain
