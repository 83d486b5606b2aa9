"""Write the golden canonical forms of acyclic molecules to standard output.

    PYTHONPATH=src:perfbench python tests/data/make_canonical_trees.py \
        > tests/data/canonical_trees.tsv

One tab-separated row per molecule: a case label, the atoms in index order
(space-separated symbols), the bonds (space-separated ``i,j,order``), the
canonical form and the canonical heavy order (comma-separated indices).
The rows are hand-picked trees, random trees with mixed bond orders, and
about 200 products canonicalized during one seed-101 pass of each of the
``bo-join-fp`` and ``rand-template-qed`` benchmark workloads.
"""

import random
import sys

import molbo
from molbo import molgraph
from molbo.errors import MolboError
from molbo.molgraph import PERIODIC_TABLE, BondOrder, Molecule, add_explicit_hydrogens, parse_smiles
from workloads import WORKLOADS, run_seeds

HAND = {
    "single-atom": ["C", "O", "Cl", "c"],
    "second-centre-wins": ["OCCC", "OCCCCC", "ClCCC", "OC(=O)CC", "NC(=O)CCCC", "NC(C)C(C)C"],
    "equal-siblings": ["CC(C)C", "OC(CC)CC", "CC(C)(C)C", "OCCO", "OCCCCO", "CC",
                       "NC(CO)(CO)CO", "C(C(C)C)C(C)C"],
    "multiple-bonds": ["C=CC#N", "CC(=O)O", "C#CC=C", "O=C=O", "N#CC(C#N)=C", "C=C=C=C"],
    "aromatic-acyclic": ["cc", "ccc", "ccO", "Cc", "nc", "cc(c)C", "c:cC=C"],
    "halogen-next-to-carbon": ["ClCC", "CCl", "BrC(Cl)C", "ClC(Cl)(Cl)C", "CC(C)(Br)Cl",
                               "CCBr", "C(Cl)Br", "ClC(C)C(Br)C"],
}
EXPLICIT_H = ["CCO", "CC(=O)O", "C=CC#N", "OCC(C)CC"]


def shuffled(mol: Molecule, rng: random.Random) -> Molecule:
    perm = list(range(mol.n_atoms))
    rng.shuffle(perm)
    atoms = [None] * mol.n_atoms
    for old, new in enumerate(perm):
        atoms[new] = mol.atoms[old]
    return Molecule(atoms, {(perm[i], perm[j]): o for (i, j), o in mol.bonds.items()})


def random_tree(rng: random.Random) -> Molecule:
    elems = ["C", "C", "C", "C", "N", "O", "S", "Cl", "Br"]
    orders = [BondOrder.SINGLE] * 5 + [BondOrder.DOUBLE, BondOrder.TRIPLE]
    while True:
        n = rng.randint(2, 14)
        atoms = [PERIODIC_TABLE[rng.choice(elems)] for _ in range(n)]
        bonds = {(rng.randrange(i), i): rng.choice(orders) for i in range(1, n)}
        try:
            return shuffled(Molecule(atoms, bonds), rng)
        except MolboError:
            continue


def pass_products(workload: str, count: int) -> list[Molecule]:
    """``count`` acyclic molecules spread evenly over those canonicalized
    in one seed-101 pass of a benchmark workload."""
    seen: list[Molecule] = []
    original = molgraph._canonicalize

    def recording(mol):
        seen.append(mol)
        return original(mol)

    molgraph._canonicalize = recording
    try:
        wl = WORKLOADS[workload]
        for seed in run_seeds(101, wl.runs_per_pass):
            molbo.run(wl.run_config(seed))
    finally:
        molgraph._canonicalize = original
    trees = [m for m in seen if len(m.bonds) == m.n_atoms - 1]
    step = len(trees) / count
    return [trees[int(k * step)] for k in range(count)]


def row(label: str, mol: Molecule) -> str:
    atoms = " ".join(a.symbol for a in mol.atoms)
    bonds = " ".join(f"{i},{j},{o.symbol}" for (i, j), o in mol.bonds.items())
    form, order = molgraph._canonicalize(mol)
    return "\t".join([label, atoms, bonds, form, ",".join(map(str, order))])


def main() -> None:
    rng = random.Random(2024)
    rows = []
    for label, texts in HAND.items():
        for text in texts:
            mol = parse_smiles(text)
            rows.append(row(label, mol))
            rows.append(row(label, shuffled(mol, rng)))
    for text in EXPLICIT_H:
        rows.append(row("explicit-hydrogens", shuffled(add_explicit_hydrogens(parse_smiles(text)), rng)))
    for _ in range(60):
        rows.append(row("random-tree", random_tree(rng)))
    for workload in ("bo-join-fp", "rand-template-qed"):
        for mol in pass_products(workload, 200):
            rows.append(row(workload, mol))
    sys.stdout.write("".join(r + "\n" for r in rows))


if __name__ == "__main__":
    main()
