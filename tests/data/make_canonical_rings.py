"""Write the golden canonical forms of cyclic molecules to standard output.

    PYTHONPATH=src:perfbench python tests/data/make_canonical_rings.py \
        > tests/data/canonical_rings.tsv

Rows as in ``canonical_trees.tsv``: a case label, the atoms, the bonds,
the canonical form and the canonical heavy order.  The rows are
hand-picked ring molecules (fused, bridged, spiro and cage rings,
aromatics, S and halogens, a long tail) with a shuffled copy of each,
shuffled copies with explicit H atoms, and random cyclic graphs with
mixed bond orders, and dense cages whose ring closures run past 9 and
are written as ``%nn``.
"""

import random
import sys

from make_canonical_trees import row, shuffled
from molbo.errors import MolboError
from molbo.molgraph import PERIODIC_TABLE, BondOrder, Molecule, add_explicit_hydrogens, parse_smiles

HAND = {
    "small-rings": ["C1CC1", "C1CCC1", "C1CCCCC1", "C1CCCCCCC1", "O1CC1", "C1=CCC1", "C1CC=CC1"],
    "aromatic": ["c1ccccc1", "Cc1ccc(C)cc1", "c1ccncc1", "c1ccsc1", "C1=COC=C1", "Oc1ccccc1",
                 "c1ccc2ccccc2c1", "c1ccc2c(c1)ccc1ccccc12", "C1=CC=CC=C1"],
    "fused-bridged-spiro": ["C1CC2CCC1C2", "C1CCC2(CC1)CCCC2", "C1C2CC3CC1CC(C2)C3",
                            "C12C3C4C1C5C2C3C45", "C1CC2CCCCC2CC1", "C1CC2(C1)CC2"],
    "heteroatoms": ["ClC1CCC(Br)CC1", "FC1=CC=C(I)C=C1", "O=C1CCCC1", "C1CSCCS1",
                    "O=S1(=O)CCCC1", "N1CCNCC1", "C1CC1Cl", "BrC1C(Cl)C1F", "P1CCC1"],
    "symmetric": ["C1CC1C1CC1", "C1CCC(CC1)C1CCCCC1", "CC1(C)CC(C)(C)C1", "C1CC11CC1"],
    "long-tail": ["C1CC1" + "C" * 500, "C" * 200 + "C1CCCCC1" + "C" * 200],
}
EXPLICIT_H = ["C1CC1O", "c1ccccc1", "O=C1CCCC1", "C1CC2CCC1C2"]


def random_cyclic(rng: random.Random) -> Molecule:
    elems = ["C", "C", "C", "C", "N", "O", "S", "Cl", "Br"]
    orders = [BondOrder.SINGLE] * 5 + [BondOrder.DOUBLE, BondOrder.AROMATIC]
    while True:
        n = rng.randint(3, 30)
        atoms = [PERIODIC_TABLE[rng.choice(elems)] for _ in range(n)]
        bonds = {(rng.randrange(i), i): rng.choice(orders) for i in range(1, n)}
        for _ in range(rng.randint(1, min(n - 2, 14))):
            i, j = sorted(rng.sample(range(n), 2))
            bonds.setdefault((i, j), BondOrder.SINGLE)
        if len(bonds) < n:
            continue
        try:
            return shuffled(Molecule(atoms, bonds), rng)
        except MolboError:
            continue


def dense_cage(rng: random.Random) -> Molecule:
    """A random tree of C, P and S atoms closed by single bonds until few
    atoms have valence left: far more open ring closures than nine."""
    while True:
        n = rng.randint(14, 24)
        atoms = [PERIODIC_TABLE[rng.choice("CPSS")] for _ in range(n)]
        bonds = {(rng.randrange(i), i): BondOrder.SINGLE for i in range(1, n)}
        free = [a.default_valence for a in atoms]
        for i, j in bonds:
            free[i] -= 1
            free[j] -= 1
        for _ in range(4 * n):
            i, j = sorted(rng.sample(range(n), 2))
            if (i, j) not in bonds and free[i] > 0 and free[j] > 0:
                bonds[i, j] = BondOrder.SINGLE
                free[i] -= 1
                free[j] -= 1
        try:
            return shuffled(Molecule(atoms, bonds), rng)
        except MolboError:
            continue


def main() -> None:
    rng = random.Random(2026)
    rows = []
    for label, texts in HAND.items():
        for text in texts:
            mol = parse_smiles(text)
            rows.append(row(label, mol))
            rows.append(row(label, shuffled(mol, rng)))
    for text in EXPLICIT_H:
        rows.append(row("explicit-hydrogens", shuffled(add_explicit_hydrogens(parse_smiles(text)), rng)))
    for _ in range(200):
        rows.append(row("random-cyclic", random_cyclic(rng)))
    for _ in range(20):
        rows.append(row("dense-cage", dense_cage(rng)))
    sys.stdout.write("".join(r + "\n" for r in rows))


if __name__ == "__main__":
    main()
