import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import DATA_DIR, random_molecule, relabel
from molbo.errors import (
    InvalidMolecule,
    MultiFragmentInput,
    UnbalancedBranch,
    UnclosedRing,
    UnknownToken,
    ValenceExceeded,
)
from molbo.molgraph import (
    BondOrder,
    Molecule,
    PERIODIC_TABLE,
    WeightMode,
    _canonicalize,
    add_explicit_hydrogens,
    atom_weight,
    bond_profile,
    build_from_origins,
    join_molecules,
    molecular_weight,
    parse_smiles,
    strip_hydrogens,
)


class TestParse:
    def test_ethanol_chain(self):
        mol = parse_smiles("CCO")
        assert [a.symbol for a in mol.atoms] == ["C", "C", "O"]
        assert mol.bonds == {(0, 1): BondOrder.SINGLE, (1, 2): BondOrder.SINGLE}

    def test_cyclohexane_ring(self):
        mol = parse_smiles("C1CCCCC1")
        assert mol.n_atoms == 6
        assert len(mol.bonds) == 6
        assert all(o is BondOrder.SINGLE for o in mol.bonds.values())

    def test_formic_acid_skeleton(self):
        # hand-derived structure: C double-bonded to one O, single to the other
        for text in ("C(=O)O", "OC=O"):
            mol = parse_smiles(text)
            assert sorted(a.symbol for a in mol.atoms) == ["C", "O", "O"]
            assert sorted(o.symbol for o in mol.bonds.values()) == ["-", "="]
        assert (
            parse_smiles("C(=O)O").canonical_form
            == parse_smiles("OC=O").canonical_form
        )

    def test_branching(self):
        mol = parse_smiles("CC(C)C")
        center = [i for i in range(4) if mol.degree(i) == 3]
        assert len(center) == 1

    def test_explicit_bonds(self):
        assert list(parse_smiles("C=C").bonds.values()) == [BondOrder.DOUBLE]
        assert list(parse_smiles("C#N").bonds.values()) == [BondOrder.TRIPLE]

    def test_aromatic_ring(self):
        mol = parse_smiles("c1ccccc1")
        assert mol.n_atoms == 6
        assert all(o is BondOrder.AROMATIC for o in mol.bonds.values())

    def test_aromatic_substituent_bond_is_single(self):
        mol = parse_smiles("Cc1ccccc1")
        orders = sorted(o.symbol for o in mol.bonds.values())
        assert orders.count("-") == 1 and orders.count(":") == 6

    def test_percent_ring_closure(self):
        a = parse_smiles("C%12CCCCC%12")
        b = parse_smiles("C1CCCCC1")
        assert a.canonical_form == b.canonical_form

    def test_ring_bond_symbol(self):
        mol = parse_smiles("C=1CCCCC=1")
        assert BondOrder.DOUBLE in mol.bonds.values()

    def test_two_letter_elements(self):
        mol = parse_smiles("ClCBr")
        assert sorted(a.symbol for a in mol.atoms) == ["Br", "C", "Cl"]

    def test_bracket_atoms(self):
        assert parse_smiles("[S](=O)(=O)([O])[O]").n_atoms == 5

    @pytest.mark.parametrize(
        "text",
        ["C@C", "C/C=C/C", "[C+]", "[13C]", "[CH3]", "[H]", "Xx", "C$",
         "C==C", "C=", "=C", "C%1CC", "C0CC0"],
    )
    def test_unknown_tokens(self, text):
        with pytest.raises(UnknownToken):
            parse_smiles(text)

    @pytest.mark.parametrize("text", ["C(C", "C(C(C)", ")C", "C)C", "(CC)"])
    def test_unbalanced_branches(self, text):
        with pytest.raises(UnbalancedBranch):
            parse_smiles(text)

    @pytest.mark.parametrize("text", ["C1CC", "C1CC2CC1"])
    def test_unclosed_rings(self, text):
        with pytest.raises(UnclosedRing):
            parse_smiles(text)

    def test_multi_fragment(self):
        with pytest.raises(MultiFragmentInput):
            parse_smiles("C.C")

    @pytest.mark.parametrize("text", ["C(=O)(=O)(=O)O", "FF(F)F", "N(=O)=O"])
    def test_valence_exceeded(self, text):
        with pytest.raises(ValenceExceeded):
            parse_smiles(text)

    def test_duplicate_ring_bond(self):
        with pytest.raises(InvalidMolecule):
            parse_smiles("C12CC12")

    def test_empty_input(self):
        with pytest.raises(UnknownToken):
            parse_smiles("")


class TestHydrogens:
    def test_methane(self):
        mol = add_explicit_hydrogens(parse_smiles("C"))
        assert mol.n_atoms == 5
        assert len(mol.bonds) == 4

    def test_ethanol_counts(self):
        # manual valence count: C needs 3+2 H, O needs 1
        mol = add_explicit_hydrogens(parse_smiles("CCO"))
        assert mol.n_atoms == 9
        assert len(mol.bonds) == 8

    def test_idempotent(self):
        once = add_explicit_hydrogens(parse_smiles("CCO"))
        assert add_explicit_hydrogens(once) is once

    def test_aromatic_h_counts(self):
        assert add_explicit_hydrogens(parse_smiles("c1ccccc1")).n_atoms == 12
        assert add_explicit_hydrogens(parse_smiles("n1ccccc1")).n_atoms == 11

    def test_sulfur_fills_to_smallest_standard_valence(self):
        assert add_explicit_hydrogens(parse_smiles("S")).n_atoms == 3  # H2S
        # bond sum 4 -> filled to 4, no hydrogens on S
        so2 = add_explicit_hydrogens(parse_smiles("O=S=O"))
        assert so2.n_atoms == 3

    def test_phosphorus_fixed_at_five(self):
        assert add_explicit_hydrogens(parse_smiles("P")).n_atoms == 6

    def test_strip_inverts_expansion(self):
        mol = parse_smiles("CC(=O)O")
        assert strip_hydrogens(add_explicit_hydrogens(mol)).canonical_form == mol.canonical_form


class TestCanonical:
    def test_reversed_traversal(self):
        assert parse_smiles("OCC").canonical_form == parse_smiles("CCO").canonical_form

    def test_isomers_differ(self):
        assert parse_smiles("CC(C)C").canonical_form != parse_smiles("CCCC").canonical_form

    def test_single_carbon(self):
        assert parse_smiles("C").canonical_form == "C"

    def test_write_round_trip(self, corpus):
        for text in corpus:
            mol = parse_smiles(text)
            again = parse_smiles(mol.canonical_form)
            assert again.canonical_form == mol.canonical_form, text

    def test_relabel_invariance(self, corpus):
        rng = random.Random(7)
        for text in corpus:
            mol = parse_smiles(text)
            forms = {relabel(mol, rng).canonical_form for _ in range(8)}
            forms.add(mol.canonical_form)
            assert len(forms) == 1, text

    def test_random_graph_invariance(self):
        rng = random.Random(13)
        for _ in range(150):
            mol = random_molecule(rng, max_heavy=9, expanded=False)
            forms = {relabel(mol, rng).canonical_form for _ in range(5)}
            forms.add(parse_smiles(mol.canonical_form).canonical_form)
            assert len(forms) == 1

    def test_canonical_form_ignores_hydrogens(self):
        mol = parse_smiles("CCO")
        assert add_explicit_hydrogens(mol).canonical_form == mol.canonical_form

    def test_long_chain(self):
        # Emission starts at the centre and writes the shorter half as the
        # branch, as for every chain of four or more atoms.
        assert parse_smiles("CCCCCC").canonical_form == "C(CC)CCC"
        mol = parse_smiles("C" * 2000)
        assert mol.canonical_form == "C(" + "C" * 999 + ")" + "C" * 1000
        assert sorted(mol.canonical_heavy_order()) == list(range(2000))

    def test_deep_branched_tree(self):
        # A 1501-carbon backbone with an O on each carbon but the last and
        # a methyl on every third: the centre is 750 bonds from either end.
        mol = parse_smiles("".join("C(O)" if k % 3 else "C(C)(O)" for k in range(1500)) + "C")
        form = mol.canonical_form
        assert parse_smiles(form).canonical_form == form
        assert relabel(mol, random.Random(5)).canonical_form == form
        assert sorted(mol.canonical_heavy_order()) == list(range(mol.n_atoms))

    def test_ring_with_long_tail(self):
        # Emission starts at the tail's free end, as it does for tails of
        # 1, 2, 5, 50 and 600 atoms.
        mol = parse_smiles("C1CC1" + "C" * 1000)
        assert mol.canonical_form == "C" * 1000 + "C1CC1"
        assert mol.canonical_heavy_order() == tuple(range(1002, 1, -1)) + (0, 1)


def _golden_rows(name):
    for line in (DATA_DIR / name).read_text().splitlines():
        label, atoms, bonds, form, order = line.split("\t")
        bond_map = {}
        for entry in bonds.split():
            i, j, symbol = entry.split(",")
            bond_map[(int(i), int(j))] = BondOrder(symbol)
        mol = Molecule([PERIODIC_TABLE[a] for a in atoms.split()], bond_map)
        yield label, mol, form, tuple(int(i) for i in order.split(","))


def test_golden_canonical_trees():
    """Canonical forms and heavy orders of acyclic molecules are unchanged.

    ``tests/data/canonical_trees.tsv`` holds the outputs of the earlier,
    recursive tree canonicalizer, written with:

        PYTHONPATH=src:perfbench python tests/data/make_canonical_trees.py \\
            > tests/data/canonical_trees.tsv
    """
    labels = set()
    for label, mol, form, order in _golden_rows("canonical_trees.tsv"):
        labels.add(label)
        assert (mol.canonical_form, mol.canonical_heavy_order()) == (form, order), label
    assert {"explicit-hydrogens", "bo-join-fp", "rand-template-qed"} <= labels


def test_golden_canonical_rings():
    """Canonical forms and heavy orders of cyclic molecules are unchanged.

    ``tests/data/canonical_rings.tsv`` holds the outputs of the earlier,
    recursive cyclic emission, written with:

        PYTHONPATH=src:perfbench python tests/data/make_canonical_rings.py \\
            > tests/data/canonical_rings.tsv
    """
    labels = set()
    for label, mol, form, order in _golden_rows("canonical_rings.tsv"):
        labels.add(label)
        assert len(mol.bonds) >= mol.n_atoms, label
        assert (mol.canonical_form, mol.canonical_heavy_order()) == (form, order), label
    assert {"explicit-hydrogens", "long-tail", "dense-cage"} <= labels


#: Elements of the random trees below; all but F and Cl are written
#: lowercase when aromatic-bonded.
TREE_ELEMENTS = ("C", "N", "O", "S", "B", "P", "F", "Cl")
TREE_ORDERS = (BondOrder.SINGLE, BondOrder.DOUBLE, BondOrder.TRIPLE, BondOrder.AROMATIC)


def _rooted_tree(draw, height):
    """Parents of a tree rooted at atom 0: a chain of ``height`` bonds
    from the root, then up to 8 atoms, each hung on an atom of degree
    below 4 and, unless ``height`` is None, of depth below ``height``, so
    that no atom lies deeper than the chain's end."""
    parents, depth, degree = [-1], [0], [0]
    for k in range(1, (height or 0) + 1):
        parents.append(k - 1)
        depth.append(k)
        degree[k - 1] += 1
        degree.append(0)
    for _ in range(draw(st.integers(0, 8))):
        free = [j for j in range(len(parents))
                if degree[j] < 4 and (height is None or depth[j] < height)]
        if not free:
            break
        j = draw(st.sampled_from(free))
        parents.append(j)
        depth.append(depth[j] + 1)
        degree[j] += 1
        degree.append(0)
    return parents


@st.composite
def trees(draw):
    """A random acyclic molecule: any tree, or two rooted halves of equal
    height bonded root to root, whose roots are then the two centres;
    the halves are equal (equal centre codes) or drawn apart, and the
    atoms are relabelled, so either centre may have the smaller code.
    Bonds of every order, aromatic ones included; explicit hydrogens on
    some."""
    mode = draw(st.sampled_from(["any", "equal halves", "halves"]))
    if mode == "any":
        parents = _rooted_tree(draw, None)
    else:
        height = draw(st.integers(0, 3))
        half = _rooted_tree(draw, height)
        other = half if mode == "equal halves" else _rooted_tree(draw, height)
        parents = half + [-1 if p < 0 else p + len(half) for p in other]
    n = len(parents)
    edges = [(p, i) for i, p in enumerate(parents) if p >= 0]
    if mode != "any":
        edges.append((0, len(half)))
    degree = [0] * n
    for i, j in edges:
        degree[i] += 1
        degree[j] += 1
    elements = []
    for i in range(n):
        fits = [e for e in TREE_ELEMENTS if PERIODIC_TABLE[e].default_valence >= degree[i]]
        elements.append(PERIODIC_TABLE[draw(st.sampled_from(fits))])
    if mode == "equal halves":
        elements[len(half):] = elements[:len(half)]
    # Raise single bonds while both ends keep their valence.
    sums = [float(d) for d in degree]
    bonds = {}
    for i, j in edges:
        order = draw(st.sampled_from(TREE_ORDERS))
        extra = order.valence_contribution - 1.0
        if any(int(sums[k] + extra) > elements[k].default_valence for k in (i, j)):
            order = BondOrder.SINGLE
        sums[i] += order.valence_contribution - 1.0
        sums[j] += order.valence_contribution - 1.0
        bonds[(i, j)] = order
    if mode == "equal halves":
        m = len(half)
        for (i, j), order in list(bonds.items()):
            if j < m:
                bonds[(i + m, j + m)] = order
    mol = Molecule(elements, bonds)
    if draw(st.booleans()):
        mol = add_explicit_hydrogens(mol)
    return relabel(mol, random.Random(draw(st.integers(0, 2**16))))


class TestTreePath:
    """The leaves-first tree path gives the canonical form and heavy order
    of the former four-pass one (``oracles.canonical_tree_four_passes``)."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(mol=trees())
    # c:c with two lowercase centres of equal code.
    @example(mol=Molecule([PERIODIC_TABLE["C"]] * 2, {(0, 1): BondOrder.AROMATIC}))
    def test_random_trees(self, mol):
        assert _canonicalize(mol) == oracles.canonical_tree_four_passes(mol)

    def test_second_centre_with_the_smaller_code_is_the_root(self):
        # C1-N0-C2-C3: the centres are N0 and C2, and C2's code is smaller.
        mol = Molecule([PERIODIC_TABLE[e] for e in "NCCC"],
                       {(0, 1): BondOrder.SINGLE, (0, 2): BondOrder.SINGLE,
                        (2, 3): BondOrder.SINGLE})
        assert _canonicalize(mol) == ("C(C)NC", (2, 3, 0, 1))

    def test_every_molecule_of_a_template_walk(self, template_walk_molecules):
        acyclic = [m for m in template_walk_molecules
                   if len(strip_hydrogens(m).bonds) == m.heavy_atom_count() - 1]
        assert len(acyclic) > 100
        for mol in acyclic:
            assert _canonicalize(mol) == oracles.canonical_tree_four_passes(mol)


class TestWeights:
    def test_paper_masses(self):
        assert atom_weight(PERIODIC_TABLE["H"], WeightMode.MASS) == 1.008
        assert atom_weight(PERIODIC_TABLE["C"], WeightMode.MASS) == 12.011

    def test_unit_mode(self):
        for elem in PERIODIC_TABLE.values():
            assert atom_weight(elem, WeightMode.UNIT) == 1.0

    def test_total_weight_positive_and_additive(self, corpus):
        for text in corpus[:12]:
            mol = add_explicit_hydrogens(parse_smiles(text))
            total = molecular_weight(mol, WeightMode.MASS)
            assert total > 0
            assert total == pytest.approx(
                sum(a.atomic_mass for a in mol.atoms), abs=1e-12
            )
            assert molecular_weight(mol, WeightMode.UNIT) == mol.n_atoms


class TestBondProfile:
    def test_methane_center(self):
        mol = add_explicit_hydrogens(parse_smiles("C"))
        prof = bond_profile(mol, 0)
        assert prof == (("-", "C", "H"),) * 4

    def test_ethanol_oxygen(self):
        mol = add_explicit_hydrogens(parse_smiles("CCO"))
        oxygen = next(i for i, a in enumerate(mol.atoms) if a.symbol == "O")
        assert bond_profile(mol, oxygen) == (("-", "C", "O"), ("-", "H", "O"))

    def test_formic_acid_carbon(self):
        mol = add_explicit_hydrogens(parse_smiles("OC=O"))
        carbon = next(i for i, a in enumerate(mol.atoms) if a.symbol == "C")
        assert sorted(bond_profile(mol, carbon)) == [
            ("-", "C", "H"),
            ("-", "C", "O"),
            ("=", "C", "O"),
        ]

    def test_cardinality_is_degree(self):
        mol = add_explicit_hydrogens(parse_smiles("CC(=O)O"))
        for i in range(mol.n_atoms):
            assert len(bond_profile(mol, i)) == mol.degree(i)


class TestImplicitHydrogens:
    """A heavy-atom molecule gives the bits of its hydrogen expansion."""

    def test_weights_equal_the_expansion(self, heavy_molecules):
        for mol in heavy_molecules:
            expanded = add_explicit_hydrogens(mol)
            for mode in WeightMode:
                assert molecular_weight(mol, mode) == molecular_weight(expanded, mode)

    def test_profiles_equal_the_expansion(self, heavy_molecules):
        for mol in heavy_molecules:
            expanded = add_explicit_hydrogens(mol)
            for i in range(mol.n_atoms):
                assert bond_profile(mol, i) == bond_profile(expanded, i)


def test_hydrogen_expansion_conserves_heavy_atoms(corpus):
    for text in corpus:
        mol = parse_smiles(text)
        expanded = add_explicit_hydrogens(mol)
        assert expanded.heavy_atom_count() == mol.n_atoms
        added = expanded.n_atoms - mol.n_atoms
        assert added == sum(mol.free_valence(i) for i in range(mol.n_atoms))


def test_pool_file_loading(tmp_path):
    path = tmp_path / "pool.smi"
    path.write_text("# comment\nCCO\n\nCC\n")
    from molbo.molgraph import load_pool

    pool = load_pool(path)
    assert [m.canonical_form for m in pool] == [
        parse_smiles("CCO").canonical_form,
        parse_smiles("CC").canonical_form,
    ]


def _fresh_skeleton(mol):
    """The heavy skeleton built from scratch, with no cache filled."""
    heavy = mol.heavy_indices()
    remap = {old: new for new, old in enumerate(heavy)}
    bonds = {(remap[i], remap[j]): order for (i, j), order in mol.bonds.items()
             if i in remap and j in remap}
    return Molecule([mol.atoms[i] for i in heavy], bonds)


def _summed_bond_orders(mol, i):
    s, aromatic = 0.0, False
    for _, order in mol.neighbors(i):
        s += order.valence_contribution
        aromatic = aromatic or order is BondOrder.AROMATIC
    return int(s + 1e-9) if aromatic else int(round(s))


class TestCachedSkeleton:
    def test_equals_fresh_skeleton(self, cached_molecules):
        for mol in cached_molecules:
            skeleton = strip_hydrogens(mol)
            assert strip_hydrogens(mol) is skeleton
            fresh = _fresh_skeleton(mol)
            assert skeleton.atoms == fresh.atoms
            assert list(skeleton.bonds.items()) == list(fresh.bonds.items())
            assert (skeleton.canonical_form, skeleton.canonical_heavy_order()) == \
                _canonicalize(fresh)

    def test_hydrogen_free_molecule_is_its_own_skeleton(self):
        mol = parse_smiles("O=S=O")
        assert strip_hydrogens(add_explicit_hydrogens(mol)) is mol

    def test_bond_sums_match_summed_orders(self, cached_molecules):
        for mol in cached_molecules:
            for i in range(mol.n_atoms):
                assert mol.bond_order_sum(i) == _summed_bond_orders(mol, i)


class TestBuildFromOrigins:
    """``build_from_origins`` orders inherited builds: each reagent
    before its product, each molecule once, nothing already built."""

    @staticmethod
    def _diamond():
        # Two products share reagent ``d``, and the final product joins them.
        d, c, o = parse_smiles("CC"), parse_smiles("C"), parse_smiles("O")
        a = join_molecules(d, c, 1, 0, BondOrder.SINGLE)
        b = join_molecules(d, o, 1, 0, BondOrder.SINGLE)
        return d, c, o, a, b, join_molecules(a, b, 0, 0, BondOrder.SINGLE)

    @staticmethod
    def _run(mol, done=()):
        built, asked, order = {id(m) for m in done}, [], []

        def is_built(m):
            asked.append(m)
            return id(m) in built

        def build(m):
            assert id(m) not in built
            assert all(id(r) in built for r in (m._origin or ())[:2])
            built.add(id(m))
            order.append(m)

        build_from_origins(mol, is_built, build)
        return order, asked

    def test_diamond_builds_each_reagent_once_and_first(self):
        d, c, o, a, b, product = self._diamond()
        order, _ = self._run(product)
        assert sorted(map(id, order)) == sorted(map(id, (d, c, o, a, b, product)))
        assert order[-1] is product

    def test_molecule_joined_to_itself(self):
        d = parse_smiles("CC")
        product = join_molecules(d, d, 0, 0, BondOrder.SINGLE)
        order, _ = self._run(product)
        assert [m is d for m in order] == [True, False] and order[1] is product

    def test_built_molecule_is_neither_rebuilt_nor_descended_into(self):
        d, c, o, a, b, product = self._diamond()
        order, asked = self._run(product, done=(a,))
        assert sorted(map(id, order)) == sorted(map(id, (d, o, b, product)))
        assert all(m is not c for m in asked)

    def test_nothing_is_built_when_the_molecule_is(self):
        product = self._diamond()[-1]
        order, asked = self._run(product, done=(product,))
        assert order == [] and asked == [product]
