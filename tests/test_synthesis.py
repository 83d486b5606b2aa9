import hashlib
import itertools
import json
import random

import pytest

import molbo.synthesis as synthesis
import oracles
from conftest import DATA_DIR, bridges, relabel, split_and_rejoin
from molbo import otdist
from molbo.errors import CycleDetected, InvalidMolecule, UnknownMolecule, ValenceExceeded
from molbo.kernel import FingerprintTanimoto, KernelCache
from molbo.molgraph import (
    BondOrder,
    Molecule,
    add_explicit_hydrogens,
    join_molecules,
    load_pool,
    parse_smiles,
    strip_hydrogens,
)
from molbo.synthesis import (
    CONDITION_LIBRARY,
    Condition,
    OracleKind,
    SynthesisDag,
    TEMPLATE_LIBRARY,
    _join_site,
    _sites,
    dag_from_json,
    dag_to_json,
    recipe,
    recipe_to_graph_text,
    recipe_to_json,
    record_synthesis,
    replay_recipe,
    synthesize_detailed,
)


def expand(text):
    return add_explicit_hydrogens(parse_smiles(text))


def canon(text):
    return parse_smiles(text).canonical_form


class TestJoinOracle:
    def test_methane_pair_gives_ethane(self):
        ethane, template = synthesize_detailed(
            [expand("C"), expand("C")], {"join"}, OracleKind.JOIN
        )
        assert template == "join"
        assert isinstance(ethane, Molecule)
        assert ethane.canonical_form == canon("CC")
        assert (ethane.n_atoms, len(ethane.bonds)) == (2, 1)
        assert [ethane.free_valence(i) for i in range(2)] == [3, 3]

    def test_needs_join_condition(self):
        assert synthesize_detailed(
            [expand("C"), expand("C")], {"heat"}, OracleKind.JOIN
        ) is None

    def test_needs_two_reagents(self):
        assert synthesize_detailed([expand("C")], {"join"}, OracleKind.JOIN) is None

    def test_empty_conditions_null(self):
        assert synthesize_detailed(
            [expand("C"), expand("C")], set(), OracleKind.JOIN
        ) is None

    def test_pure(self):
        args = ([expand("CCO"), expand("CN")], {"join"}, OracleKind.JOIN)
        first = synthesize_detailed(*args)[0].canonical_form
        second = synthesize_detailed(*args)[0].canonical_form
        assert first == second

    def test_products_hold_no_hydrogen_and_expand_validly(self):
        p = synthesize_detailed(
            [expand("CCO"), expand("CCN")], {"join"}, OracleKind.JOIN
        )[0]
        assert p.heavy_atom_count() == p.n_atoms == 6
        expanded = add_explicit_hydrogens(p)
        assert expanded.n_atoms == 6 + 6 + 7 - 2  # the new bond takes one H from each
        assert all(expanded.free_valence(i) == 0 for i in range(expanded.n_atoms))
        assert expanded.canonical_form == p.canonical_form


def constructed_join(mol_a, mol_b, u, v, order):
    """The join of atom ``u`` of ``mol_a`` and atom ``v`` of ``mol_b`` through
    the general constructor, with the bonds in the order a merge inserts
    them: ``mol_a``'s, then ``mol_b``'s shifted, then the new bond."""
    n = mol_a.n_atoms
    bonds = dict(mol_a.bonds)
    bonds.update({(i + n, j + n): o for (i, j), o in mol_b.bonds.items()})
    bonds[(u, v + n)] = order
    return Molecule(mol_a.atoms + mol_b.atoms, bonds)


def assert_join_is_constructed(mol_a, mol_b, u, v, order):
    """``join_molecules`` equals the constructor's product in every slot,
    or raises the constructor's error; returns whether it succeeded."""
    try:
        want = constructed_join(mol_a, mol_b, u, v, order)
    except ValenceExceeded as error:
        with pytest.raises(ValenceExceeded) as raised:
            join_molecules(mol_a, mol_b, u, v, order)
        assert str(raised.value) == str(error)
        return False
    got = join_molecules(mol_a, mol_b, u, v, order)
    for name in Molecule.__slots__:
        if name == "bonds":
            assert list(got.bonds.items()) == list(want.bonds.items())
        elif name == "_origin":
            assert got._origin == (mol_a, mol_b, u, v + mol_a.n_atoms)
        else:
            assert getattr(got, name) == getattr(want, name), name
    assert got.canonical_form == want.canonical_form
    assert got.canonical_heavy_order() == want.canonical_heavy_order()
    return True


class TestJoinAssembly:
    """A join product is assembled from its reagents' state, and equals
    the product of the general constructor."""

    def test_every_bridge_split_rejoins_to_the_constructed_product(self, cached_molecules):
        splits = 0
        for mol in cached_molecules:
            for i, j in bridges(mol):
                product = split_and_rejoin(mol, i, j)
                assert product.canonical_form == mol.canonical_form
                frag_a, frag_b, u, v = product._origin
                order = mol.bonds[(i, j)]
                assert assert_join_is_constructed(frag_a, frag_b, u, v - frag_a.n_atoms, order)
                splits += 1
        assert splits > 1000

    @pytest.mark.parametrize("text_a, text_b", [
        ("CC(=O)O", None),  # a self-join: the same object on both sides
        ("c1ccccc1", None),
        ("c1ccccc1", "CC=O"),
        ("CN", "c1ccncc1"),
        ("c1ccc2ccccc2c1", "C=CC#N"),
    ])
    def test_every_atom_pair_and_order(self, text_a, text_b):
        mol_a = parse_smiles(text_a)
        mol_b = mol_a if text_b is None else parse_smiles(text_b)
        joined = 0
        for u, v in itertools.product(range(mol_a.n_atoms), range(mol_b.n_atoms)):
            for order in (BondOrder.SINGLE, BondOrder.DOUBLE):
                joined += assert_join_is_constructed(mol_a, mol_b, u, v, order)
        assert joined > 0

    def test_aromatic_ring_atom_join(self):
        benzene = parse_smiles("c1ccccc1")
        product = join_molecules(benzene, benzene, 0, 3, BondOrder.SINGLE)
        assert product.canonical_form == canon("c1ccc(cc1)-c1ccccc1")
        assert [product.bond_order_sum(i) for i in (0, 9)] == [4, 4]
        assert assert_join_is_constructed(benzene, benzene, 0, 3, BondOrder.SINGLE)

    @pytest.mark.parametrize("text_a, text_b, u, v, message", [
        ("CC(C)(C)C", "C", 1, 0, "atom 1 (C) carries bond order 6 > 4"),  # at u
        ("C", "FC", 0, 0, "atom 1 (F) carries bond order 3 > 1"),  # at v
        ("FC", "FC", 0, 0, "atom 0 (F) carries bond order 3 > 1"),  # both: u first
    ])
    def test_an_end_without_free_valence_raises_the_constructor_error(
            self, text_a, text_b, u, v, message):
        mol_a, mol_b = parse_smiles(text_a), parse_smiles(text_b)
        with pytest.raises(ValenceExceeded) as constructed:
            constructed_join(mol_a, mol_b, u, v, BondOrder.DOUBLE)
        with pytest.raises(ValenceExceeded) as assembled:
            join_molecules(mol_a, mol_b, u, v, BondOrder.DOUBLE)
        assert str(assembled.value) == str(constructed.value) == message

    @pytest.mark.parametrize("u, v", [(-1, 0), (0, -1), (2, 0), (0, 3)])
    def test_an_end_outside_its_reagent_is_rejected(self, u, v):
        with pytest.raises(InvalidMolecule, match="reference a missing atom"):
            join_molecules(parse_smiles("CO"), parse_smiles("CCN"), u, v, BondOrder.SINGLE)

    def test_no_synthesis_product_runs_the_constructor(self, monkeypatch):
        acid, alcohol = parse_smiles("CC(=O)O"), parse_smiles("CCO")
        pool = load_pool(DATA_DIR / "pool_template.smi")
        built = []
        construct = Molecule.__init__
        monkeypatch.setattr(Molecule, "__init__",
                            lambda mol, *args: built.append(mol) or construct(mol, *args))
        joined, _ = synthesize_detailed([acid, alcohol], {"join"}, OracleKind.JOIN)
        assert joined._origin is not None
        fired = 0
        for conditions in ({"acid_cat"}, {"heat", "base"}):
            for reagents in itertools.permutations(pool, 2):
                outcome = synthesize_detailed(reagents, conditions, OracleKind.TEMPLATE)
                fired += outcome is not None
                assert outcome is None or outcome[0]._origin is None
        assert fired > 10 and built == []


def template_applications(mols):
    """Every way a template rule bonds two of ``mols``: for each rule, each
    ordered pair and each pair of their sites, the reagents, the new
    bond's ends and order, and the leaving atom ``(side, index)``."""
    for rule in TEMPLATE_LIBRARY:
        for mol_a, mol_b in itertools.product(mols, repeat=2):
            sites_b = rule.required_groups[1](mol_b)
            for site_a, site_b in itertools.product(rule.required_groups[0](mol_a), sites_b):
                side, pos = rule.leaving
                leaving = (side, (site_a, site_b)[side][pos])
                yield mol_a, mol_b, site_a[0], site_b[0], rule.order, leaving


def assembled_and_constructed(mol_a, mol_b, u, v, order, leaving):
    """``join_molecules``' product and the general merge's, which drops
    the same atom and adds the same bond."""
    drop = (set(), set())
    drop[leaving[0]].add(leaving[1])
    want = oracles.combine_by_constructor(mol_a, mol_b, *drop, [(u, v, order)])
    return join_molecules(mol_a, mol_b, u, v, order, leaving), want


@pytest.fixture(scope="module")
def template_products():
    """One generation of the products the template rules make from the
    molecules of ``pool_template.smi``, in canonical-form order."""
    products = {}
    for application in template_applications(load_pool(DATA_DIR / "pool_template.smi")):
        got, _ = assembled_and_constructed(*application)
        products.setdefault(got.canonical_form, got)
    return [products[k] for k in sorted(products)]


class TestTemplateAssembly:
    """A template product, which loses a leaving atom, is assembled from
    its reagents' state and equals the general constructor's product."""

    def test_every_rule_and_order_equals_the_constructed_product(self, template_products):
        # Relabelled copies put the leaving atoms at other indices: as
        # parsed, every halogen is its molecule's last atom.
        rng = random.Random(7)
        mols = load_pool(DATA_DIR / "pool_template.smi") + template_products
        mols += [relabel(mol, rng) for mol in mols for _ in range(2)]
        positions = {0: set(), 1: set()}
        products = 0
        for mol_a, mol_b, u, v, order, leaving in template_applications(mols):
            got, want = assembled_and_constructed(mol_a, mol_b, u, v, order, leaving)
            for name in Molecule.__slots__:
                if name == "bonds":
                    assert list(got.bonds.items()) == list(want.bonds.items())
                else:
                    assert getattr(got, name) == getattr(want, name), name
            assert got._origin is None
            assert got.canonical_form == want.canonical_form
            assert got.canonical_heavy_order() == want.canonical_heavy_order()
            side, x = leaving
            last = (mol_a, mol_b)[side].n_atoms - 1
            positions[side].add("first" if x == 0 else "last" if x == last else "middle")
            products += 1
        assert products > 1000
        assert positions == {0: {"first", "middle", "last"}, 1: {"first", "middle", "last"}}

    def test_products_get_the_kernel_features_of_their_parsed_form(self, template_products):
        spec = FingerprintTanimoto()
        assert len(template_products) > 10
        for product in template_products:
            fresh = parse_smiles(product.canonical_form)
            bits = [KernelCache().fingerprint(mol, spec) for mol in (product, fresh)]
            assert bits[0] == bits[1]
            assert otdist._class_table(product) == otdist._class_table(fresh)

    @pytest.mark.parametrize("text_a, text_b, u, v, leaving, message", [
        # the dropped chlorine leaves three bonds on atom 1, which the double bond overfills
        ("CC(C)(C)Cl", "CN", 1, 1, (0, 4), "atom 1 (C) carries bond order 5 > 4"),
        ("CN", "CC(C)(C)Cl", 1, 1, (1, 4), "atom 3 (C) carries bond order 5 > 4"),
        ("OC(C)(C)C", "CC(=O)N", 1, 3, (0, 0), "atom 0 (C) carries bond order 5 > 4"),
    ])
    def test_an_overfilled_end_raises_the_constructor_error(self, text_a, text_b, u, v,
                                                           leaving, message):
        mol_a, mol_b = parse_smiles(text_a), parse_smiles(text_b)
        with pytest.raises(ValenceExceeded) as constructed:
            assembled_and_constructed(mol_a, mol_b, u, v, BondOrder.DOUBLE, leaving)
        with pytest.raises(ValenceExceeded) as assembled:
            join_molecules(mol_a, mol_b, u, v, BondOrder.DOUBLE, leaving)
        assert str(assembled.value) == str(constructed.value) == message

    @pytest.mark.parametrize("leaving", [
        (0, 0), (0, 1), (0, 2), (0, 5), (0, -1), (1, 1), (1, 2), (2, 0), (-1, 0)])
    def test_a_leaving_atom_must_be_a_terminal_neighbour_of_its_end(self, leaving):
        # CCC(=O)O joined at its carboxyl carbon (2) and CN at its N (1):
        # only atoms 3 and 4 of the acid and atom 0 of CN may leave
        mol_a, mol_b = parse_smiles("CCC(=O)O"), parse_smiles("CN")
        with pytest.raises(InvalidMolecule):
            join_molecules(mol_a, mol_b, 2, 1, BondOrder.SINGLE, leaving)
        for u, valid in ((2, (0, 3)), (2, (0, 4)), (1, (1, 0))):
            join_molecules(mol_a, mol_b, u, 1, BondOrder.SINGLE, valid)


class TestTemplateOracle:
    def test_esterification(self):
        product = synthesize_detailed(
            [expand("CC(=O)O"), expand("CCO")], {"acid_cat"}, OracleKind.TEMPLATE
        )[0]
        assert product.canonical_form == canon("CC(=O)OCC")

    def test_esterification_reagent_order_irrelevant(self):
        product = synthesize_detailed(
            [expand("CCO"), expand("CC(=O)O")], {"acid_cat"}, OracleKind.TEMPLATE
        )[0]
        assert product.canonical_form == canon("CC(=O)OCC")

    def test_amide_coupling(self):
        product = synthesize_detailed(
            [expand("CC(=O)O"), expand("CN")], {"heat"}, OracleKind.TEMPLATE
        )[0]
        assert product.canonical_form == canon("CC(=O)NC")

    def test_williamson_ether(self):
        product = synthesize_detailed(
            [expand("CCO"), expand("CBr")], {"base"}, OracleKind.TEMPLATE
        )[0]
        assert product.canonical_form == canon("CCOC")

    def test_imine_formation(self):
        product = synthesize_detailed(
            [expand("CC=O"), expand("CN")], {"acid_cat"}, OracleKind.TEMPLATE
        )[0]
        assert product.canonical_form == canon("CC=NC")

    def test_n_alkylation(self):
        product = synthesize_detailed(
            [expand("CN"), expand("CCl")], {"base"}, OracleKind.TEMPLATE
        )[0]
        assert product.canonical_form == canon("CNC")

    def test_condition_gating(self):
        # ester partners under the wrong condition do not react
        assert synthesize_detailed(
            [expand("CC(=O)O"), expand("CCO")], {"base"}, OracleKind.TEMPLATE
        ) is None

    def test_empty_conditions_null(self):
        assert synthesize_detailed(
            [expand("CC(=O)O"), expand("CCO")], set(), OracleKind.TEMPLATE
        ) is None

    def test_library_order_breaks_overlaps(self):
        # acid + amino-alcohol under acid_cat: esterification fires first
        product = synthesize_detailed(
            [expand("CC(=O)O"), expand("NCCO")], {"acid_cat"}, OracleKind.TEMPLATE
        )[0]
        assert product.canonical_form == canon("CC(=O)OCCN")

    @pytest.mark.parametrize("text, pattern, count", [
        ("OC(=O)CCC(=O)O", synthesis.find_carboxylic_acids, 2),
        ("OCC(CO)CO", synthesis.find_alcohols, 3),
        ("NCCCN", synthesis.find_primary_amines, 2),
        ("CNCCNC", synthesis.find_amines_with_h, 2),
        ("BrCC(Cl)CI", synthesis.find_halide_carbons, 3),
        ("O=CCCC=O", synthesis.find_aldehydes, 2),
    ])
    def test_every_site_comes_in_canonical_rank_order(self, text, pattern, count):
        rng = random.Random(3)
        for mol in [parse_smiles(text)] + [relabel(parse_smiles(text), rng) for _ in range(6)]:
            rank = {atom: r for r, atom in enumerate(mol.canonical_heavy_order())}
            keys = [tuple(rank[a] for a in site) for site in pattern(mol)]
            assert len(keys) == count and keys == sorted(keys)

    def test_smallest_canonical_site_fires(self):
        # diol partner: the rewrite is deterministic across spellings
        a = synthesize_detailed([expand("CC(=O)O"), expand("OCCCO")], {"acid_cat"},
                                OracleKind.TEMPLATE)[0]
        b = synthesize_detailed([expand("CC(=O)O"), expand("OCCCO")], {"acid_cat"},
                                OracleKind.TEMPLATE)[0]
        assert a.canonical_form == b.canonical_form

    def test_single_reagent_never_fires(self):
        assert synthesize_detailed(
            [expand("CC(=O)O")], {"acid_cat"}, OracleKind.TEMPLATE
        ) is None

    def test_reagent_count_validated(self):
        with pytest.raises(ValueError):
            synthesize_detailed([], {"join"}, OracleKind.JOIN)
        with pytest.raises(ValueError):
            synthesize_detailed([expand("C")] * 4, {"join"}, OracleKind.JOIN)

    def test_errors_come_in_order_with_one_reagent(self):
        mol = parse_smiles("C")
        for reagents in ([], [mol] * 4):
            with pytest.raises(ValueError, match="one to three reagents"):
                synthesize_detailed(reagents, {"plasma"}, "no-such-oracle")
        with pytest.raises(ValueError, match="unknown condition 'plasma'"):
            synthesize_detailed([mol], {"plasma"}, "no-such-oracle")
        with pytest.raises(ValueError, match="unknown condition"):
            synthesize_detailed([mol], [["join"]], OracleKind.JOIN)  # unhashable entry
        with pytest.raises(ValueError, match="unknown oracle"):
            synthesize_detailed([mol], (Condition("join"),), "no-such-oracle")

    def test_conditions_validated_once_per_tuple(self, monkeypatch):
        calls = []
        condition_ids = synthesis._condition_ids

        def counting(conditions):
            calls.append(conditions)
            return condition_ids(conditions)

        monkeypatch.setattr(synthesis, "_condition_ids", counting)
        synthesis._memo_rules.cache_clear()
        a, b = parse_smiles("CC(=O)O"), parse_smiles("CCO")
        conds = [Condition("heat"), Condition("acid_cat")]
        try:
            for _ in range(3):
                _, rule = synthesize_detailed([a, b], conds, OracleKind.TEMPLATE)
                assert rule == "esterification"
                assert synthesize_detailed([a], conds, OracleKind.TEMPLATE) is None
        finally:
            synthesis._memo_rules.cache_clear()
        assert calls == [tuple(conds)]

    def test_one_reagent_is_not_stripped(self, monkeypatch):
        stripped = []
        monkeypatch.setattr(synthesis, "strip_hydrogens",
                            lambda m: stripped.append(m) or strip_hydrogens(m))
        acid = expand("CC(=O)O")
        assert synthesize_detailed([acid], {"acid_cat"}, OracleKind.TEMPLATE) is None
        assert stripped == []
        assert synthesize_detailed([acid, expand("CCO")], {"acid_cat"},
                                   OracleKind.TEMPLATE) is not None
        assert len(stripped) == 2

    def test_a_pair_that_no_allowed_rule_can_use_is_not_stripped(self, monkeypatch):
        stripped = []
        monkeypatch.setattr(synthesis, "strip_hydrogens",
                            lambda m: stripped.append(m) or strip_hydrogens(m))
        pair = [expand("CC(=O)O"), expand("CCO")]
        for conditions, oracle in (({"pd_cat"}, OracleKind.TEMPLATE),
                                   ({"acid_cat"}, OracleKind.JOIN),
                                   ({"join"}, OracleKind.TEMPLATE)):
            assert synthesize_detailed(pair, conditions, oracle) is None
        assert stripped == []


class TestDag:
    def test_record_product_of_pool_molecules(self):
        dag = SynthesisDag()
        dag.add_initial(canon("CC(=O)O"))
        dag.add_initial(canon("CCO"))
        record_synthesis(dag, canon("CC(=O)OCC"),
                         [canon("CC(=O)O"), canon("CCO")],
                         "esterification", {"acid_cat"}, 1)
        node = dag.nodes[canon("CC(=O)OCC")]
        assert len(node.parents) == 2
        assert node.step == 1

    def test_rederivation_keeps_earliest(self):
        dag = SynthesisDag()
        dag.add_initial("A" if False else canon("C"))
        dag.add_initial(canon("CC"))
        record_synthesis(dag, canon("CCC"), [canon("C"), canon("CC")],
                         "join", {"join"}, 1)
        record_synthesis(dag, canon("CCC"), [canon("CC"), canon("C")],
                         "join", {"join"}, 5)
        assert dag.nodes[canon("CCC")].step == 1

    def test_unknown_parent_rejected(self):
        dag = SynthesisDag()
        dag.add_initial(canon("C"))
        with pytest.raises(UnknownMolecule):
            record_synthesis(dag, canon("CC"), [canon("CCCC")], "join",
                             {"join"}, 1)

    def test_non_increasing_step_rejected(self):
        dag = SynthesisDag()
        dag.add_initial(canon("C"))
        dag.add_initial(canon("CC"))
        record_synthesis(dag, canon("CCC"), [canon("C"), canon("CC")],
                         "join", {"join"}, 1)
        with pytest.raises(CycleDetected):
            record_synthesis(dag, canon("CCCC"), [canon("CCC")], "join",
                             {"join"}, 1)


class TestRecipe:
    def _three_step_dag(self):
        dag = SynthesisDag()
        mols = {s: expand(s) for s in ("C", "N", "O")}
        for m in mols.values():
            dag.add_initial(m)
        current = mols["C"]
        partners = [mols["N"], mols["O"], mols["N"]]
        for step, partner in enumerate(partners, start=1):
            product = synthesize_detailed([current, partner], {"join"}, OracleKind.JOIN)[0]
            record_synthesis(dag, product,
                             [current.canonical_form, partner.canonical_form],
                             "join", {"join"}, step)
            current = product
        return dag, current

    def test_pool_molecule_recipe(self):
        dag = SynthesisDag()
        dag.add_initial(canon("CCO"))
        steps = recipe(dag, canon("CCO"))
        assert len(steps) == 1
        assert steps[0].from_pool and not steps[0].parents

    def test_single_reaction_recipe(self):
        dag = SynthesisDag()
        dag.add_initial(canon("C"))
        dag.add_initial(canon("N"))
        record_synthesis(dag, canon("CN"), [canon("C"), canon("N")],
                         "join", {"join"}, 1)
        steps = recipe(dag, canon("CN"))
        reactions = [s for s in steps if not s.from_pool]
        assert len(reactions) == 1
        assert reactions[0].molecule == canon("CN")

    def test_three_step_chain_topological(self):
        dag, target = self._three_step_dag()
        steps = recipe(dag, target)
        reactions = [s for s in steps if not s.from_pool]
        assert len(reactions) == 3
        assert [s.step for s in reactions] == sorted(s.step for s in reactions)
        produced = {s.molecule for s in steps if s.from_pool}
        for s in reactions:
            assert all(p in produced for p in s.parents)
            produced.add(s.molecule)

    def test_replay_regenerates_target(self):
        dag, target = self._three_step_dag()
        steps = recipe(dag, target)
        result = replay_recipe(steps, OracleKind.JOIN)
        assert result.canonical_form == target.canonical_form

    def test_unknown_molecule(self):
        dag = SynthesisDag()
        dag.add_initial(canon("C"))
        with pytest.raises(UnknownMolecule):
            recipe(dag, canon("CCCC"))

    def test_replay_names_a_product_other_than_the_recorded_one(self):
        dag = SynthesisDag()
        dag.add_initial(canon("C"))
        dag.add_initial(canon("N"))
        record_synthesis(dag, canon("CCC"), [canon("C"), canon("N")], "join", {"join"}, 1)
        with pytest.raises(InvalidMolecule) as info:
            replay_recipe(recipe(dag, canon("CCC")), OracleKind.JOIN)
        assert str(info.value) == \
            f"recipe step regenerated {canon('CN')!r}, expected {canon('CCC')!r}"

    def test_replay_of_a_step_that_does_not_fire(self):
        dag = SynthesisDag()
        dag.add_initial(canon("C"))
        dag.add_initial(canon("N"))
        record_synthesis(dag, canon("CN"), [canon("C"), canon("N")], "join", {"heat"}, 1)
        with pytest.raises(InvalidMolecule, match="failed to fire"):
            replay_recipe(recipe(dag, canon("CN")), OracleKind.JOIN)


class TestSerialization:
    def test_recipe_json_field_names(self):
        dag = SynthesisDag()
        dag.add_initial(canon("C"))
        dag.add_initial(canon("N"))
        record_synthesis(dag, canon("CN"), [canon("C"), canon("N")],
                         "join", {"join"}, 1)
        payload = recipe_to_json(canon("CN"), recipe(dag, canon("CN")))
        assert set(payload) == {"target", "steps"}
        for step in payload["steps"]:
            assert set(step) == {"molecule", "parents", "template", "conditions", "step"}

    def test_graph_text_one_entry_per_line(self):
        dag = SynthesisDag()
        dag.add_initial(canon("C"))
        dag.add_initial(canon("N"))
        record_synthesis(dag, canon("CN"), [canon("C"), canon("N")],
                         "join", {"join"}, 1)
        text = recipe_to_graph_text(recipe(dag, canon("CN")))
        lines = text.splitlines()
        assert sum(1 for ln in lines if ln.startswith("node ")) == 3
        assert sum(1 for ln in lines if ln.startswith("edge ")) == 2

    def test_dag_round_trip(self):
        dag = SynthesisDag()
        dag.add_initial(canon("C"))
        dag.add_initial(canon("N"))
        record_synthesis(dag, canon("CN"), [canon("C"), canon("N")],
                         "join", {"join"}, 1)
        clone = dag_from_json(dag_to_json(dag))
        assert clone.nodes == dag.nodes


def test_condition_library_contents():
    ids = {c.id for c in CONDITION_LIBRARY}
    assert ids == {"acid_cat", "base", "heat", "pd_cat", "neat", "join"}
    assert Condition("acid_cat") in CONDITION_LIBRARY


def test_memoised_sites_equal_direct_lookups(cached_molecules):
    patterns = {_join_site}
    patterns.update(g for t in TEMPLATE_LIBRARY for g in t.required_groups)
    filled = 0
    for mol in cached_molecules:
        skeleton = strip_hydrogens(mol)
        filled += bool(skeleton._sites)
        # a skeleton built from scratch canonicalises on its own
        fresh = Molecule(skeleton.atoms, skeleton.bonds)
        for pattern in patterns:
            assert _sites(skeleton, pattern) == pattern(fresh)
    assert filled >= 20  # the walks looked sites up on their reagents


# The acceptance join pool, and a reagent with no free valence.
JOIN_POOL = ("C", "N", "O", "CC", "CO", "CN", "CCO", "CCC", "CCN", "COC")
SATURATED = "FC(F)(F)F"


def test_reaction_table_is_pinned(template_pool_path):
    """Every ordered reagent pair under every condition subset of size
    0-2, for both oracles: how many calls fire, and a digest of each
    call's product (a one-element list of its canonical form) and rule
    name (or None)."""
    texts = [m.canonical_form for m in load_pool(template_pool_path)]
    texts += [canon(t) for t in JOIN_POOL + (SATURATED,)]
    reagents = [expand(t) for t in dict.fromkeys(texts)]
    ids = [c.id for c in CONDITION_LIBRARY]
    subsets = [set(q) for k in range(3) for q in itertools.combinations(ids, k)]
    outcomes = []
    for oracle in OracleKind:
        for a, b in itertools.product(reagents, repeat=2):
            for conditions in subsets:
                outcome = synthesize_detailed([a, b], conditions, oracle)
                if outcome is not None:
                    product, name = outcome
                    outcome = [[product.canonical_form], name]
                outcomes.append(outcome)
    fired = sum(o is not None for o in outcomes)
    digest = hashlib.sha256(json.dumps(outcomes).encode()).hexdigest()
    assert len(reagents) == 18 and len(subsets) == 22
    assert (fired, digest) == (
        2082, "2ed0b3ebf3737d686be42126998b6bf50432531e3bc45101b1e262a4e686f552")
    for pair in ([SATURATED, "C"], ["C", SATURATED]):
        assert synthesize_detailed([expand(t) for t in pair], {"join"},
                                   OracleKind.JOIN) is None


class TestEarlyRejectingFinders:
    """The finders that skip a carbon before building anything report the
    sites of the finders that list every carbon's neighbours first."""

    FINDERS = (
        (synthesis.find_carboxylic_acids, oracles.carboxylic_acids_by_lists),
        (synthesis.find_aldehydes, oracles.aldehydes_by_lists),
    )

    def test_every_molecule_of_a_template_walk(self, template_walk_molecules):
        found = [0, 0]
        for mol in template_walk_molecules:
            for form in (mol, add_explicit_hydrogens(mol)):
                for k, (finder, reference) in enumerate(self.FINDERS):
                    sites = finder(form)
                    assert sites == reference(form), form.canonical_form
                    found[k] += len(sites)
        # acetaldehyde is the pool's one aldehyde; imine formation consumes it
        assert len(template_walk_molecules) > 150 and found[0] > 10 and found[1] >= 1

    @pytest.mark.parametrize("text, acids, aldehydes", [
        ("C(=O)(O)O", [(0, 1, 2)], []),  # the first hydroxyl in neighbour order
        ("C=O", [], [(0, 1)]),  # formaldehyde
        ("CC(C)=O", [], []),  # a carbonyl carbon with two other neighbours
        ("CC=O", [], [(1, 2)]),
        ("CC(=O)O", [(1, 2, 3)], []),
        ("O=CC(=O)O", [(2, 3, 4)], [(1, 0)]),
    ])
    def test_edge_cases_in_every_atom_order(self, text, acids, aldehydes):
        mol = parse_smiles(text)
        assert [f(mol) for f, _ in self.FINDERS] == [acids, aldehydes]
        rng = random.Random(3)
        forms = [mol, add_explicit_hydrogens(mol)]
        forms += [relabel(m, rng) for m in forms for _ in range(6)]
        for form in forms:
            for finder, reference in self.FINDERS:
                assert finder(form) == reference(form)

    def test_hydrogen_expanded_acid(self):
        """The hydroxyl's explicit hydrogen makes it no terminal oxygen."""
        acid = expand("CC(=O)O")
        assert synthesis.find_carboxylic_acids(acid) == []
        assert oracles.carboxylic_acids_by_lists(acid) == []
