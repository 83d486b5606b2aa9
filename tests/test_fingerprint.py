import hashlib
import itertools
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import molbo.fingerprint
import molbo.kernel
import molbo.optimizer
import oracles
from conftest import bridges, join_chain, random_molecule, relabel, split_and_rejoin
from molbo import (
    Condition,
    FingerprintTanimoto,
    KernelCache,
    Method,
    Objective,
    ObjectiveKind,
    OracleKind,
    RunConfig,
    run,
)
from molbo.errors import LengthMismatch
from molbo.fingerprint import (
    Fingerprint,
    crossing_descriptors,
    path_descriptors,
    path_fingerprint,
    tanimoto,
)
from molbo.molgraph import BondOrder, add_explicit_hydrogens, join_molecules, parse_smiles
from molbo.synthesis import synthesize_detailed


def expand(text):
    return add_explicit_hydrogens(parse_smiles(text))


class TestPathFingerprint:
    def test_methane_single_bit(self):
        fp = path_fingerprint(expand("C"), 2048, 7)
        assert fp.bits.bit_count() == 1

    def test_determinism(self):
        a = path_fingerprint(expand("CC(=O)OCC"), 2048, 7)
        b = path_fingerprint(expand("CC(=O)OCC"), 2048, 7)
        assert a == b

    def test_ethanol_descriptors_enumerated_by_hand(self):
        # simple paths of ethanol up to two bonds, heavy atoms only
        descriptors = path_descriptors(expand("CCO"), 2)
        assert descriptors == {"C", "O", "C-C", "C-O", "C-C-O"}

    def test_zero_bonds_gives_the_symbols_alone(self):
        assert path_descriptors(expand("CCO"), 0) == {"C", "O"}

    def test_equals_two_way_enumeration(self, cached_molecules):
        # rings, expanded forms, relabellings and walk products
        for max_path_len in range(11):
            for mol in cached_molecules:
                expected = oracles.path_descriptors_two_way(mol, max_path_len)
                assert path_descriptors(mol, max_path_len) == expected

    @pytest.mark.parametrize("n_bits,max_path_len,digest", [
        (2048, 7, "61f663498bb8a2e32927d91ccd5edd9aaf4ae414cd81f58469cf0c77d91c21e0"),
        (512, 5, "d57b4a7d3f54405fac58ff68ef3f3eb823027c54315fdf84573731ccce070089"),
    ])
    def test_corpus_bits_pinned(self, corpus, n_bits, max_path_len, digest):
        # the FNV-1a hash and the path set are pure integer and string
        # work, so these digests hold on any machine
        bits = [path_fingerprint(expand(text), n_bits, max_path_len).bits
                for text in corpus]
        assert hashlib.sha256(repr(bits).encode()).hexdigest() == digest

    def test_ethanol_popcount_bounded_by_descriptors(self):
        fp = path_fingerprint(expand("CCO"), 2048, 2)
        assert fp.bits.bit_count() <= 5
        assert fp.bits.bit_count() == 5  # no collisions at 2048 bits for 5 strings

    def test_hydrogens_never_enter_paths(self):
        heavy_only = path_descriptors(expand("CCO"), 7)
        assert not any("H" in d for d in heavy_only)

    def test_relabel_invariance(self):
        rng = random.Random(3)
        for _ in range(25):
            mol = random_molecule(rng, max_heavy=7)
            fp = path_fingerprint(mol, 512, 5)
            assert path_fingerprint(relabel(mol, rng), 512, 5) == fp

    def test_bond_order_changes_descriptors(self):
        single = path_fingerprint(expand("CC"), 2048, 7)
        double = path_fingerprint(expand("C=C"), 2048, 7)
        assert single != double

    @pytest.mark.parametrize("n_bits", [63, 100, 0])
    def test_rejects_bad_bit_counts(self, n_bits):
        with pytest.raises(ValueError):
            path_fingerprint(expand("C"), n_bits, 7)

    @pytest.mark.parametrize("max_len", [0, 11])
    def test_rejects_bad_path_lengths(self, max_len):
        with pytest.raises(ValueError):
            path_fingerprint(expand("C"), 2048, max_len)


class TestTanimoto:
    def test_self_similarity(self):
        fp = path_fingerprint(expand("CCO"), 2048, 7)
        assert tanimoto(fp, fp) == 1.0

    def test_disjoint_sets(self):
        a = Fingerprint(0b0011, 64, 7)
        b = Fingerprint(0b1100, 64, 7)
        assert tanimoto(a, b) == 0.0

    def test_known_overlap(self):
        a = Fingerprint(0b0111, 64, 7)  # bits {0,1,2}
        b = Fingerprint(0b1110, 64, 7)  # bits {1,2,3}
        assert tanimoto(a, b) == 0.5

    def test_both_empty(self):
        assert tanimoto(Fingerprint(0, 64, 7), Fingerprint(0, 64, 7)) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            tanimoto(Fingerprint(1, 64, 7), Fingerprint(1, 128, 7))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(a=st.integers(min_value=0, max_value=2**64 - 1),
           b=st.integers(min_value=0, max_value=2**64 - 1))
    def test_symmetric_and_bounded(self, a, b):
        fa, fb = Fingerprint(a, 64, 7), Fingerprint(b, 64, 7)
        value = tanimoto(fa, fb)
        assert 0.0 <= value <= 1.0
        assert value == tanimoto(fb, fa)


class TestJoinInheritance:
    """A join product's fingerprint is its reagents' bits ORed with the
    hashes of the paths that cross the new bond."""

    def test_crossing_paths_of_ethanol_by_hand(self):
        ethanol = parse_smiles("CCO")  # the C-O bond, atoms 1 and 2
        assert crossing_descriptors(ethanol, 1, 2, 2) == {"C-O", "C-C-O"}
        assert crossing_descriptors(ethanol, 2, 1, 1) == {"C-O"}

    def test_no_crossing_path_through_a_hydrogen(self):
        water = add_explicit_hydrogens(parse_smiles("O"))
        assert crossing_descriptors(water, 0, 1, 7) == set()

    def test_split_at_every_bridge_rejoins_exactly(self, cached_molecules):
        specs = list(itertools.product((64, 2048), (1, 2, 7)))
        splits = 0
        for mol in cached_molecules:
            full = {spec: path_fingerprint(mol, *spec) for spec in specs}
            for i, j in bridges(mol):
                product = split_and_rejoin(mol, i, j)
                frag_a, frag_b, _, _ = product._origin
                for spec in specs:
                    reagents = (path_fingerprint(frag_a, *spec),
                                path_fingerprint(frag_b, *spec))
                    inherited = path_fingerprint(product, *spec, reagents)
                    assert inherited == path_fingerprint(product, *spec) == full[spec]
                splits += 1
        assert splits > 1000

    def test_only_joins_record_an_origin(self):
        acid, alcohol = parse_smiles("CC(=O)O"), parse_smiles("CCO")
        ester, rule = synthesize_detailed([acid, alcohol], {"acid_cat"},
                                          OracleKind.TEMPLATE)
        assert rule == "esterification" and ester._origin is None
        assert acid._origin is None
        joined, rule = synthesize_detailed([acid, alcohol], {"join"}, OracleKind.JOIN)
        reagent_a, reagent_b, u, v = joined._origin
        assert rule == "join" and {reagent_a, reagent_b} == {acid, alcohol}
        assert joined.bonds[(min(u, v), max(u, v))] is BondOrder.SINGLE
        assert joined.atoms[u] is reagent_a.atoms[u]
        assert joined.atoms[v] is reagent_b.atoms[v - reagent_a.n_atoms]

    def test_molecules_without_origin_are_enumerated_in_full(self, monkeypatch):
        acid, alcohol = parse_smiles("CC(=O)O"), parse_smiles("OCCCO")
        ester, _ = synthesize_detailed([acid, alcohol], {"acid_cat"},
                                       OracleKind.TEMPLATE)
        calls = []
        enumerate_in_full = molbo.fingerprint.path_descriptors
        monkeypatch.setattr(molbo.fingerprint, "path_descriptors",
                            lambda mol, n: calls.append(mol) or enumerate_in_full(mol, n))
        spec = FingerprintTanimoto(512, 5)
        for mol in (ester, acid):
            fp = KernelCache().fingerprint(mol, spec)
            assert calls[-1] is mol
            assert fp == path_fingerprint(mol, 512, 5)

    def test_same_product_from_different_pairs(self):
        spec = FingerprintTanimoto()
        first = join_molecules(parse_smiles("CC"), parse_smiles("OC"), 1, 0, BondOrder.SINGLE)
        second = join_molecules(parse_smiles("CCO"), parse_smiles("C"), 2, 0, BondOrder.SINGLE)
        assert first.canonical_form == second.canonical_form
        assert first._origin[:2] != second._origin[:2]
        bits = [KernelCache().fingerprint(p, spec) for p in (first, second)]
        assert bits[0] == bits[1] == path_fingerprint(first)

    def test_deep_chain_resolves_without_recursion(self):
        chain = join_chain(300)
        for mol in chain:
            mol.canonical_form  # canonicalisation recurses by size; not under test
        spec = FingerprintTanimoto(2048, 7)
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        # far fewer frames than the chain is deep: resolving the origins
        # one call per ancestor would raise RecursionError
        sys.setrecursionlimit(depth + 100)
        try:
            fp = KernelCache().fingerprint(chain[-1], spec)
        finally:
            sys.setrecursionlimit(limit)
        assert fp == path_fingerprint(chain[-1], 2048, 7)

    def test_guided_join_run_enumerates_only_the_pool(self, monkeypatch):
        cfg = RunConfig(
            initial_pool=("C", "N", "O", "CC", "CO", "CCO"),
            objective=Objective(kind=ObjectiveKind.HEAVY_ATOM_TARGET, target=12),
            kernel_family=FingerprintTanimoto(),
            budget_t=4,
            seed=11,
            method=Method.CHEMBO,
            oracle=OracleKind.JOIN,
            conditions=(Condition("join"),),
            explorer_steps=6,
        )
        enumerated, built = [], []
        enumerate_in_full = molbo.fingerprint.path_descriptors
        build = molbo.kernel.path_fingerprint

        def counting(mol, n):
            enumerated.append(mol.canonical_form)
            return enumerate_in_full(mol, n)

        def recording(mol, *args):
            fp = build(mol, *args)
            built.append((mol, fp))
            return fp

        monkeypatch.setattr(molbo.fingerprint, "path_descriptors", counting)
        monkeypatch.setattr(molbo.kernel, "path_fingerprint", recording)
        run(cfg)
        monkeypatch.undo()
        pool = sorted(parse_smiles(s).canonical_form for s in cfg.initial_pool)
        assert sorted(enumerated) == pool
        assert len(built) > 2 * len(pool)
        for mol, fp in built:
            assert fp == path_fingerprint(mol)

    def test_walk_equals_step_lists_on_a_guided_join_run(self, monkeypatch):
        """The adjacency walk finds the crossing descriptors of the former
        whole-molecule step lists on every product of a seed-101 guided
        join run."""
        cfg = RunConfig(
            initial_pool=("C", "N", "O", "CC", "CO", "CN", "CCO", "CCC", "CCN", "COC"),
            objective=Objective(kind=ObjectiveKind.HEAVY_ATOM_TARGET, target=25),
            kernel_family=FingerprintTanimoto(),
            budget_t=5,
            seed=101,
            method=Method.CHEMBO,
            oracle=OracleKind.JOIN,
            conditions=(Condition("join"),),
        )
        products = []
        draw = molbo.optimizer.synthesize_detailed

        def recording(reagents, conditions, oracle):
            outcome = draw(reagents, conditions, oracle)
            if outcome:
                products.append(outcome[0])
            return outcome

        monkeypatch.setattr(molbo.optimizer, "synthesize_detailed", recording)
        run(cfg)
        monkeypatch.undo()
        assert len(products) > 100
        for mol in products:
            _, _, u, v = mol._origin
            for n in (1, 2, 7):
                assert crossing_descriptors(mol, u, v, n) == \
                    oracles.crossing_descriptors_by_steps(mol, u, v, n)

    def test_walk_equals_step_lists_with_explicit_hydrogens(self, cached_molecules):
        """The walk skips hydrogen neighbours as the step lists left them
        out: products rejoined at every bridge of every molecule with
        explicit hydrogens, the hydrogens' own bonds included."""
        heavy_bonds = 0
        for mol in cached_molecules:
            if mol.heavy_atom_count() == mol.n_atoms:
                continue
            for i, j in bridges(mol):
                product = split_and_rejoin(mol, i, j)
                _, _, u, v = product._origin
                for n in (1, 3, 7):
                    assert crossing_descriptors(product, u, v, n) == \
                        oracles.crossing_descriptors_by_steps(product, u, v, n)
                heavy_bonds += "H" not in (mol.atoms[i].symbol, mol.atoms[j].symbol)
        assert heavy_bonds > 200

    def test_reagent_fingerprints_must_match_the_product(self):
        product = join_chain(1)[-1]
        reagents = tuple(path_fingerprint(m, 512, 5) for m in product._origin[:2])
        with pytest.raises(ValueError):
            path_fingerprint(product, 2048, 5, reagents)
        with pytest.raises(ValueError):
            path_fingerprint(parse_smiles("CC"), 512, 5, reagents)
