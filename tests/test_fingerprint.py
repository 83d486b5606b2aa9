import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import random_molecule, relabel
from molbo.errors import LengthMismatch
from molbo.fingerprint import (
    Fingerprint,
    path_descriptors,
    path_fingerprint,
    tanimoto,
)
from molbo.molgraph import add_explicit_hydrogens, parse_smiles


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
