import random

import pytest

from conftest import relabel
from molbo.errors import MissingContribution
from molbo.molgraph import add_explicit_hydrogens, parse_smiles
from molbo.objectives import (
    Band,
    DEFAULT_CONTRIBUTIONS,
    Objective,
    ObjectiveKind,
    evaluate,
    ring_data,
)
from molbo.optimizer import objective_from_json


def expand(text):
    return add_explicit_hydrogens(parse_smiles(text))


class TestHeavyAtomTarget:
    def test_exact_target_is_global_max(self):
        obj = Objective(kind=ObjectiveKind.HEAVY_ATOM_TARGET, target=10)
        mol = expand("CCCCCCCCCC")
        assert evaluate(obj, mol) == 0

    def test_distance_from_target(self):
        obj = Objective(kind=ObjectiveKind.HEAVY_ATOM_TARGET, target=10)
        assert evaluate(obj, expand("CCC")) == -7
        assert evaluate(obj, expand("C" * 12)) == -2

    def test_never_positive(self):
        obj = Objective(kind=ObjectiveKind.HEAVY_ATOM_TARGET, target=4)
        for text in ("C", "CC", "CCCC", "CCCCCCC"):
            assert evaluate(obj, expand(text)) <= 0


class TestLogP:
    def test_hand_summed_ethanol(self):
        # expanded ethanol is 2 C, 1 O, 6 H
        want = (2 * DEFAULT_CONTRIBUTIONS["C"] + DEFAULT_CONTRIBUTIONS["O"]
                + 6 * DEFAULT_CONTRIBUTIONS["H"])
        obj = Objective(kind=ObjectiveKind.LOGP)
        assert evaluate(obj, expand("CCO")) == pytest.approx(want, abs=1e-12)

    def test_missing_contribution(self):
        obj = Objective(kind=ObjectiveKind.LOGP, contributions={"C": 0.3})
        with pytest.raises(MissingContribution):
            evaluate(obj, expand("CCO"))


class TestRings:
    def test_ring_penalties(self):
        assert ring_data(expand("C1CCCCC1"))[1] == 0.0   # cyclohexane
        assert ring_data(expand("C1CCCCCCC1"))[1] == 2.0  # cyclooctane

    def test_fused_ring_count(self):
        rings, _, fused = ring_data(expand("C1CCC2CCCCC2C1"))
        assert len(rings) == 2
        assert fused == 2.0

    def test_acyclic_no_rings(self):
        rings, penalty, fused = ring_data(expand("CCCCC"))
        assert not rings and penalty == 0.0 and fused == 0.0


class TestPenLogP:
    def test_ethanol_no_penalties(self):
        logp = evaluate(Objective(kind=ObjectiveKind.LOGP), expand("CCO"))
        pen = evaluate(Objective(kind=ObjectiveKind.PENLOGP), expand("CCO"))
        assert pen == pytest.approx(logp, abs=1e-12)

    def test_branching_complexity(self):
        # isobutane: one atom with three heavy neighbors -> 0.25
        logp = evaluate(Objective(kind=ObjectiveKind.LOGP), expand("CC(C)C"))
        pen = evaluate(Objective(kind=ObjectiveKind.PENLOGP), expand("CC(C)C"))
        assert pen == pytest.approx(logp - 0.25, abs=1e-12)

    def test_fused_rings_and_branch_points(self):
        # decalin: two fused rings (2 x 0.5) and two fusion carbons (2 x 0.25)
        mol = expand("C1CCC2CCCCC2C1")
        logp = evaluate(Objective(kind=ObjectiveKind.LOGP), mol)
        pen = evaluate(Objective(kind=ObjectiveKind.PENLOGP), mol)
        assert pen == pytest.approx(logp - 1.0 - 0.5, abs=1e-12)

    def test_long_ring_penalty_applies(self):
        mol = expand("C1CCCCCCC1")
        logp = evaluate(Objective(kind=ObjectiveKind.LOGP), mol)
        pen = evaluate(Objective(kind=ObjectiveKind.PENLOGP), mol)
        assert pen == pytest.approx(logp - 2.0, abs=1e-12)


class TestQed:
    def test_in_unit_interval(self):
        obj = Objective(kind=ObjectiveKind.QED)
        for text in ("C", "CCO", "CC(=O)OCC", "c1ccccc1", "NCC(=O)O"):
            value = evaluate(obj, expand(text))
            assert 0.0 < value <= 1.0

    def test_band_shape(self):
        band = Band(a=0.0, b=1.0, c=2.0, d=4.0, floor=0.05)
        assert band.score(1.5) == 1.0
        assert band.score(0.5) == 0.5
        assert band.score(3.0) == 0.5
        assert band.score(-1.0) == 0.05
        assert band.score(9.0) == 0.05

    def test_prefers_mid_sized_molecules(self):
        obj = Objective(kind=ObjectiveKind.QED)
        tiny = evaluate(obj, expand("C"))
        mid = evaluate(obj, expand("CC(=O)NCCc1ccccc1"))
        assert mid > tiny


class TestInvariance:
    def test_relabeling_never_changes_values(self):
        rng = random.Random(0)
        objs = [
            Objective(kind=ObjectiveKind.HEAVY_ATOM_TARGET, target=5),
            Objective(kind=ObjectiveKind.LOGP),
            Objective(kind=ObjectiveKind.PENLOGP),
            Objective(kind=ObjectiveKind.QED),
        ]
        for text in ("CCO", "CC(C)C", "C1CCCCCCC1", "NCC(=O)O"):
            mol = expand(text)
            for obj in objs:
                base = evaluate(obj, mol)
                for _ in range(4):
                    assert evaluate(obj, relabel(mol, rng)) == pytest.approx(base, abs=1e-12)

    def test_heavy_form_scores_as_its_expansion(self, heavy_molecules):
        objs = [Objective(kind=kind) for kind in ObjectiveKind]
        for mol in heavy_molecules:
            expanded = add_explicit_hydrogens(mol)
            for obj in objs:
                assert evaluate(obj, mol) == evaluate(obj, expanded)


class TestConfig:
    def test_overrides_merge(self):
        config = {
            "contribution_table": {"C": 1.0},
            "qed_bands": {"mass": {"a": 0, "b": 10, "c": 20, "d": 30, "floor": 0.1}},
        }
        obj = objective_from_json({"kind": "logp", "target": 25, **config})
        assert obj.contributions["C"] == 1.0
        assert obj.contributions["O"] == DEFAULT_CONTRIBUTIONS["O"]
        assert obj.qed_bands["mass"].floor == 0.1

    def test_default_table_covers_all_elements(self):
        from molbo.molgraph import PERIODIC_TABLE

        assert set(DEFAULT_CONTRIBUTIONS) == set(PERIODIC_TABLE)
