import hashlib
import json

import numpy as np
import pytest

from molbo import optimizer
from molbo.kernel import FingerprintTanimoto, OTExpSum, SumKernel
from molbo.molgraph import add_explicit_hydrogens, load_pool, parse_smiles
from molbo.objectives import Objective, ObjectiveKind
from molbo.optimizer import Method, RunConfig, explore_acquisition, run
from molbo.synthesis import (
    CONDITION_LIBRARY,
    Condition,
    OracleKind,
    SynthesisDag,
    recipe,
    replay_recipe,
)

JOIN_POOL = ("C", "N", "O", "CC", "CO", "CN", "CCO", "CCC", "CCN", "COC")
HEAVY_10 = Objective(kind=ObjectiveKind.HEAVY_ATOM_TARGET, target=10)
HEAVY_25 = Objective(kind=ObjectiveKind.HEAVY_ATOM_TARGET, target=25)


def join_config(**overrides):
    base = dict(
        initial_pool=JOIN_POOL,
        objective=HEAVY_10,
        kernel_family=OTExpSum(),
        budget_t=3,
        seed=7,
        method=Method.CHEMBO,
        oracle=OracleKind.JOIN,
        conditions=(Condition("join"),),
        explorer_steps=8,
    )
    base.update(overrides)
    return RunConfig(**base)


def expanded_pool():
    return [add_explicit_hydrogens(parse_smiles(s)) for s in JOIN_POOL]


class TestExploreAcquisition:
    def test_join_world_grows_pool_by_exactly_n(self):
        pool = expanded_pool()
        dag = SynthesisDag()
        for m in pool:
            dag.add_initial(m)
        before = len(pool)
        explore_acquisition(
            pool, (Condition("join"),), set(), 5, OracleKind.JOIN,
            lambda cands: np.zeros(len(cands)), np.random.default_rng(0), dag=dag,
        )
        assert len(pool) == before + 5
        assert len({m.canonical_form for m in pool}) == len(pool)

    def test_constant_scorer_breaks_ties_by_canonical_form(self):
        pool = expanded_pool()
        best, stalled, _ = explore_acquisition(
            pool, (Condition("join"),), set(), 3, OracleKind.JOIN,
            lambda cands: np.zeros(len(cands)), np.random.default_rng(1),
        )
        assert not stalled
        assert best.canonical_form == min(m.canonical_form for m in pool)

    def test_deterministic_pool_trajectory(self):
        def trajectory(seed):
            pool = expanded_pool()
            explore_acquisition(
                pool, (Condition("join"),), set(), 6, OracleKind.JOIN,
                lambda cands: np.zeros(len(cands)), np.random.default_rng(seed),
            )
            return [m.canonical_form for m in pool]

        assert trajectory(5) == trajectory(5)
        assert trajectory(5) != trajectory(6)

    def test_stall_returns_argmax_with_flag(self):
        # template oracle with join-only condition never fires
        pool = expanded_pool()
        best, stalled, steps = explore_acquisition(
            pool, (Condition("join"),), set(), 2, OracleKind.TEMPLATE,
            lambda cands: np.arange(len(cands), dtype=float),
            np.random.default_rng(0),
        )
        assert stalled
        assert steps == 0
        assert best.canonical_form == pool[-1].canonical_form

    def test_stall_with_every_molecule_rated_returns_none(self):
        pool = expanded_pool()
        past = {m.canonical_form for m in pool}

        def scorer(cands):
            pytest.fail("a walk with no unrated molecule scored candidates")

        best, stalled, steps = explore_acquisition(
            pool, (Condition("join"),), past, 2, OracleKind.TEMPLATE,
            scorer, np.random.default_rng(0),
        )
        assert best is None
        assert stalled
        assert steps == 0

    def test_past_molecules_never_returned(self):
        pool = expanded_pool()
        past = {m.canonical_form for m in pool}
        best, _, _ = explore_acquisition(
            pool, (Condition("join"),), past, 4, OracleKind.JOIN,
            lambda cands: np.zeros(len(cands)), np.random.default_rng(3),
        )
        assert best.canonical_form not in past


class TestChemboRun:
    def test_budget_zero_returns_pool_argmax(self):
        result = run(join_config(budget_t=0))
        values = dict(result.initial_evaluations)
        assert result.best_value == max(values.values())
        assert not result.records

    def test_deterministic_records(self):
        a = run(join_config(budget_t=2))
        b = run(join_config(budget_t=2))
        assert a.records == b.records
        assert a.best_value == b.best_value

    def test_no_duplicate_evaluations_and_exact_count(self):
        result = run(join_config(budget_t=4))
        seen = [k for k, _ in result.initial_evaluations]
        seen += [r.molecule for r in result.records]
        assert len(seen) == len(set(seen))
        assert len(seen) == len(JOIN_POOL) + 4

    def test_best_so_far_nondecreasing(self):
        result = run(join_config(budget_t=4))
        curve = result.best_so_far()
        assert np.all(np.diff(curve) >= 0)
        assert curve[0] == max(v for _, v in result.initial_evaluations)

    def test_iterations_strictly_increasing(self):
        result = run(join_config(budget_t=4))
        its = [r.iteration for r in result.records]
        assert its == sorted(set(its)) == list(range(1, 5))

    def test_every_evaluated_molecule_has_replayable_recipe(self):
        result = run(join_config(budget_t=3))
        for rec in result.records:
            steps = recipe(result.dag, rec.molecule)
            final = replay_recipe(steps, OracleKind.JOIN)
            assert final.canonical_form == rec.molecule

    def test_acquisition_names_recorded(self):
        result = run(join_config(budget_t=3))
        assert all(r.acquisition_used in ("EI", "UCB", "TTEI") for r in result.records)


class TestRandRun:
    def test_budget_zero(self):
        result = run(join_config(budget_t=0, method=Method.RAND))
        assert result.best_value == max(v for _, v in result.initial_evaluations)

    def test_budget_counts_every_rating(self):
        result = run(join_config(budget_t=6, method=Method.RAND))
        assert len(result.records) == 6
        assert [r.iteration for r in result.records] == list(range(1, 7))

    def test_best_nondecreasing(self):
        result = run(join_config(budget_t=8, method=Method.RAND))
        assert np.all(np.diff(result.best_so_far()) >= 0)

    def test_deterministic(self):
        a = run(join_config(budget_t=5, method=Method.RAND))
        b = run(join_config(budget_t=5, method=Method.RAND))
        assert a.records == b.records

    def test_pinned_trajectory(self):
        # the join oracle, integer heavy-atom values and numpy's Generator
        # stream involve no BLAS, so these literals hold on any machine
        result = run(join_config(budget_t=6, method=Method.RAND))
        assert [(r.iteration, r.molecule, r.value, r.pool_size_after)
                for r in result.records] == [
            (1, "C(C)(C)N", -6, 11),
            (2, "C(C)(C)C(C)O", -4, 12),
            (3, "C(C)(C)O", -6, 13),
            (4, "C(CN)O", -6, 14),
            (5, "C(C)(C)(C(C)(C)N)C(C)O", 0, 15),
            (6, "C(O)O", -7, 16),
        ]

    def test_pinned_template_trajectory(self, template_pool_path):
        # the template oracle fires four of its five rules here; heavy-atom
        # values and numpy's Generator stream involve no BLAS
        pool = tuple(m.canonical_form for m in load_pool(template_pool_path))
        result = run(join_config(initial_pool=pool, budget_t=8, method=Method.RAND,
                                 oracle=OracleKind.TEMPLATE,
                                 conditions=CONDITION_LIBRARY))
        assert [(r.iteration, r.molecule, r.value, r.pool_size_after)
                for r in result.records] == [
            (1, "C(CC(O)=O)C(NC)=O", -1, 11),
            (2, "C(C)(NC)=O", -5, 12),
            (3, "O(CC)C(C)=O", -4, 13),
            (4, "C(CCC(O)=O)(OCC)=O", 0, 14),
            (5, "O(CC)CC", -5, 15),
            (6, "C(C)=NC", -6, 16),
            (7, "C(CC(OC)=O)C(OCC)=O", -1, 17),
            (8, "C(CCC(O)=O)(NCCN)=O", -1, 18),
        ]

    def test_paired_seed_shares_exploration_stream(self):
        # the same seed produces the same early synthesis products in both
        # methods because exploration draws come from a dedicated stream
        cb = run(join_config(budget_t=2, explorer_steps=6))
        rd = run(join_config(budget_t=6, method=Method.RAND))
        cb_products = [n.molecule for n in
                       sorted(cb.dag.nodes.values(), key=lambda n: n.step)
                       if n.step > 0]
        rd_products = [n.molecule for n in
                       sorted(rd.dag.nodes.values(), key=lambda n: n.step)
                       if n.step > 0]
        k = min(len(cb_products), len(rd_products))
        assert k >= 5
        assert cb_products[:k] == rd_products[:k]


class TestStalledRun:
    def test_both_methods_stall_without_new_ratings(self, monkeypatch):
        # the template oracle never fires under the join condition alone
        rated = []
        evaluate = optimizer.evaluate

        def counting_evaluate(objective, mol):
            rated.append(mol.canonical_form)
            return evaluate(objective, mol)

        monkeypatch.setattr(optimizer, "evaluate", counting_evaluate)
        initial = sorted(m.canonical_form for m in expanded_pool())
        for method in (Method.CHEMBO, Method.RAND):
            rated.clear()
            result = run(join_config(method=method, oracle=OracleKind.TEMPLATE,
                                     budget_t=3, explorer_steps=2))
            assert result.stalled
            assert result.records == []
            assert sorted(rated) == initial
            assert sorted(result.dag.nodes) == initial


class TestRunLog:
    def test_log_structure_and_flush(self, tmp_path):
        path = tmp_path / "run.jsonl"
        result = run(join_config(budget_t=3), log_path=path)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        assert set(header) == {"config", "initial_evaluations"}
        assert header["config"]["seed"] == 7
        assert len(header["initial_evaluations"]) == len(JOIN_POOL)
        assert len(lines) == 1 + len(result.records)
        for line, rec in zip(lines[1:], result.records):
            payload = json.loads(line)
            assert payload == {
                "iteration": rec.iteration,
                "molecule": rec.molecule,
                "value": rec.value,
                "acquisition_used": rec.acquisition_used,
                "pool_size_after": rec.pool_size_after,
            }

    @pytest.mark.parametrize("family,digest", [
        (FingerprintTanimoto(),
         "0496393992114e5be89e9bab6f582710b3ce3f309767cda775869b04d56eaad2"),
        (SumKernel(),
         "56931cc64127d95cf68d6a05688d6c809cced6cf32899c0845fc5fc99eb4a689"),
        (OTExpSum(),
         "f17dde75bda4efd28bcbec6c332e9267d6df550079316835ddfde0fd348933ed"),
    ])
    def test_pinned_guided_log(self, tmp_path, family, digest):
        # the acceptance join config at budget 4; the guided choice rests on
        # GP floats, so these digests were recorded with numpy 2.4.6 wheels
        # on x86-64 (the versions tier-1 CI installs)
        path = tmp_path / "run.jsonl"
        run(join_config(objective=HEAVY_25, kernel_family=family, budget_t=4,
                        seed=11, explorer_steps=20), log_path=path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_pinned_template_qed_log(self, tmp_path, template_pool_path):
        # objective floats (mass, logP, donors) of template products with
        # implicit hydrogens; the random baseline involves no BLAS, so this
        # digest holds on any machine
        pool = tuple(m.canonical_form for m in load_pool(template_pool_path))
        path = tmp_path / "run.jsonl"
        run(join_config(initial_pool=pool, objective=Objective(kind=ObjectiveKind.QED),
                        budget_t=8, method=Method.RAND, oracle=OracleKind.TEMPLATE,
                        conditions=CONDITION_LIBRARY), log_path=path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == \
            "e3371792b002fd5de1f4be5501abb645be224a91c7bd20b6e43f403735b0b53f"

    def test_byte_identical_logs(self, tmp_path):
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run(join_config(budget_t=2), log_path=p1)
        run(join_config(budget_t=2), log_path=p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestConfigValidation:
    def test_pool_size(self):
        with pytest.raises(ValueError):
            join_config(initial_pool=("C",))

    def test_negative_budget(self):
        with pytest.raises(ValueError):
            join_config(budget_t=-1)

    def test_explorer_steps(self):
        with pytest.raises(ValueError):
            join_config(explorer_steps=0)

    def test_duplicate_pool_entries_collapse(self):
        result = run(join_config(initial_pool=("C", "C", "N"), budget_t=0))
        assert len(result.initial_evaluations) == 2
