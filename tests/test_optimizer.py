import hashlib
import itertools
import json

import numpy as np
import pytest

import oracles
from molbo import optimizer, synthesis
from molbo.kernel import FingerprintTanimoto, OTExpSum, SumKernel
from molbo.molgraph import add_explicit_hydrogens, load_pool, parse_smiles
from molbo.objectives import Objective, ObjectiveKind
from molbo.optimizer import Method, RunConfig, explore_acquisition, run
from molbo.synthesis import (
    CONDITION_LIBRARY,
    Condition,
    OracleKind,
    SynthesisDag,
    dag_to_json,
    recipe,
    replay_recipe,
    save_dag,
    synthesize_detailed,
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


def run_digests(tmp_path, cfg):
    """The result of ``run(cfg)`` and the sha256 of its log and of its
    DAG as ``save_dag`` writes it."""
    log, dag = tmp_path / "run.jsonl", tmp_path / "run.dag.json"
    result = run(cfg, log_path=log)
    save_dag(result.dag, dag)
    return result, tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (log, dag))


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


class TestPick:
    """``_pick`` on a ``_Pcg64Stream`` makes the draws of
    ``Generator.choice(n, size, replace=False)``: the same indices, in the
    same order, and, once the stream is synced, the same generator state
    after every call, 32-bit buffer included."""

    # 2**31 + 1 rejects about half its 32-bit draws; 2**32 takes them whole
    POOL_SIZES = [*range(1, 301), 10_001, 2**20, 2**31 + 1, 2**32]

    def test_matches_choice_interleaved_as_the_walk_draws(self):
        for n in self.POOL_SIZES:
            for i in range(5):
                ours = np.random.default_rng(1000 * n + i)
                ref = np.random.default_rng(1000 * n + i)
                stream = optimizer._Pcg64Stream(ours)

                def same(a, b):
                    # synced and checked after every call, so a draw that
                    # leaves the 32-bit buffer out of step fails at once
                    stream.sync()
                    assert a == b, n
                    assert ours.bit_generator.state == ref.bit_generator.state, n

                for _ in range(10):
                    same(stream.random(), ref.random())
                    for size in (min(2, n), 1, 0):
                        same(optimizer._pick(stream, n, size),
                             oracles.pick_by_choice(ref, n, size))
                        if size == min(2, n):
                            same(stream.integers(1, 3), ref.integers(1, 3))

    def test_range_of_one_draws_nothing(self):
        rng = np.random.default_rng(0)
        rng.integers(0, 3)  # leaves a half-word in the buffer
        before = rng.bit_generator.state
        stream = optimizer._Pcg64Stream(rng)
        assert optimizer._pick(stream, 1, 1) == [0]
        assert stream.integers(5, 6) == 5
        stream.sync()
        assert rng.bit_generator.state == before

    def test_rejects_more_than_two(self):
        with pytest.raises(ValueError):
            optimizer._pick(optimizer._Pcg64Stream(np.random.default_rng(0)), 10, 3)

    def test_rejects_ranges_past_32_bits(self):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        stream = optimizer._Pcg64Stream(rng)
        for size in (1, 2):
            with pytest.raises(ValueError, match="2\\*\\*32"):
                optimizer._pick(stream, 2**32 + 1, size)
        with pytest.raises(ValueError, match="2\\*\\*32"):
            stream.integers(0, 2**32 + 1)
        stream.sync()
        assert rng.bit_generator.state == before

    def test_walk_rejects_other_bit_generators(self):
        pool = expanded_pool()
        rng = np.random.Generator(np.random.MT19937(0))
        walk = optimizer._walk(pool, (Condition("join"),), OracleKind.JOIN, rng, None, 10, 1)
        with pytest.raises(ValueError, match="MT19937"):
            next(walk)
        with pytest.raises(ValueError, match="MT19937"):
            explore_acquisition(pool, (Condition("join"),), set(), 2, OracleKind.JOIN,
                                lambda cands: np.zeros(len(cands)), rng)

    @staticmethod
    def walk(pool, conditions, oracle, n):
        dag = SynthesisDag()
        for m in pool:
            dag.add_initial(m)
        rng = np.random.default_rng(4)
        _, stalled, steps = explore_acquisition(
            pool, conditions, set(), n, oracle,
            lambda cands: np.zeros(len(cands)), rng, dag=dag,
        )
        return ([m.canonical_form for m in pool], dag_to_json(dag),
                rng.bit_generator.state, stalled, steps)

    @pytest.mark.parametrize("oracle", [OracleKind.JOIN, OracleKind.TEMPLATE])
    def test_walk_equals_walk_by_choice(self, monkeypatch, template_pool_path, oracle):
        if oracle is OracleKind.JOIN:
            make_pool, conditions = expanded_pool, (Condition("join"),)
        else:
            make_pool, conditions = (lambda: load_pool(template_pool_path)), \
                CONDITION_LIBRARY
        ours = self.walk(make_pool(), conditions, oracle, 20)
        monkeypatch.setattr(optimizer, "_walk", oracles.walk_by_choice)
        assert self.walk(make_pool(), conditions, oracle, 20) == ours
        *_, stalled, steps = ours
        assert steps == 20 and not stalled

    def test_walk_without_conditions_stalls_as_by_choice(self, monkeypatch):
        ours = self.walk(expanded_pool(), (), OracleKind.JOIN, 2)
        *_, stalled, steps = ours
        assert stalled and steps == 0
        monkeypatch.setattr(optimizer, "_walk", oracles.walk_by_choice)
        assert self.walk(expanded_pool(), (), OracleKind.JOIN, 2) == ours

    def test_consumer_that_stops_leaves_the_state_of_choice(self, template_pool_path):
        """A consumer takes 5 successes on the template pool, which span
        several of the stream's blocks, stops and closes the walk."""
        def take(walk_fn, k):
            pool = load_pool(template_pool_path)
            rng = np.random.default_rng(11)
            walk = walk_fn(pool, CONDITION_LIBRARY, OracleKind.TEMPLATE, rng, None, 100, 1)
            products = [m.canonical_form for m in itertools.islice(walk, k)]
            walk.close()  # closing the walk draws nothing
            return products, rng.bit_generator.state, len(pool)

        ours = take(optimizer._walk, 5)
        assert len(ours[0]) == 5
        assert ours == take(oracles.walk_by_choice, 5)

    @pytest.mark.parametrize("oracle", [OracleKind.JOIN, OracleKind.TEMPLATE])
    def test_explore_acquisition_syncs_before_it_scores(self, monkeypatch,
                                                          template_pool_path, oracle):
        """The scorer sees the generator where the reference walk's own
        draws leave it after the same successes, walk still referenced."""
        if oracle is OracleKind.JOIN:
            make_pool, conditions = expanded_pool, (Condition("join"),)
        else:
            make_pool, conditions = (lambda: load_pool(template_pool_path)), \
                CONDITION_LIBRARY

        def scored_states():
            rng = np.random.default_rng(4)
            states = []

            def scorer(cands):
                states.append(rng.bit_generator.state)
                return np.zeros(len(cands))

            explore_acquisition(make_pool(), conditions, set(), 7, oracle, scorer, rng)
            return states

        ours = scored_states()
        assert len(ours) == 1
        monkeypatch.setattr(optimizer, "_walk", oracles.walk_by_choice)
        assert scored_states() == ours

    def test_walk_that_raises_leaves_the_state_of_choice(self, monkeypatch,
                                                         template_pool_path):
        def failing_on(call):
            calls = itertools.count(1)

            def synthesize(*args):
                if next(calls) == call:
                    raise RuntimeError("oracle failed")
                return synthesize_detailed(*args)

            return synthesize

        states = []
        for module, walk_fn in ((optimizer, optimizer._walk),
                                (oracles, oracles.walk_by_choice)):
            monkeypatch.setattr(module, "synthesize_detailed", failing_on(40))
            rng = np.random.default_rng(11)
            walk = walk_fn(load_pool(template_pool_path), CONDITION_LIBRARY,
                           OracleKind.TEMPLATE, rng, None, 100, 1)
            successes = 0
            with pytest.raises(RuntimeError, match="oracle failed"):
                for _ in walk:
                    successes += 1
            states.append((successes, rng.bit_generator.state))
        assert states[0] == states[1]
        assert states[0][0] > 0


class TestDrawPath:
    def test_one_oracle_call_per_draw_and_no_python_hashes(self, monkeypatch,
                                                          template_pool_path):
        """Over a template walk of at least 2,000 draws the oracle is called
        once per draw, and no ``Condition`` or ``OracleKind`` is hashed
        from the start of a draw whose conditions were drawn before until
        the next draw starts."""
        hashes = [0]

        def counting(original):
            def __hash__(self):
                hashes[0] += 1
                return original(self)
            return __hash__

        monkeypatch.setattr(Condition, "__hash__", counting(Condition.__hash__))
        monkeypatch.setattr(OracleKind, "__hash__", counting(OracleKind.__hash__))
        draws = [0]
        random = optimizer._Pcg64Stream.random

        def counting_random(stream):
            draws[0] += 1  # every draw reads its reagent count first
            return random(stream)

        monkeypatch.setattr(optimizer._Pcg64Stream, "random", counting_random)
        calls = []  # (conditions, hashes counted when the call starts)

        def oracle(reagents, conditions, kind):
            calls.append((conditions, hashes[0]))
            return synthesize_detailed(reagents, conditions, kind)

        monkeypatch.setattr(optimizer, "synthesize_detailed", oracle)
        synthesis._memo_rules.cache_clear()
        pool = load_pool(template_pool_path)
        dag = SynthesisDag()
        for mol in pool:
            dag.add_initial(mol)
        walk = optimizer._walk(pool, CONDITION_LIBRARY, OracleKind.TEMPLATE,
                               np.random.default_rng(101), dag, 5000, 1)
        for _ in walk:
            if draws[0] >= 2000:
                break
        walk.close()
        assert draws[0] >= 2000 and len(calls) == draws[0]
        ends = [h for _, h in calls[1:]] + [hashes[0]]
        seen = set()
        for (conditions, start), end in zip(calls, ends):
            assert all(isinstance(c, str) for c in conditions)
            if conditions in seen:
                assert end == start, conditions
            seen.add(conditions)
        assert len(seen) == 21  # every pick of one or two of six conditions

    def test_condition_objects_and_their_ids_give_the_same_outcome(self,
                                                                   template_walk_molecules):
        reagents = template_walk_molecules[:40]
        picks = [c for k in (1, 2) for c in itertools.combinations(CONDITION_LIBRARY, k)]
        fired = 0
        for a, b in itertools.product(reagents, repeat=2):
            for conditions in picks:
                ids = tuple(c.id for c in conditions)
                by_object = synthesize_detailed([a, b], conditions, OracleKind.TEMPLATE)
                by_id = synthesize_detailed([a, b], ids, OracleKind.TEMPLATE)
                if by_object is None:
                    assert by_id is None
                    continue
                fired += 1
                made, rule = by_object
                made_by_id, rule_by_id = by_id
                assert rule_by_id == rule
                assert (made_by_id.atoms, made_by_id.bonds) == (made.atoms, made.bonds)
        assert fired > 100


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

    def test_pinned_template_qed_log_budget_30(self, tmp_path, template_pool_path):
        # the rand-template-qed benchmark configuration at run seed 101000,
        # the pool spelled as in the pool file; 617 walk draws.  Recorded
        # with numpy 2.4.6, whose Generator.choice the walk's draws match
        pool = tuple(line for line in template_pool_path.read_text().splitlines()
                     if line and not line.startswith("#"))
        cfg = join_config(initial_pool=pool, objective=Objective(kind=ObjectiveKind.QED),
                          budget_t=30, seed=101000, method=Method.RAND,
                          oracle=OracleKind.TEMPLATE, conditions=CONDITION_LIBRARY,
                          explorer_steps=20)
        result, digests = run_digests(tmp_path, cfg)
        assert len(result.records) == 30 and not result.stalled
        assert digests == (
            "47cdc768ca088a0249fc7ce63b4c109bceb26cc6af235cfca79241b7f9f7dbfc",
            "3d90c15980db522336ee4977387703909d51785c1a74708f3d88aa1970760343",
        )

    def test_pinned_join_log_budget_30(self, tmp_path):
        # 44 walk draws over pools of 10 to 39 molecules
        result, digests = run_digests(tmp_path, join_config(budget_t=30, method=Method.RAND))
        assert len(result.records) == 30 and not result.stalled
        assert digests == (
            "fd1ac3925b9ba553e902a096e7fd0e0b07d6eecccdbc25e51dd8ded5419197e1",
            "607fedbc205a38da49d4f75c02f5eb03cf4cd6598b41b850878a2c81bf1688ff",
        )

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

    # the three kernels share the exploration stream, and hence the DAG
    GUIDED_DAG = "7ebe97f3903d5655456571fa802d21ba3bdf692f468ddda359312dcf54e17b8d"

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
        _, digests = run_digests(tmp_path, join_config(
            objective=HEAVY_25, kernel_family=family, budget_t=4, seed=11, explorer_steps=20))
        assert digests == (digest, self.GUIDED_DAG)

    def test_pinned_template_qed_log(self, tmp_path, template_pool_path):
        # objective floats (mass, logP, donors) of template products with
        # implicit hydrogens; the random baseline involves no BLAS, so this
        # digest holds on any machine
        pool = tuple(m.canonical_form for m in load_pool(template_pool_path))
        _, digests = run_digests(tmp_path, join_config(
            initial_pool=pool, objective=Objective(kind=ObjectiveKind.QED), budget_t=8,
            method=Method.RAND, oracle=OracleKind.TEMPLATE, conditions=CONDITION_LIBRARY))
        assert digests == (
            "e3371792b002fd5de1f4be5501abb645be224a91c7bd20b6e43f403735b0b53f",
            "8a6b94c4bff153a020359b034159344c010f796906672b010c9e716275df2d69",
        )

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

    def test_unknown_condition(self):
        with pytest.raises(ValueError, match="nope"):
            join_config(conditions=(Condition("join"), Condition("nope")))

    def test_duplicate_pool_entries_collapse(self):
        result = run(join_config(initial_pool=("C", "C", "N"), budget_t=0))
        assert len(result.initial_evaluations) == 2
