import json

import numpy as np
import pytest

from molbo.bench import BenchSpec, method_config, run_bench
from molbo.kernel import FingerprintTanimoto, OTExpSum, SumKernel
from molbo.objectives import Objective, ObjectiveKind
from molbo.optimizer import Method, RunConfig
from molbo.synthesis import Condition, OracleKind

JOIN_POOL = ("C", "N", "O", "CC", "CO", "CN", "CCO", "CCC", "CCN", "COC")


def base_config(budget=4, steps=6):
    return RunConfig(
        initial_pool=JOIN_POOL,
        objective=Objective(kind=ObjectiveKind.HEAVY_ATOM_TARGET, target=10),
        kernel_family=OTExpSum(),
        budget_t=budget,
        seed=0,
        method=Method.CHEMBO,
        oracle=OracleKind.JOIN,
        conditions=(Condition("join"),),
        explorer_steps=steps,
    )


class TestSpec:
    def test_requires_methods_and_seeds(self):
        with pytest.raises(ValueError):
            BenchSpec(methods=(), seeds=(1, 2, 3), base=base_config())
        with pytest.raises(ValueError):
            BenchSpec(methods=("rand",), seeds=(1, 2), base=base_config())
        with pytest.raises(ValueError):
            BenchSpec(methods=("nope",), seeds=(1, 2, 3), base=base_config())

    def test_method_config_mapping(self):
        base = base_config()
        assert method_config(base, "rand", 9).method is Method.RAND
        assert isinstance(
            method_config(base, "chembo-ot", 9).kernel_family, OTExpSum
        )
        assert isinstance(
            method_config(base, "chembo-fingerprint", 9).kernel_family,
            FingerprintTanimoto,
        )
        assert isinstance(
            method_config(base, "chembo-sum", 9).kernel_family, SumKernel
        )
        assert method_config(base, "chembo-ot", 9).seed == 9


class TestAggregation:
    def test_three_seed_mean_and_stderr_match_per_seed_runs(self, tmp_path):
        # one method, three seeds: the aggregate against each seed run alone
        spec = BenchSpec(methods=("rand",), seeds=(5, 6, 7), base=base_config())
        result = run_bench(spec, workers=1)
        per_seed = {}
        from molbo.optimizer import run

        for seed in (5, 6, 7):
            cfg = method_config(base_config(), "rand", seed)
            per_seed[seed] = run(cfg).best_so_far()
        curves = np.array([per_seed[s] for s in (5, 6, 7)])
        assert np.allclose(result["rand"]["mean"], curves.mean(axis=0))
        want_stderr = curves.std(axis=0, ddof=1) / np.sqrt(3)
        assert np.allclose(result["rand"]["stderr"], want_stderr)
        assert result["rand"]["final_values"] == [float(c[-1]) for c in curves]

    def test_mean_curves_nondecreasing(self):
        spec = BenchSpec(methods=("rand",), seeds=(1, 2, 3), base=base_config())
        result = run_bench(spec, workers=1)
        assert np.all(np.diff(result["rand"]["mean"]) >= 0)

    def test_output_file_schema(self, tmp_path):
        out = tmp_path / "bench_result.json"
        spec = BenchSpec(methods=("rand",), seeds=(1, 2, 3), base=base_config())
        result = run_bench(spec, out_path=out, workers=1)
        saved = json.loads(out.read_text())
        assert saved == result
        assert set(saved["rand"]) == {"iterations", "mean", "stderr", "final_values"}
        assert saved["rand"]["iterations"] == list(range(4 + 1))
        partial = tmp_path / "bench_result.json.partial.jsonl"
        lines = [json.loads(ln) for ln in partial.read_text().splitlines()]
        assert len(lines) == 3
        assert {ln["seed"] for ln in lines} == {1, 2, 3}

    def test_aggregates_recomputable_from_logs(self, tmp_path):
        spec = BenchSpec(methods=("rand",), seeds=(1, 2, 3),
                         base=base_config(budget=5))
        result = run_bench(spec, log_dir=tmp_path, workers=1)
        for k, seed in enumerate(spec.seeds):
            log = tmp_path / f"rand_seed{seed}.jsonl"
            curve = _curve_from_log(log)
            per_seed = result["rand"]["final_values"][k]
            assert curve[-1] == per_seed
        curves = np.array([_curve_from_log(tmp_path / f"rand_seed{s}.jsonl")
                           for s in spec.seeds])
        assert np.allclose(result["rand"]["mean"], curves.mean(axis=0))

    def test_paired_seeds_share_exploration(self, tmp_path):
        spec = BenchSpec(methods=("chembo-ot", "rand"), seeds=(3, 4, 5),
                         base=base_config(budget=2, steps=5))
        run_bench(spec, log_dir=tmp_path, workers=1)
        for seed in spec.seeds:
            cb = [json.loads(ln)["molecule"] for ln in
                  (tmp_path / f"chembo-ot_seed{seed}.jsonl").read_text().splitlines()[1:]]
            rd = [json.loads(ln)["molecule"] for ln in
                  (tmp_path / f"rand_seed{seed}.jsonl").read_text().splitlines()[1:]]
            # every molecule the baseline rated was also synthesized by the
            # guided run's identical exploration stream
            assert set(rd).issubset(set(cb) | _pool_products(tmp_path, seed))


def _curve_from_log(path):
    """Best-so-far curve recomputed from a run log's JSONL lines."""
    header, *records = [json.loads(ln) for ln in path.read_text().splitlines()]
    curve = [max(v for _, v in header["initial_evaluations"])]
    for rec in records:
        curve.append(max(curve[-1], rec["value"]))
    return curve


def _pool_products(tmp_path, seed):
    path = tmp_path / f"chembo-ot_seed{seed}.dag.json"
    if path.exists():
        data = json.loads(path.read_text())
        return {n["molecule"] for n in data["nodes"]}
    # fall back: recompute the guided run's synthesized set
    from molbo.optimizer import run

    cfg = method_config(base_config(budget=2, steps=5), "chembo-ot", seed)
    result = run(cfg)
    return set(result.dag.nodes)


def test_worker_parallel_results_match_sequential(tmp_path):
    spec = BenchSpec(methods=("rand",), seeds=(8, 9, 10), base=base_config())
    sequential = run_bench(spec, workers=1)
    parallel = run_bench(spec, workers=2)
    assert sequential == parallel
