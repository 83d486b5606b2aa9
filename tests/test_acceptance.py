"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line; run with ``pytest
tests/test_acceptance.py -v -s`` to see them live.  The heavyweight
comparison runs keep within their stated wall-clock budgets.
"""

import functools
import json
import random
import time

import numpy as np
import pytest

import oracles
from conftest import random_molecule, relabel
from molbo.acquisition import AcquisitionKind, EnsembleWeights, ei
from molbo.bench import BenchSpec, run_bench
from molbo.cli import main as cli_main
from molbo.errors import (
    MultiFragmentInput,
    UnbalancedBranch,
    UnclosedRing,
    UnknownToken,
    ValenceExceeded,
)
from molbo.gp import GpHyperparams, build_posterior, posterior
from molbo.kernel import KernelCache, OTExpSum, gram, psd_project
from molbo.molgraph import (
    WeightMode,
    add_explicit_hydrogens,
    parse_smiles,
)
from molbo.objectives import Objective, ObjectiveKind
from molbo.optimizer import Method, RunConfig, explore_acquisition, run
from molbo.otdist import CONFIG_ORDER, DistanceConfig, build_costs, solve_ot
from molbo.synthesis import Condition, OracleKind, SynthesisDag, recipe, replay_recipe

JOIN_POOL = ("C", "N", "O", "CC", "CO", "CN", "CCO", "CCC", "CCN", "COC")


def criterion(number, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number:2d} [{name}]: FAIL")
                raise
            print(f"ACCEPTANCE {number:2d} [{name}]: PASS")

        return wrapper

    return decorate


def expand(text):
    return add_explicit_hydrogens(parse_smiles(text))


@criterion(1, "transport solver matches both generic-LP forms")
def test_ot_oracle_equivalence():
    start = time.monotonic()
    rng = random.Random(1001)
    for k in range(200):
        m1 = random_molecule(rng, max_heavy=6)
        m2 = random_molecule(rng, max_heavy=6)
        mode = WeightMode.UNIT if k % 2 == 0 else WeightMode.MASS
        mine = solve_ot(m1, m2, DistanceConfig(mode, False))[0]
        ineq = oracles.ot_cost_inequality(m1, m2, mode)
        eq = oracles.ot_cost_equality(m1, m2, mode)
        assert abs(mine - ineq) <= 1e-6
        assert abs(mine - eq) <= 1e-6
        assert abs(ineq - eq) <= 1e-6
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


@criterion(2, "worked bond-overlap penalty 3/5")
def test_worked_example_three_fifths():
    iso = expand("CC(C)C")       # center: three C-C plus one C-H
    propene = expand("C=CC")     # center: C=C, C-C, C-H
    iso_center = next(
        i for i in iso.heavy_indices()
        if sum(1 for j, _ in iso.neighbors(i) if iso.atoms[j].symbol == "C") == 3
    )
    prop_center = next(
        i for i in propene.heavy_indices()
        if sum(1 for j, _ in propene.neighbors(i) if propene.atoms[j].symbol == "C") == 2
    )
    costs = build_costs(iso, propene)
    assert costs.c_str[iso_center, prop_center] == 3.0 / 5.0 == 0.6


@criterion(3, "distance axioms and mismatch-penalty sufficiency")
def test_distance_axioms():
    rng = random.Random(77)
    for _ in range(500):
        m1 = random_molecule(rng, max_heavy=5)
        m2 = random_molecule(rng, max_heavy=5)
        mismatch = build_costs(m1, m2).c_lbl > 0
        for cfg in CONFIG_ORDER:
            d12, plan = solve_ot(m1, m2, cfg)
            d21, _ = solve_ot(m2, m1, cfg)
            assert abs(d12 - d21) <= 1e-9
            assert d12 >= 0.0
            assert solve_ot(m1, m1, cfg)[0] <= 1e-9
            if cfg.normalize:
                assert d12 <= 1.0 + 1e-9
            assert plan.u[:-1, :-1][mismatch].sum() < 1e-9


@criterion(4, "GP interpolation, likelihood oracle, variance monotonicity")
def test_gp_correctness():
    rng = random.Random(5)
    nprng = np.random.default_rng(5)
    spec = OTExpSum((0.5, 0.0, 0.05, 0.0))

    def distinct(count):
        out = {}
        while len(out) < count:
            m = random_molecule(rng, max_heavy=6)
            out.setdefault(m.canonical_form, m)
        return list(out.values())

    # interpolation at tiny noise
    mols = distinct(8)
    ys = np.linspace(-1.0, 1.0, 8)
    hyper = GpHyperparams(kernel_spec=spec, noise_var=1e-8, mean_const=0.0,
                          signal_scale=1.0)
    gp = build_posterior(mols, ys, hyper)
    for m, y in zip(mols, ys):
        mu, var = posterior(gp, m)
        assert abs(mu - y) <= 1e-3
        assert var <= 1e-3

    # Cholesky likelihood equals the dense inverse/determinant oracle
    for n in (1, 2, 3):
        for _ in range(12):
            mols_n = distinct(n)
            ys_n = nprng.normal(size=n)
            hyper_n = GpHyperparams(
                kernel_spec=spec, noise_var=0.05,
                mean_const=float(nprng.normal()), signal_scale=1.2,
            )
            cache = KernelCache()
            k_psd = psd_project(gram(mols_n, spec, cache))
            want = oracles.dense_lml(k_psd, ys_n, hyper_n.mean_const,
                                     hyper_n.noise_var, hyper_n.signal_scale)
            got = build_posterior(mols_n, ys_n, hyper_n, cache).lml
            assert abs(got - want) <= 1e-8

    # adding an observation never increases posterior variance
    hyper_m = GpHyperparams(kernel_spec=spec, noise_var=0.01, mean_const=0.0,
                            signal_scale=1.0)
    for _ in range(100):
        mols6 = distinct(6)
        train, extra, query = mols6[:4], mols6[4], mols6[5]
        ys4 = nprng.normal(size=4)
        var_small = posterior(build_posterior(train, ys4, hyper_m), query)[1]
        var_big = posterior(
            build_posterior(train + [extra], np.append(ys4, nprng.normal()), hyper_m),
            query,
        )[1]
        assert var_big <= var_small + 1e-6


@criterion(5, "expected improvement and ensemble bookkeeping")
def test_acquisition_correctness():
    rng = np.random.default_rng(99)
    for _ in range(50):
        mu = float(rng.uniform(-2, 2))
        sigma = float(rng.uniform(0.1, 3.0))
        best = mu + sigma * float(rng.uniform(-3, 3))
        estimate, se = oracles.mc_expected_improvement(mu, sigma, best, 1_000_000, rng)
        assert abs(ei(mu, sigma, best) - estimate) <= 3 * se + 1e-12

    assert abs(ei(0.0, 1.0, 0.0) - 0.39894) <= 1e-5

    weights = EnsembleWeights()
    kinds = list(AcquisitionKind)
    for k in range(100):
        weights.update(kinds[k % 3], improved=bool(rng.integers(2)))
    assert abs(weights.weights.sum() - 1.0) <= 1e-12


@criterion(6, "PSD projection")
def test_psd_projection():
    rng = np.random.default_rng(3)
    for _ in range(100):
        a = rng.normal(size=(20, 20))
        sym = (a + a.T) / 2.0
        projected = psd_project(sym, floor=0.0)
        assert np.linalg.eigvalsh(projected)[0] >= -1e-8

        b = rng.normal(size=(20, 20))
        psd = b @ b.T
        kept = psd_project(psd, floor=0.0)
        assert np.linalg.norm(kept - psd) <= 1e-9

    two = psd_project(np.array([[1.0, 2.0], [2.0, 1.0]]), floor=0.0)
    assert np.abs(two - np.array([[1.5, 1.5], [1.5, 1.5]])).max() <= 1e-9


@criterion(7, "explorer growth, recipe replay, no duplicate ratings")
def test_explorer_and_dag_properties():
    pool = [expand(s) for s in JOIN_POOL]
    dag = SynthesisDag()
    for m in pool:
        dag.add_initial(m)
    before = {m.canonical_form for m in pool}
    explore_acquisition(
        pool, (Condition("join"),), set(), 20, OracleKind.JOIN,
        lambda cands: np.zeros(len(cands)), np.random.default_rng(17), dag=dag,
    )
    added = [m for m in pool if m.canonical_form not in before]
    assert len(added) == 20
    assert len({m.canonical_form for m in added}) == 20
    for m in added:
        steps = recipe(dag, m.canonical_form)
        assert replay_recipe(steps, OracleKind.JOIN).canonical_form == m.canonical_form

    cfg = RunConfig(
        initial_pool=JOIN_POOL,
        objective=Objective(kind=ObjectiveKind.HEAVY_ATOM_TARGET, target=12),
        kernel_family=OTExpSum(),
        budget_t=5,
        seed=2,
        method=Method.CHEMBO,
        oracle=OracleKind.JOIN,
        conditions=(Condition("join"),),
        explorer_steps=10,
    )
    result = run(cfg)
    rated = [k for k, _ in result.initial_evaluations]
    rated += [r.molecule for r in result.records]
    assert len(rated) == len(set(rated)) == len(JOIN_POOL) + 5


@criterion(8, "guided search beats the random baseline at matched budget")
def test_guided_vs_random_comparison(tmp_path):
    start = time.monotonic()
    base = RunConfig(
        initial_pool=JOIN_POOL,
        objective=Objective(kind=ObjectiveKind.HEAVY_ATOM_TARGET, target=25),
        kernel_family=OTExpSum(),
        budget_t=30,
        seed=0,
        method=Method.CHEMBO,
        oracle=OracleKind.JOIN,
        conditions=(Condition("join"),),
        explorer_steps=20,
    )
    spec = BenchSpec(
        methods=("chembo-ot", "rand"),
        seeds=tuple(range(101, 111)),
        base=base,
    )
    result = run_bench(spec, out_path=tmp_path / "bench_result.json")
    guided = result["chembo-ot"]
    baseline = result["rand"]
    assert np.mean(guided["final_values"]) >= np.mean(baseline["final_values"])
    assert guided["mean"][30] >= baseline["mean"][30]
    elapsed = time.monotonic() - start
    assert elapsed < 300.0, f"took {elapsed:.1f}s"


@criterion(9, "parser round-trips, relabeling stability, documented errors")
def test_parser_round_trip(corpus):
    rng = random.Random(123)
    assert len(corpus) == 50
    for text in corpus:
        mol = parse_smiles(text)
        form = mol.canonical_form
        assert parse_smiles(mol.canonical_form).canonical_form == form
        for _ in range(6):
            assert relabel(mol, rng).canonical_form == form

    failures = {
        "C(C": UnbalancedBranch,
        ")C": UnbalancedBranch,
        "C1CC": UnclosedRing,
        "C.C": MultiFragmentInput,
        "C(=O)(=O)(=O)O": ValenceExceeded,
        "[C+]": UnknownToken,
        "C@H": UnknownToken,
        "C/C=C": UnknownToken,
        "[13C]": UnknownToken,
    }
    for text, err in failures.items():
        with pytest.raises(err):
            parse_smiles(text)


@criterion(10, "byte-identical optimizer logs")
def test_cmd_optimize_determinism(tmp_path, small_pool_path, capsys):
    logs = []
    for name in ("first.jsonl", "second.jsonl"):
        out = tmp_path / name
        code = cli_main([
            "optimize", "--pool", str(small_pool_path), "--objective", "heavy_atom",
            "--target", "12", "--oracle", "join", "--kernel", "ot",
            "--budget", "3", "--explorer-steps", "10", "--seed", "33",
            "--out", str(out),
        ])
        assert code == 0
        logs.append(out.read_bytes())
    capsys.readouterr()
    assert logs[0] == logs[1]
    assert len(logs[0]) > 0
    header = json.loads(logs[0].decode().splitlines()[0])
    assert header["config"]["seed"] == 33
