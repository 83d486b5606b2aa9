"""Command-line entry point.

Subcommands: ``dist``, ``gram``, ``optimize``, ``explore``, ``analyze``,
``recipe``.  Stdout carries machine-parseable output only (JSON or CSV);
diagnostics go to stderr.  A JSON config file can predefine any flag;
explicitly given flags win.  Exit codes: 0 ok, 2 input error, 3
not-found, 4 solver failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .errors import (
    CholeskyFailure,
    EigenFailure,
    FitFailure,
    MolboError,
    SolverFailure,
    UnknownMolecule,
)
from .kernel import FingerprintTanimoto, KernelCache, OTExpSum, SumKernel, gram
from .molgraph import load_pool, parse_smiles
from .objectives import ObjectiveKind, evaluate, objective_from_config
from .optimizer import Method, RunConfig, run
from .otdist import CONFIG_ORDER, distance_vector
from .synthesis import (
    CONDITION_LIBRARY,
    Condition,
    OracleKind,
    SynthesisDag,
    load_dag,
    recipe,
    recipe_to_graph_text,
    recipe_to_json,
    save_dag,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NOT_FOUND = 3
EXIT_SOLVER = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="molbo")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dist", help="four transport dissimilarities between two SMILES")
    p.add_argument("smiles_a")
    p.add_argument("smiles_b")

    p = sub.add_parser("gram", help="kernel Gram matrix over a pool, CSV to stdout")
    p.add_argument("--pool", required=True)
    p.add_argument("--kernel", choices=("fingerprint", "ot", "sum"), default="ot")
    p.add_argument("--config")
    p.add_argument("--out")

    for name in ("optimize", "explore"):
        p = sub.add_parser(name)
        p.add_argument("--pool")
        p.add_argument("--objective", choices=[k.value for k in ObjectiveKind],
                       default=None)
        p.add_argument("--target", type=int, default=None)
        p.add_argument("--kernel", choices=("fingerprint", "ot", "sum"), default=None)
        p.add_argument("--oracle", choices=("template", "join"), default=None)
        p.add_argument("--budget", type=int, default=None)
        p.add_argument("--explorer-steps", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out")
        p.add_argument("--config")
        p.add_argument("--method", choices=("chembo", "rand"), default=None)

    p = sub.add_parser("analyze", help="distance-vs-objective scatter data, CSV")
    p.add_argument("--pool", required=True)
    p.add_argument("--objective", choices=[k.value for k in ObjectiveKind],
                   default="qed")
    p.add_argument("--target", type=int, default=25)
    p.add_argument("--sample-pairs", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config")

    p = sub.add_parser("recipe", help="synthesis recipe for a molecule in a DAG file")
    p.add_argument("--dag", required=True, help="DAG JSON written by optimize/explore")
    p.add_argument("--molecule", required=True)
    p.add_argument("--graph-out", help="also write the graph text format to a file")

    return parser


def _load_config_file(path) -> dict:
    if not path:
        return {}
    if not os.path.exists(path):
        raise FileNotFoundError(f"config file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    _check_config(config)
    return config


def _check_config(config: dict) -> None:
    """Reject a config entry of the wrong shape, naming the key: the run
    sizes and seed must be integers, the sum kernel's weights numbers,
    ``conditions`` a list of names, and ``betas``, ``contribution_table``
    and ``qed_bands`` numbers in their list or tables."""
    def number(v) -> bool:
        return isinstance(v, (int, float)) and not isinstance(v, bool)

    def numbers(values) -> bool:
        return all(number(v) for v in values)

    for key in ("budget", "target", "seed", "explorer_steps", "explorer-steps"):
        value = config.get(key, 0)
        if not (isinstance(value, int) and not isinstance(value, bool)):
            raise ValueError(f"config key {key!r} must be an integer")
    for key in ("alpha1", "alpha2"):
        if not number(config.get(key, 0)):
            raise ValueError(f"config key {key!r} must be a number")
    conditions = config.get("conditions", [])
    if not (isinstance(conditions, list)
            and all(isinstance(c, str) for c in conditions)):
        raise ValueError("config key 'conditions' must be a list of condition names")
    betas = config.get("betas", [])
    if not (isinstance(betas, list) and numbers(betas)):
        raise ValueError("config key 'betas' must be a list of numbers")
    table = config.get("contribution_table", {})
    if not (isinstance(table, dict) and numbers(table.values())):
        raise ValueError("config key 'contribution_table' must map elements to numbers")
    bands = config.get("qed_bands", {})
    if not (isinstance(bands, dict) and all(
            isinstance(b, dict) and numbers([b.get(k) for k in "abcd"] + [b.get("floor", 0)])
            for b in bands.values())):
        raise ValueError("config key 'qed_bands' must map band names to objects of "
                         "numbers 'a', 'b', 'c', 'd' and an optional 'floor'")


def _setting(args, config: dict, name: str, default=None):
    """Flag wins over config file entry wins over default."""
    value = getattr(args, name.replace("-", "_"), None)
    if value is not None:
        return value
    if name in config:
        return config[name]
    return default


def _kernel_from_name(name: str, config: dict):
    betas = tuple(config.get("betas", (1.0, 1.0, 1.0, 1.0)))
    if name == "fingerprint":
        return FingerprintTanimoto()
    if name == "ot":
        return OTExpSum(betas)
    if name == "sum":
        return SumKernel(
            alpha1=float(config.get("alpha1", 1.0)),
            alpha2=float(config.get("alpha2", 1.0)),
            ot=OTExpSum(betas),
        )
    raise ValueError(f"unknown kernel {name!r}")


def _pool_path(args, config) -> str:
    path = _setting(args, config, "pool")
    if not path:
        raise ValueError("a pool file is required (--pool)")
    if not os.path.exists(path):
        raise FileNotFoundError(f"pool file not found: {path}")
    return path


def _objective(args, config):
    kind_name = _setting(args, config, "objective", "qed")
    target = _setting(args, config, "target", 25)
    return objective_from_config(ObjectiveKind(kind_name), int(target), config)


def _cmd_dist(args) -> int:
    m1 = parse_smiles(args.smiles_a)
    m2 = parse_smiles(args.smiles_b)
    vec = distance_vector(m1, m2)
    print(json.dumps({
        "distances": [float(v) for v in vec],
        "config_order": [c.label for c in CONFIG_ORDER],
    }, sort_keys=True))
    return EXIT_OK


def _cmd_gram(args) -> int:
    config = _load_config_file(args.config)
    pool = load_pool(_pool_path(args, config))
    if not pool:
        raise ValueError("pool file contains no molecules")
    spec = _kernel_from_name(_setting(args, config, "kernel", "ot"), config)
    matrix = gram(pool, spec, KernelCache())
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow([m.canonical_form for m in pool])
    for row in matrix:
        writer.writerow([repr(float(v)) for v in row])
    text = buf.getvalue()
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    sys.stdout.write(text)
    return EXIT_OK


def _run_config(args, config) -> RunConfig:
    pool_path = _pool_path(args, config)
    pool = [m.canonical_form for m in load_pool(pool_path)]
    seed = _setting(args, config, "seed")
    if seed is None:
        raise ValueError("a seed is required (--seed)")
    oracle = OracleKind(_setting(args, config, "oracle", "template"))
    cond_ids = config.get("conditions")
    if cond_ids:
        conditions = tuple(Condition(c) for c in cond_ids)
    elif oracle is OracleKind.JOIN:
        conditions = (Condition("join"),)
    else:
        conditions = CONDITION_LIBRARY
    return RunConfig(
        initial_pool=tuple(pool),
        objective=_objective(args, config),
        kernel_family=_kernel_from_name(_setting(args, config, "kernel", "ot"), config),
        budget_t=int(_setting(args, config, "budget", 10)),
        seed=int(seed),
        method=Method(_setting(args, config, "method", "chembo")),
        oracle=oracle,
        conditions=conditions,
        explorer_steps=int(_setting(args, config, "explorer-steps",
                                    config.get("explorer_steps", 20))),
    )


def _cmd_optimize(args) -> int:
    config = _load_config_file(args.config)
    cfg = _run_config(args, config)
    out = args.out or "run_log.jsonl"
    result = run(cfg, log_path=out)
    dag_path = str(Path(out).with_suffix("")) + ".dag.json"
    save_dag(result.dag, dag_path)
    print(json.dumps({
        "best_value": result.best_value,
        "best_molecule": result.best_molecule,
        "evaluations": len(result.initial_evaluations) + len(result.records),
        "stalled": result.stalled,
    }, sort_keys=True))
    return EXIT_OK


def _cmd_explore(args) -> int:
    config = _load_config_file(args.config)
    cfg = _run_config(args, config)
    from .optimizer import explore_acquisition, _bootstrap, _streams

    explore_rng, _ = _streams(cfg.seed)
    pool, dag, evaluated, _mols = _bootstrap(cfg)
    initial = set(evaluated)

    def constant_scorer(cands):
        return np.zeros(len(cands))

    explore_acquisition(
        pool, cfg.conditions, set(), cfg.explorer_steps, cfg.oracle,
        constant_scorer, explore_rng, dag=dag, start_step=1,
    )
    if args.out:
        save_dag(dag, args.out)
    print(json.dumps({
        "pool": [m.canonical_form for m in pool],
        "new_molecules": [m.canonical_form for m in pool
                          if m.canonical_form not in initial],
    }, sort_keys=True))
    return EXIT_OK


def _cmd_analyze(args) -> int:
    config = _load_config_file(args.config)
    if args.sample_pairs < 1:
        raise ValueError("--sample-pairs must be at least 1")
    pool = load_pool(_pool_path(args, config))
    if len(pool) < 2:
        raise ValueError("analyze needs at least two pool molecules")
    objective = _objective(args, config)
    values = [evaluate(objective, m) for m in pool]
    n_pairs = len(pool) * (len(pool) - 1) // 2
    rng = np.random.default_rng(args.seed)
    chosen = rng.choice(n_pairs, size=min(args.sample_pairs, n_pairs), replace=False)
    writer = csv.writer(sys.stdout)
    writer.writerow([
        "distance_unit_raw", "distance_unit_norm",
        "distance_mass_raw", "distance_mass_norm", "abs_objective_diff",
    ])
    cache = KernelCache()
    for k in sorted(int(c) for c in chosen):
        i, j = _pair_of_index(k, len(pool))
        vec = cache.distance_vector(pool[i], pool[j])
        writer.writerow([repr(float(v)) for v in vec]
                        + [repr(abs(values[i] - values[j]))])
    return EXIT_OK


def _pair_of_index(k: int, n: int) -> tuple[int, int]:
    """The ``k``-th pair ``(i, j)``, ``i < j < n``, in row-major order: row
    ``i`` starts at ``i * (m - i) / 2``, ``m = 2n - 1``, so ``i`` is the
    floor of that quadratic's smaller root at ``k``, exact in integers."""
    m = 2 * n - 1
    i = (m - 1 - math.isqrt(m * m - 8 * k - 1)) // 2
    return i, k - i * (m - i) // 2 + i + 1


def _cmd_recipe(args) -> int:
    if not os.path.exists(args.dag):
        raise FileNotFoundError(f"DAG file not found: {args.dag}")
    dag: SynthesisDag = load_dag(args.dag)
    key = args.molecule
    if key not in dag.nodes:
        # accept any SMILES spelling of a known molecule
        key = parse_smiles(args.molecule).canonical_form
    steps = recipe(dag, key)
    graph_text = recipe_to_graph_text(steps)
    payload = recipe_to_json(key, steps)
    payload["graph_text"] = graph_text
    if args.graph_out:
        Path(args.graph_out).write_text(graph_text + "\n", encoding="utf-8")
    print(json.dumps(payload, sort_keys=True))
    return EXIT_OK


_COMMANDS = {
    "dist": _cmd_dist,
    "gram": _cmd_gram,
    "optimize": _cmd_optimize,
    "explore": _cmd_explore,
    "analyze": _cmd_analyze,
    "recipe": _cmd_recipe,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except UnknownMolecule as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_FOUND
    except (SolverFailure, CholeskyFailure, EigenFailure, FitFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (MolboError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
