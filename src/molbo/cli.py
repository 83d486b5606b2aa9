"""Command-line entry point.

Subcommands: ``dist``, ``gram``, ``optimize``, ``explore``, ``analyze``,
``recipe``.  Stdout carries machine-parseable output only (JSON or CSV);
diagnostics go to stderr.  Exit codes: 0 ok, 2 input error, 3
not-found, 4 solver failure.

A JSON config file (``--config``) may set ``pool`` and the settings
``_HEADER_NAMES`` lists (``explorer-steps`` also names
``explorer_steps``); given flags win.  ``_header`` puts them in the log
header's shape, the pool as canonical SMILES, and the codec in
``optimizer`` reads them, checking each key and supplying each default.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
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
from .kernel import KernelCache, gram
from .molgraph import load_pool, parse_smiles
from .objectives import ObjectiveKind, evaluate
from .optimizer import (
    _INT,
    _STR,
    _entry,
    config_from_json,
    kernel_family_from_json,
    objective_from_json,
    run,
)
from .otdist import CONFIG_ORDER, distance_vector
from .synthesis import (
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
    p.add_argument("--kernel", choices=("fingerprint", "ot", "sum"))
    p.add_argument("--config")
    p.add_argument("--out")

    for name in ("optimize", "explore"):
        p = sub.add_parser(name)
        p.add_argument("--pool")
        p.add_argument("--objective", choices=[k.value for k in ObjectiveKind])
        p.add_argument("--target", type=int)
        p.add_argument("--kernel", choices=("fingerprint", "ot", "sum"))
        p.add_argument("--oracle", choices=("template", "join"))
        p.add_argument("--budget", type=int)
        p.add_argument("--explorer-steps", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--out")
        p.add_argument("--config")
        p.add_argument("--method", choices=("chembo", "rand"))

    p = sub.add_parser("analyze", help="distance-vs-objective scatter data, CSV")
    p.add_argument("--pool", required=True)
    p.add_argument("--objective", choices=[k.value for k in ObjectiveKind])
    p.add_argument("--target", type=int)
    p.add_argument("--sample-pairs", type=int, required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--config")

    p = sub.add_parser("recipe", help="synthesis recipe for a molecule in a DAG file")
    p.add_argument("--dag", required=True, help="DAG JSON written by optimize/explore")
    p.add_argument("--molecule", required=True)
    p.add_argument("--graph-out", help="also write the graph text format to a file")

    return parser


#: The flat settings (flag names and config file keys) that go in the log
#: header's config, by the header object they go in (None: the top level),
#: and the header keys of those whose names differ there.
_HEADER_NAMES = {
    None: ("budget", "seed", "method", "oracle", "conditions", "explorer_steps"),
    "objective": ("objective", "target", "contribution_table", "qed_bands"),
    "kernel": ("kernel", "n_bits", "max_path_len", "betas", "alpha1", "alpha2"),
}
_RENAMED = {"budget": "budget_t", "objective": "kind", "kernel": "family"}


def _header(flat: dict, pool: list[str]) -> dict:
    """The flat settings and the pool in the log header's shape."""
    header = {"initial_pool": pool}
    for section, names in _HEADER_NAMES.items():
        part = {_RENAMED.get(n, n): flat[n] for n in names if n in flat}
        header.update(part if section is None else {section: part})
    return header


def _configured(args, read):
    """The pool file's molecules and ``read`` applied to the settings in
    the log header's shape, flags over config file entries.  The file's
    entries are read over the flags first, so that a malformed entry is
    rejected even where a flag overrides it.  An error names a key by its
    flat name."""
    config = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise ValueError(f"config file {args.config} must hold a JSON object")
        if "explorer-steps" in config:
            config["explorer_steps"] = config.pop("explorer-steps")
    flags = {k: v for k, v in vars(args).items() if v is not None}
    pool = load_pool(_entry({**config, **flags}, "pool", _STR))
    smiles = [m.canonical_form for m in pool]
    try:
        read(_header({**flags, **config}, smiles))
        return pool, read(_header({**config, **flags}, smiles))
    except ValueError as exc:
        message = str(exc)
        for name, key in _RENAMED.items():
            message = message.replace(f"config key {key!r}", f"config key {name!r}")
        raise ValueError(message) from None


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
    pool, spec = _configured(args, lambda h: kernel_family_from_json(h["kernel"]))
    if not pool:
        raise ValueError("pool file contains no molecules")
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


def _cmd_optimize(args) -> int:
    _, cfg = _configured(args, config_from_json)
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
    _, cfg = _configured(args, config_from_json)
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
    if args.sample_pairs < 1:
        raise ValueError("--sample-pairs must be at least 1")
    pool, (objective, seed) = _configured(args, lambda h: (
        objective_from_json(h["objective"]), _entry(h, "seed", _INT, 0)))
    if len(pool) < 2:
        raise ValueError("analyze needs at least two pool molecules")
    values = [evaluate(objective, m) for m in pool]
    n_pairs = len(pool) * (len(pool) - 1) // 2
    rng = np.random.default_rng(seed)
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
