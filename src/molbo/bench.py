"""Reproducible desk-scale experiment harness.

Runs each (method, seed) pair on a shared base configuration and
aggregates best-so-far curves into per-iteration mean and standard
error.  Seeds are paired: the same seed drives the same exploration
randomness in every method, which reduces comparison variance relative
to fully independent runs.  Runs may execute in separate worker
processes (one per core unless ``workers`` says otherwise); aggregation
is deterministic either way because each run depends only on its own
seed.  ``run_bench`` imports ``ProcessPoolExecutor`` only when it starts
workers.
"""

from __future__ import annotations

import json
import os
from contextlib import ExitStack
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .kernel import FingerprintTanimoto, OTExpSum, SumKernel
from .optimizer import Method, RunConfig, run

BENCH_METHODS = ("chembo-fingerprint", "chembo-ot", "chembo-sum", "rand")


@dataclass(frozen=True)
class BenchSpec:
    methods: tuple[str, ...]
    seeds: tuple[int, ...]
    base: RunConfig

    def __post_init__(self):
        if not self.methods:
            raise ValueError("at least one method required")
        unknown = [m for m in self.methods if m not in BENCH_METHODS]
        if unknown:
            raise ValueError(f"unknown methods: {unknown}")
        if len(self.seeds) < 3:
            raise ValueError("at least three seeds required")


def method_config(base: RunConfig, method: str, seed: int) -> RunConfig:
    """Specialize the shared base config for one method and seed."""
    if method == "rand":
        return replace(base, method=Method.RAND, seed=seed)
    kernel = {
        "chembo-fingerprint": FingerprintTanimoto(),
        "chembo-ot": OTExpSum(),
        "chembo-sum": SumKernel(),
    }[method]
    return replace(base, method=Method.CHEMBO, kernel_family=kernel, seed=seed)


def _run_job(job):
    method, seed, base, log_path = job
    cfg = method_config(base, method, seed)
    result = run(cfg, log_path=log_path)
    return method, seed, result.best_so_far().tolist()


def run_bench(
    spec: BenchSpec,
    out_path=None,
    log_dir=None,
    workers: int | None = None,
) -> dict:
    """Run every (method, seed) pair and aggregate the curves.

    Returns ``{method: {iterations, mean, stderr, final_values}}`` and
    writes it to ``out_path`` when given.  Partial results are flushed
    to ``<out_path>.partial.jsonl`` after each completed run; per-run
    logs go to ``log_dir`` when given.
    """
    jobs = []
    for method in spec.methods:
        for seed in spec.seeds:
            log_path = (
                str(Path(log_dir) / f"{method}_seed{seed}.jsonl") if log_dir else None
            )
            jobs.append((method, seed, spec.base, log_path))
    if log_dir:
        Path(log_dir).mkdir(parents=True, exist_ok=True)

    curves: dict[str, dict[int, list[float]]] = {m: {} for m in spec.methods}
    n_workers = workers if workers is not None else (os.cpu_count() or 1)
    n_workers = max(1, min(n_workers, len(jobs)))
    with ExitStack() as stack:
        partial_fh = None
        if out_path:
            partial_path = f"{out_path}.partial.jsonl"
            partial_fh = stack.enter_context(open(partial_path, "w", encoding="utf-8"))
        job_map = map
        if n_workers > 1:
            from concurrent.futures import ProcessPoolExecutor

            pool = stack.enter_context(ProcessPoolExecutor(max_workers=n_workers))
            job_map = pool.map
        for method, seed, curve in job_map(_run_job, jobs):
            curves[method][seed] = curve
            if partial_fh:
                record = {"method": method, "seed": seed, "curve": curve}
                print(json.dumps(record), file=partial_fh, flush=True)

    result = {}
    for method in spec.methods:
        per_seed = [curves[method][seed] for seed in spec.seeds]
        length = max(len(c) for c in per_seed)
        padded = np.array([c + [c[-1]] * (length - len(c)) for c in per_seed])
        stderr = padded.std(axis=0, ddof=1) / np.sqrt(len(per_seed))
        result[method] = {
            "iterations": list(range(length)),
            "mean": padded.mean(axis=0).tolist(),
            "stderr": stderr.tolist(),
            "final_values": [c[-1] for c in per_seed],
        }

    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return result
