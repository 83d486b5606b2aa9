"""molbo benchmark: closed-loop runs of the public API, timed end to end.

    python3 perfbench/run.py --workload bo-join-ot --seed 101 --seconds 30 --trace 0

Run from the repository root; molbo is imported from ``src/``.  One
process runs one molbo run at a time.  An invocation runs a pass over
the workload's run seeds (see ``workloads.py``), repeats the pass while
another fits into ``--seconds``, and reruns one seed to check that logs
and DAGs repeat byte for byte.

``--trace 0`` reports the end-to-end metrics, the median over passes.
Times are scaled to a reference speed: a fixed integer loop that shares
no code with molbo is timed after every run and every set-up probe, and
all times are multiplied by ``REFERENCE_S`` over the loop's median time.
On a shared host this cancels most of the drift in machine speed, which
is slow (seconds to minutes) and moves both alike.  The report keeps the
raw figures and the loop's times.

``--trace 1`` runs every seed of one pass untraced and then traced,
checks that both give the same digests, and reports per-layer metrics
from the traced runs (see ``spans.py``).

Every run is checked: its JSONL log holds one record per budget unit
and agrees with the result, the walk did not stall, and the best
molecule's recipe replays to the same canonical form.  A run failing a
check counts in ``failed``.  Whether a run reaches the workload's target
is an outcome, reported with the number of evaluations and the time it
took, not a check.

The second-to-last line of standard output is the full report
(provenance, sample counts, digests of every run log and DAG); the last
line is the result: ``{"correct", "attempted", "failed", "metrics"}``.
Run files and the report go to ``.perfbench_out/``.
"""

from __future__ import annotations

import os

# Pinned before numpy loads, in this process and the set-up probes.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_REPEATS = 7
TAIL_BEYOND = 10  # samples the tail percentile leaves above it
REFERENCE_LOOPS = 50_000
REFERENCE_S = 0.005  # the reference loop's time at reference speed

END_TO_END_UNITS = {
    "setup_s": "s",
    "evals_per_s": "1/s",
    "iter_ms_p50": "ms",
    "iter_ms_tail": "ms",
    "peak_rss_mb": "MB",
}


@dataclass
class RunRecord:
    run_seed: int
    wall_s: float = 0.0
    iter_s: float = 0.0
    gaps: list[float] = field(default_factory=list)
    evals_to_target: int | None = None
    time_to_target_s: float | None = None
    stalled: bool = False
    log_sha256: str = ""
    dag_sha256: str = ""
    problems: list[str] = field(default_factory=list)


class EvalClock:
    """Timestamps every objective evaluation the loop makes; the gap
    between two is the wait for the next proposal."""

    def __init__(self, optimizer_module):
        self.module = optimizer_module
        self.original = optimizer_module.evaluate
        self.stamps: list[float] = []

    def __enter__(self):
        original, stamps = self.original, self.stamps

        def evaluate(objective, mol):
            value = original(objective, mol)
            stamps.append(time.perf_counter())
            return value

        self.module.evaluate = evaluate
        return self

    def __exit__(self, *exc):
        self.module.evaluate = self.original


class Reference:
    """Samples of the machine's current speed, taken between runs."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self):
        # The loop allocates nothing the garbage collector tracks, so
        # molbo's heap cannot slow it.
        t0 = time.perf_counter()
        acc = 0
        for i in range(REFERENCE_LOOPS):
            acc = (acc * 31 + i) % 1000003
        self.samples.append(time.perf_counter() - t0)

    def scale(self) -> float:
        return REFERENCE_S / statistics.median(self.samples)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_run(cfg, result, log_path: Path) -> list[str]:
    from molbo import MolboError, recipe, replay_recipe

    problems = []
    lines = log_path.read_text(encoding="utf-8").splitlines()
    header = json.loads(lines[0])
    records = [json.loads(line) for line in lines[1:]]
    if header["config"]["budget_t"] != cfg.budget_t or header["config"]["seed"] != cfg.seed:
        problems.append("log header does not match the run config")
    if [r["iteration"] for r in records] != list(range(1, cfg.budget_t + 1)):
        problems.append(f"log holds {len(records)} budget records, expected {cfg.budget_t}")
    logged = [v for _, v in header["initial_evaluations"]] + [r["value"] for r in records]
    if max(logged) != result.best_value:
        problems.append("best value differs from the log")
    if result.stalled:
        problems.append("exploration stalled")
    try:
        made = replay_recipe(recipe(result.dag, result.best_molecule), cfg.oracle)
    except MolboError as exc:
        problems.append(f"recipe replay failed: {exc}")
    else:
        if made.canonical_form != result.best_molecule:
            problems.append("recipe replays to a different molecule")
    return problems


def run_once(wl, run_seed, budget, clock, tracer=None) -> RunRecord:
    from molbo import run
    from molbo.synthesis import save_dag

    from spans import ROOT as ROOT_SPAN

    rec = RunRecord(run_seed)
    cfg = wl.run_config(run_seed, budget)
    log_path = OUT / "runs" / f"{wl.name}-{run_seed}.jsonl"
    dag_path = OUT / "runs" / f"{wl.name}-{run_seed}.dag.json"
    gc.collect()  # garbage of earlier runs is not this run's cost
    clock.stamps.clear()
    t0 = time.perf_counter()
    try:
        if tracer is None:
            result = run(cfg, log_path)
        else:
            result = tracer.call(ROOT_SPAN, run, cfg, log_path)
    except Exception:  # a crashing run is a failed run, not a crashed benchmark
        rec.problems.append(traceback.format_exc())
        return rec
    t1 = time.perf_counter()

    stamps = clock.stamps
    first = len(result.initial_evaluations) - 1  # last bootstrap evaluation
    rec.wall_s = t1 - t0
    rec.iter_s = stamps[-1] - stamps[first]
    rec.gaps = [b - a for a, b in zip(stamps[first:], stamps[first + 1:])]
    rec.stalled = result.stalled
    hit = next((r.iteration for r in result.records if r.value >= wl.target), None)
    if hit is not None:
        rec.evals_to_target = hit
        rec.time_to_target_s = stamps[first + hit] - t0
    save_dag(result.dag, dag_path)
    rec.log_sha256, rec.dag_sha256 = sha256(log_path), sha256(dag_path)
    if len(rec.gaps) != cfg.budget_t:
        rec.problems.append(f"{len(rec.gaps)} objective evaluations for budget {cfg.budget_t}")
    rec.problems += check_run(cfg, result, log_path)
    return rec


def same_output(a: RunRecord, b: RunRecord) -> bool:
    return (a.log_sha256, a.dag_sha256) == (b.log_sha256, b.dag_sha256)


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least TAIL_BEYOND samples above it."""
    return max(50, min(99, int(100 * (1 - TAIL_BEYOND / max(n, 1)))))


def pass_metrics(records: list[RunRecord]) -> dict[str, float]:
    import numpy as np

    gaps = np.array([g for r in records for g in r.gaps])
    return {
        "evals_per_s": len(gaps) / sum(r.iter_s for r in records),
        "iter_ms_p50": float(np.percentile(gaps, 50)) * 1e3,
        "iter_ms_tail": float(np.percentile(gaps, tail_percentile(len(gaps)))) * 1e3,
    }


def measure_setup(workload: str, reference: Reference) -> list[float]:
    """Wall times of fresh interpreters that import molbo and bootstrap
    the workload's initial pool, up to the first iteration."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload],
            cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - t0)
        reference.sample()
    return times


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance() -> dict:
    import networkx
    import numpy
    import scipy

    sources = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "src_files": len(sources),
        "src_lines": lines,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "platform": platform.platform(),
    }


def run_pass(wl, seeds, budget, clock, reference) -> list[RunRecord]:
    records = []
    for seed in seeds:
        records.append(run_once(wl, seed, budget, clock))
        reference.sample()
    return records


def measure(wl, seeds, seconds, budget, clock, reference):
    """Passes over the run seeds, then a rerun for the repeat check."""
    start = time.perf_counter()
    passes = []
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(wl, seeds, budget, clock, reference))
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            break
    repeats = [r for p in passes[1:] for r in p]
    if not repeats:
        repeats = [run_once(wl, seeds[0], budget, clock)]
    first = {r.run_seed: r for r in passes[0]}
    for rec in repeats:
        if not same_output(rec, first[rec.run_seed]):
            rec.problems.append("log or DAG differs from the same seed's first run")
    return passes, repeats


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--budget", type=int, default=None,
                        help="override the workload's budget (smoke test)")
    parser.add_argument("--runs", type=int, default=None,
                        help="override the runs per pass (smoke test)")
    args = parser.parse_args(argv)

    if not (SRC / "molbo" / "__init__.py").is_file():
        print(f"perfbench: no molbo sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import molbo.optimizer
    from workloads import DEFAULT_SEED, WORKLOADS, run_seeds

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    seed = DEFAULT_SEED if args.seed is None else args.seed
    seeds = run_seeds(seed, args.runs or wl.runs_per_pass)
    (OUT / "runs").mkdir(parents=True, exist_ok=True)
    report = {
        "workload": wl.name,
        "why": wl.why,
        "seed": seed,
        "trace": args.trace,
        "budget": args.budget or wl.config.budget_t,
        "runs_per_pass": args.runs or wl.runs_per_pass,
        "provenance": provenance(),
    }

    with EvalClock(molbo.optimizer) as clock:
        # Warm-up: first calls into numpy, scipy and the package are not timed.
        warm = run_once(wl, seeds[0], 1, clock)
        if args.trace:
            from spans import Tracer, layer_metrics

            tracer = Tracer()
            untraced, traced = [], []
            for s in seeds:
                untraced.append(run_once(wl, s, args.budget, clock))
                tracer.install()
                try:
                    traced.append(run_once(wl, s, args.budget, clock, tracer))
                finally:
                    tracer.uninstall()
                if not same_output(untraced[-1], traced[-1]):
                    traced[-1].problems.append("traced run's log or DAG differs from untraced")
            records = untraced + traced
            untraced_s = sum(r.wall_s for r in untraced)
            traced_s = sum(r.wall_s for r in traced)
            metrics = {
                name: (value, unit, None)
                for name, (value, unit) in layer_metrics(
                    tracer.summary(), sum(r.stalled for r in traced),
                    traced_s - untraced_s, untraced_s).items()
            }
            tracer.save(OUT / f"spans-{wl.name}.npz")
            report["passes"] = 1
            target_runs = traced
        else:
            reference = Reference()
            passes, repeats = measure(wl, seeds, args.seconds, args.budget, clock, reference)
            records = [r for p in passes for r in p] + repeats
            n_gaps = sum(len(r.gaps) for r in passes[0])
            setup = measure_setup(wl.name, reference)
            per_pass = [pass_metrics(p) for p in passes]
            raw = {
                "setup_s": statistics.median(setup),
                **{name: statistics.median(m[name] for m in per_pass)
                   for name in ("evals_per_s", "iter_ms_p50", "iter_ms_tail")},
            }
            scale = reference.scale()
            metrics = {
                name: (value / scale if name == "evals_per_s" else value * scale,
                       END_TO_END_UNITS[name], len(setup) if name == "setup_s" else n_gaps)
                for name, value in raw.items()
            }
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1)
            report["raw_metrics"] = raw
            report["reference_s"] = reference.samples
            report["reference_scale"] = scale
            report["passes"] = len(passes)
            report["tail_percentile"] = tail_percentile(n_gaps)
            target_runs = passes[0]

    records.insert(0, warm)
    failed = [r for r in records if r.problems]
    reached = [r for r in target_runs if r.evals_to_target is not None]
    report["target"] = {
        "value": wl.target,
        "reached": len(reached),
        "runs": len(target_runs),
        "evals_to_target": [r.evals_to_target for r in target_runs],
        "time_to_target_s": [r.time_to_target_s for r in target_runs],
        "evals_to_target_median": statistics.median(r.evals_to_target for r in reached)
        if reached else None,
        "time_to_target_s_median": statistics.median(r.time_to_target_s for r in reached)
        if reached else None,
    }
    report["metrics"] = {
        k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()
    }
    report["runs"] = [
        {"run_seed": r.run_seed, "wall_s": r.wall_s, "iter_s": r.iter_s,
         "evals_to_target": r.evals_to_target, "time_to_target_s": r.time_to_target_s}
        for r in records[1:]
    ]
    report["digests"] = {
        str(r.run_seed): {"log": r.log_sha256, "dag": r.dag_sha256} for r in records[1:]
    }
    report["attempted"] = len(records)
    report["failed"] = len(failed)
    report["failed_frac"] = len(failed) / len(records)
    report["failures"] = [{"run_seed": r.run_seed, "problems": r.problems} for r in failed]
    for r in failed:
        print(f"perfbench: run seed {r.run_seed} failed: {r.problems}", file=sys.stderr)

    text = json.dumps(report, sort_keys=True)
    (OUT / f"report-{wl.name}-seed{seed}-trace{args.trace}.json").write_text(text + "\n")
    print(text)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
