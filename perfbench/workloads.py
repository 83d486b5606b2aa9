"""The benchmark's workloads: three closed-loop runs of molbo's public API.

Every workload is one ``RunConfig`` template plus the objective value that
counts as reaching the target.  An invocation with ``--seed s`` runs the
template once for each of ``runs_per_pass`` run seeds ``1000 * s + i``.
The run seed only enters ``RunConfig.seed``, and molbo splits it into an
exploration stream and a model stream, so the two ``bo-join-*`` workloads
explore identically for equal seeds and differ only in the kernel.

Run lengths are far below the paper's budget of 30 on purpose.  Between
run seeds the cost of one run varies by 10-45% (molecule sizes follow
the random walk), so a steady figure needs many runs per pass, and one
pass has to fit in the benchmark's run time.  ``runs_per_pass`` makes a
pass take about 25 s on a 2-core x86-64 sandbox.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from molbo import (
    Condition,
    FingerprintTanimoto,
    Method,
    Objective,
    ObjectiveKind,
    OracleKind,
    OTExpSum,
    RunConfig,
)

#: The acceptance join pool of the ROADMAP's north-star config.
JOIN_POOL = ("C", "N", "O", "CC", "CO", "CN", "CCO", "CCC", "CCN", "COC")

#: The molecules of ``tests/data/pool_template.smi``, inlined so that the
#: benchmark reads no test data.
TEMPLATE_POOL = (
    "CC(=O)O",
    "CCO",
    "CN",
    "CCBr",
    "CC=O",
    "OCCO",
    "NCCN",
    "CCCl",
    "CO",
    "OC(=O)CCC(=O)O",
)

#: Seed used when ``--seed`` is not given.  The two join workloads share it
#: so that their default runs are paired.
DEFAULT_SEED = 101

#: Never used while the benchmark or a change is tuned; a claimed gain is
#: confirmed on it before it is accepted.
HELD_OUT_SEED = 2027


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: RunConfig
    target: float
    runs_per_pass: int

    def run_config(self, run_seed: int, budget: int | None = None) -> RunConfig:
        cfg = replace(self.config, seed=run_seed)
        return cfg if budget is None else replace(cfg, budget_t=budget)


def run_seeds(seed: int, count: int) -> list[int]:
    """Run seeds of one pass; a prefix of a longer pass for the same seed."""
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    if count > 1000:
        raise ValueError("at most 1000 runs per pass")
    return [1000 * seed + i for i in range(count)]


def _join(kernel) -> RunConfig:
    return RunConfig(
        initial_pool=JOIN_POOL,
        objective=Objective(kind=ObjectiveKind.HEAVY_ATOM_TARGET, target=25),
        kernel_family=kernel,
        budget_t=5,
        seed=0,
        method=Method.CHEMBO,
        oracle=OracleKind.JOIN,
        conditions=(Condition("join"),),
        explorer_steps=20,
    )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="bo-join-ot",
            why="guided loop, OT kernel, join oracle: otdist (pair distances, "
            "simplex solves) dominates, fingerprint idle; control for "
            "fingerprint changes",
            config=_join(OTExpSum()),
            target=0.0,  # heavy atoms exactly 25
            runs_per_pass=24,
        ),
        Workload(
            name="bo-join-fp",
            why="same runs and exploration with the fingerprint kernel: "
            "fingerprint builds and Tanimoto dominate, otdist idle; control "
            "for OT changes",
            config=_join(FingerprintTanimoto()),
            target=0.0,
            runs_per_pass=40,
        ),
        Workload(
            name="rand-template-qed",
            why="random baseline, template oracle, QED: synthesis draws "
            "(96% yield nothing new) and molgraph dominate; kernel, gp, "
            "otdist and fingerprint do no work",
            config=RunConfig(
                initial_pool=TEMPLATE_POOL,
                objective=Objective(kind=ObjectiveKind.QED),
                kernel_family=OTExpSum(),  # unused by the random baseline
                budget_t=30,
                seed=0,
                method=Method.RAND,
                oracle=OracleKind.TEMPLATE,
                explorer_steps=20,
            ),
            target=1.0,
            runs_per_pass=90,
        ),
    )
}
