"""The full optimization loop and the paired-seed comparison harness.

Runs the GP-guided loop against the random-walk baseline on a small
structural objective and prints the aggregated best-so-far curves.
Finishes in a couple of minutes on a laptop; shrink SEEDS or BUDGET for
a quicker look.
"""

from molbo import (
    BenchSpec,
    Condition,
    Method,
    Objective,
    ObjectiveKind,
    OracleKind,
    OTExpSum,
    RunConfig,
    run,
    run_bench,
)

POOL = ("C", "N", "O", "CC", "CO", "CN", "CCO", "CCC", "CCN", "COC")
BUDGET = 12
SEEDS = (1, 2, 3)

base = RunConfig(
    initial_pool=POOL,
    objective=Objective(kind=ObjectiveKind.HEAVY_ATOM_TARGET, target=18),
    kernel_family=OTExpSum(),
    budget_t=BUDGET,
    seed=0,
    method=Method.CHEMBO,
    oracle=OracleKind.JOIN,
    conditions=(Condition("join"),),
    explorer_steps=12,
)

print("== One guided run, in detail ==")
result = run(base)
for rec in result.records:
    print(f"  iter {rec.iteration:2d} [{rec.acquisition_used:4s}] value {rec.value:+.0f} "
          f"pool {rec.pool_size_after:3d}  {rec.molecule[:40]}")
print(f"  best: {result.best_value:+.0f} via {result.best_molecule}")

print("\n== Paired-seed comparison (guided vs random baseline) ==")
spec = BenchSpec(methods=("chembo-ot", "rand"), seeds=SEEDS, base=base)
agg = run_bench(spec, out_path="bench_result.json")
for method in spec.methods:
    mean = agg[method]["mean"]
    stderr = agg[method]["stderr"]
    print(f"  {method:12s} final {mean[-1]:+.2f} +/- {stderr[-1]:.2f}  "
          f"curve {['%+.1f' % v for v in mean[:: max(1, len(mean) // 6)]]}")
print("\nwrote bench_result.json")
