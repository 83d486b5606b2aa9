"""The synthesis oracle, random-walk exploration, and recipes.

Fires each reaction rule once, then runs a short random walk on the
synthesis graph and prints a replayable recipe for one product.
"""

import numpy as np

from molbo import (
    Condition,
    OracleKind,
    SynthesisDag,
    explore_acquisition,
    parse_smiles,
    recipe,
    replay_recipe,
    synthesize_detailed,
)
from molbo.synthesis import recipe_to_graph_text


print("== The rule library, one firing each ==")
cases = [
    ("esterification", "CC(=O)O", "CCO", {"acid_cat"}),
    ("amide coupling", "CC(=O)O", "CN", {"heat"}),
    ("Williamson ether", "CCO", "CBr", {"base"}),
    ("imine formation", "CC=O", "CN", {"acid_cat"}),
    ("N-alkylation", "CN", "CCl", {"base"}),
]
for name, a, b, conds in cases:
    made, _ = synthesize_detailed([parse_smiles(a), parse_smiles(b)], conds,
                                  OracleKind.TEMPLATE)
    print(f"  {name:18s} {a} + {b} under {sorted(conds)} -> {made.canonical_form}")

print("\n  wrong conditions give Null:",
      synthesize_detailed([parse_smiles("CC(=O)O"), parse_smiles("CCO")], {"base"},
                          OracleKind.TEMPLATE))

print("\n== Random walk on the synthesis graph ==")
pool_smiles = ["CC(=O)O", "CCO", "CN", "CCBr", "CC=O", "OCCO", "NCCN", "CCCl"]
pool = [parse_smiles(s) for s in pool_smiles]
dag = SynthesisDag()
for m in pool:
    dag.add_initial(m)

rng = np.random.default_rng(7)
best, stalled, steps = explore_acquisition(
    pool, [Condition(c) for c in ("acid_cat", "base", "heat")], set(),
    n=6, oracle=OracleKind.TEMPLATE,
    scorer=lambda cands: np.array([m.heavy_atom_count() for m in cands], float),
    rng=rng, dag=dag,
)
print(f"  {steps} successful steps, pool grew to {len(pool)} molecules")
print(f"  largest molecule found: {best.canonical_form}")

print("\n== Recipe for the walk's best molecule ==")
steps = recipe(dag, best.canonical_form)
for step in steps:
    if step.from_pool:
        print(f"  [pool]   {step.molecule}")
    else:
        print(f"  [step {step.step}] {' + '.join(step.parents)} "
              f"--{step.template}/{','.join(step.conditions)}--> {step.molecule}")

replayed = replay_recipe(steps, OracleKind.TEMPLATE)
print(f"  replay regenerates the target: {replayed.canonical_form == best.canonical_form}")

print("\n== Graph text export ==")
print("\n".join("  " + line for line in recipe_to_graph_text(steps).splitlines()))
