"""Molecular kernels and Gaussian-process regression.

Builds the three kernel families over a small molecule set, projects the
Gram matrix onto the PSD cone, fits GP hyperparameters by marginal
likelihood, and inspects posterior predictions.
"""

import numpy as np

from molbo import (
    FingerprintTanimoto,
    KernelCache,
    Objective,
    ObjectiveKind,
    OTExpSum,
    SumKernel,
    build_posterior,
    evaluate,
    fit,
    gram,
    parse_smiles,
    posterior,
    psd_project,
)

MOLECULES = ["C", "CC", "CCC", "CCO", "CC(C)C", "CCCC", "CCN", "COC", "CC(=O)O", "CCCO"]
mols = [parse_smiles(s) for s in MOLECULES]
cache = KernelCache()

print("== Gram matrices ==")
for spec in (FingerprintTanimoto(), OTExpSum((0.5, 0.0, 0.05, 0.0)), SumKernel()):
    g = gram(mols, spec, cache)
    eigs = np.linalg.eigvalsh(g)
    print(f"  {type(spec).__name__:20s} diag mean {np.diag(g).mean():.3f}, "
          f"eigenvalue range [{eigs[0]:+.2e}, {eigs[-1]:.2f}]")

print("\n== PSD projection ==")
g = gram(mols, OTExpSum((0.5, 0.0, 0.05, 0.0)), cache)
projected = psd_project(g)
print(f"  min eigenvalue after projection: {np.linalg.eigvalsh(projected)[0]:+.2e}")

print("\n== GP on a simple structural objective ==")
objective = Objective(kind=ObjectiveKind.PENLOGP)
ys = np.array([evaluate(objective, m) for m in mols])
print("  targets:", np.round(ys, 3))

rng = np.random.default_rng(0)
hyper = fit(mols, ys, OTExpSum(), rng, cache)
print(f"  fitted noise={hyper.noise_var:.2e} signal={hyper.signal_scale:.3f} "
      f"mean={hyper.mean_const:.3f}")
print(f"  fitted betas={tuple(round(b, 4) for b in hyper.kernel_spec.betas)}")

gp = build_posterior(mols, ys, hyper, cache)
held_out = [parse_smiles(s) for s in ("CCCCC", "OCCO", "CNC")]
for m in held_out:
    mu, var = posterior(gp, m)
    truth = evaluate(objective, m)
    print(f"  {m.canonical_form:8s} predicted {mu:+.3f} +/- {np.sqrt(var):.3f}, "
          f"actual {truth:+.3f}")
