"""Molecular graphs and the transport dissimilarity, step by step.

Parses a few molecules, shows canonical forms and hydrogen expansion
(hydrogens stay implicit everywhere else), then walks through the cost
construction and the four distance configurations on the classic
n-butane / isobutane pair.
"""

import numpy as np

from molbo import (
    CONFIG_ORDER,
    add_explicit_hydrogens,
    build_costs,
    distance_vector,
    parse_smiles,
    solve_ot,
)
from molbo.otdist import DistanceConfig
from molbo.molgraph import WeightMode

print("== Parsing and canonical forms ==")
for text in ("CCO", "OCC", "C(C)O", "CC(C)C", "CCCC", "c1ccccc1"):
    mol = parse_smiles(text)
    print(f"  {text:10s} -> canonical {mol.canonical_form!r}, {mol.n_atoms} heavy atoms")

print("\n== Hydrogen expansion ==")
ethanol = parse_smiles("CCO")
expanded = add_explicit_hydrogens(ethanol)
print(f"  ethanol: {ethanol.n_atoms} heavy atoms -> {expanded.n_atoms} atoms, "
      f"{len(expanded.bonds)} bonds after expansion")

print("\n== Distances: n-butane vs isobutane ==")
nbutane = parse_smiles("CCCC")
isobutane = parse_smiles("CC(C)C")

costs = build_costs(nbutane, isobutane)
print(f"  element-mismatch cells: {(costs.c_lbl > 0).sum()} of {costs.c_lbl.size}")
print(f"  bond-environment penalty range: [{costs.c_str.min():.3f}, {costs.c_str.max():.3f}]")

vec = distance_vector(nbutane, isobutane)
for cfg, value in zip(CONFIG_ORDER, vec):
    print(f"  {cfg.label:10s} = {value:.6f}")
explicit = distance_vector(add_explicit_hydrogens(nbutane), add_explicit_hydrogens(isobutane))
print(f"  with explicit hydrogens: equal to implicit = {np.array_equal(vec, explicit)}")

print("\n== Transport plan inspection (unit weights, raw) ==")
distance, plan = solve_ot(nbutane, isobutane, DistanceConfig(WeightMode.UNIT, False))
print(f"  distance = {distance:.6f}")
print(f"  plan shape {plan.u.shape} over the expanded molecules "
      "(last row/column are the non-matching sinks)")
print(f"  unmatched mass: row sink {plan.u[:-1, -1].sum():.3f}, "
      f"column sink {plan.u[-1, :-1].sum():.3f}")
print(f"  plan marginal error: {np.abs(plan.u[:-1, :].sum(1) - 1.0).max():.2e}")

print("\n== Identity and symmetry sanity ==")
print(f"  d(ethanol, ethanol) = {distance_vector(expanded, expanded)}")
swapped = distance_vector(isobutane, nbutane)
print(f"  max |d(a,b) - d(b,a)| = {np.abs(vec - swapped).max():.2e}")
