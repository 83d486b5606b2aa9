"""Typed-value invariants that cut across modules."""

import copy
import pickle
import random

import numpy as np
import pytest

from conftest import random_molecule
from molbo.gp import GpHyperparams, build_posterior
from molbo.kernel import KernelCache, OTExpSum, gram, psd_project
from molbo.molgraph import BondOrder, PERIODIC_TABLE
from molbo.objectives import Objective, ObjectiveKind
from molbo.optimizer import Method, RunConfig, run
from molbo.synthesis import Condition, OracleKind, synthesize_detailed
from molbo.molgraph import add_explicit_hydrogens, parse_smiles


def test_element_table_invariants():
    assert set(PERIODIC_TABLE) == {"H", "B", "C", "N", "O", "F", "P", "S",
                                   "Cl", "Br", "I"}
    for elem in PERIODIC_TABLE.values():
        assert elem.atomic_mass > 0
        assert 1 <= elem.default_valence <= 6
        assert elem.valences == tuple(sorted(elem.valences))
    assert PERIODIC_TABLE["S"].valences == (2, 4, 6)
    assert PERIODIC_TABLE["P"].valences == (5,)


def test_bond_order_contributions_match_kind():
    want = {
        BondOrder.SINGLE: 1.0,
        BondOrder.DOUBLE: 2.0,
        BondOrder.TRIPLE: 3.0,
        BondOrder.AROMATIC: 1.5,
    }
    for order, value in want.items():
        assert order.valence_contribution == value


def test_bond_order_members_round_trip():
    assert BondOrder("=") is BondOrder.DOUBLE
    assert [(o.symbol, o.rank) for o in BondOrder] == [
        ("-", 0), ("=", 1), ("#", 2), (":", 3)
    ]
    for order in BondOrder:
        assert order.value == order.symbol
        assert BondOrder(order.symbol) is order
        assert pickle.loads(pickle.dumps(order)) is order
        assert copy.copy(order) is order
        assert copy.deepcopy(order) is order


def test_gp_hyperparams_ranges_enforced():
    spec = OTExpSum()
    with pytest.raises(ValueError):
        GpHyperparams(kernel_spec=spec, noise_var=0.0, mean_const=0.0, signal_scale=1.0)
    with pytest.raises(ValueError):
        GpHyperparams(kernel_spec=spec, noise_var=1e-4, mean_const=0.0,
                      signal_scale=1e4)


def test_posterior_factor_identities():
    rng = random.Random(0)
    mols = {}
    while len(mols) < 6:
        m = random_molecule(rng, max_heavy=5)
        mols.setdefault(m.canonical_form, m)
    mols = list(mols.values())
    ys = np.linspace(-1, 1, 6)
    hyper = GpHyperparams(kernel_spec=OTExpSum((0.5, 0, 0.05, 0)), noise_var=0.01,
                          mean_const=0.2, signal_scale=1.5)
    cache = KernelCache()
    gp = build_posterior(mols, ys, hyper, cache)
    k_psd = psd_project(gram(mols, hyper.kernel_spec, cache))
    ktilde = hyper.signal_scale**2 * k_psd + hyper.noise_var * np.eye(6)
    assert np.abs(gp.chol_factor @ gp.chol_factor.T - ktilde).max() <= 1e-8
    assert np.abs(ktilde @ gp.alpha_vec - (ys - hyper.mean_const)).max() <= 1e-8


def test_unknown_condition_rejected():
    mol = add_explicit_hydrogens(parse_smiles("C"))
    with pytest.raises(ValueError):
        synthesize_detailed([mol, mol], {"plasma"}, OracleKind.JOIN)
    with pytest.raises(ValueError):
        Condition("join") and synthesize_detailed([mol, mol], {Condition("warp")},
                                                  OracleKind.JOIN)


def test_run_result_best_is_max_over_all_evaluations():
    cfg = RunConfig(
        initial_pool=("C", "N", "O", "CC", "CO", "CN"),
        objective=Objective(kind=ObjectiveKind.HEAVY_ATOM_TARGET, target=6),
        kernel_family=OTExpSum(),
        budget_t=3,
        seed=4,
        method=Method.CHEMBO,
        oracle=OracleKind.JOIN,
        conditions=(Condition("join"),),
        explorer_steps=5,
    )
    result = run(cfg)
    values = [v for _, v in result.initial_evaluations]
    values += [r.value for r in result.records]
    assert result.best_value == max(values)
    assert result.best_molecule in result.dag.nodes
