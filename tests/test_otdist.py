import itertools
import random
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import oracles
from conftest import EXTRA, bridges, join_chain, random_molecule, relabel, split_and_rejoin
from molbo import otdist
from molbo.errors import SolverFailure
from molbo.kernel import OTExpSum
from molbo.molgraph import (
    Molecule,
    WeightMode,
    add_explicit_hydrogens,
    atom_weight,
    bond_profile,
    molecular_weight,
    parse_smiles,
)
from molbo.objectives import Objective, ObjectiveKind
from molbo.optimizer import RunConfig, run
from molbo.otdist import (
    CONFIG_ORDER,
    DistanceConfig,
    MISMATCH_PENALTY,
    build_costs,
    distance_vector,
    distance_vectors,
    solve_ot,
    solve_transport,
)
from molbo.synthesis import Condition, OracleKind


def expand(text):
    return add_explicit_hydrogens(parse_smiles(text))


UNIT_RAW = DistanceConfig(WeightMode.UNIT, False)
MASS_RAW = DistanceConfig(WeightMode.MASS, False)


def vector_matching_solve_ot(m1, m2):
    """distance_vector, after checking each entry against solve_ot: the
    unit entries bit for bit, the mass entries to 1e-12."""
    vec = distance_vector(m1, m2)
    for k, cfg in enumerate(CONFIG_ORDER):
        if cfg.weight_mode is WeightMode.UNIT:
            assert vec[k] == solve_ot(m1, m2, cfg)[0]
        else:
            assert vec[k] == pytest.approx(solve_ot(m1, m2, cfg)[0], abs=1e-12)
    return vec


class TestBuildCosts:
    def test_worked_bond_overlap_example(self):
        # isobutane center: {C-C x3, C-H}; propene center: {C=C, C-C, C-H}.
        # One C-H and one C-C are shared out of a five-bond union -> 3/5.
        iso = expand("CC(C)C")
        propene = expand("C=CC")
        iso_center = next(
            i for i in iso.heavy_indices()
            if sum(1 for j, _ in iso.neighbors(i) if iso.atoms[j].symbol == "C") == 3
        )
        prop_center = next(
            i for i in propene.heavy_indices()
            if sum(1 for j, _ in propene.neighbors(i) if propene.atoms[j].symbol == "C") == 2
        )
        costs = build_costs(iso, propene)
        assert costs.c_str[iso_center, prop_center] == pytest.approx(3.0 / 5.0, abs=1e-12)

    def test_identical_atoms_zero_structure_cost(self):
        mol = expand("CC(=O)O")
        costs = build_costs(mol, mol)
        assert np.allclose(np.diag(costs.c_str), 0.0)
        assert np.allclose(np.diag(costs.c_lbl), 0.0)

    def test_label_mismatch_penalty(self):
        a, b = expand("C"), expand("O")
        costs = build_costs(a, b)
        carbon = next(i for i, at in enumerate(a.atoms) if at.symbol == "C")
        oxygen = next(j for j, at in enumerate(b.atoms) if at.symbol == "O")
        assert costs.c_lbl[carbon, oxygen] == MISMATCH_PENALTY

    def test_structure_cost_bounds(self):
        rng = random.Random(5)
        for _ in range(20):
            m1, m2 = random_molecule(rng), random_molecule(rng)
            costs = build_costs(m1, m2)
            assert np.all(costs.c_str >= 0.0) and np.all(costs.c_str <= 1.0)

    def test_rows_index_the_expanded_molecules(self):
        costs = build_costs(parse_smiles("CC"), parse_smiles("CO"))
        want = build_costs(expand("CC"), expand("CO"))
        assert costs.c_lbl.shape == (8, 6)
        assert np.array_equal(costs.c_lbl, want.c_lbl)
        assert np.array_equal(costs.c_str, want.c_str)


class TestSolveTransport:
    def test_integer_data_gives_the_exact_integer_optimum(self):
        """Python ints give int values and plans: the optimum of the generic
        LP, and the given marginals exactly."""
        rng = np.random.default_rng(1)
        for _ in range(150):
            n, m = int(rng.integers(1, 8)), int(rng.integers(1, 8))
            supply = rng.integers(0, 6, n)
            supply[0] += 1
            demand = rng.multinomial(supply.sum(), np.full(m, 1.0 / m))
            cost = rng.integers(0, 3 * otdist._SCALE, (n, m))
            value, plan = solve_transport(supply.tolist(), demand.tolist(), cost.tolist())
            assert type(value) is int
            assert all(type(f) is int and f >= 0 for row in plan for f in row)
            assert [sum(row) for row in plan] == supply.tolist()
            assert [sum(col) for col in zip(*plan)] == demand.tolist()
            assert value == int((np.array(plan) * cost).sum())
            res = linprog(cost.ravel(), A_eq=np.vstack([np.kron(np.eye(n), np.ones(m)),
                                                        np.kron(np.ones(n), np.eye(m))]),
                          b_eq=np.concatenate([supply, demand]), method="highs")
            assert abs(value - res.fun) <= 1e-9 * max(1.0, abs(res.fun))

    def test_spent_pivot_budget_ends_on_blands_rule(self, monkeypatch):
        """Instances that need pivots: with no pivot allowed the simplex
        raises; with Bland's rule from the first pivot it reaches the same
        optimum as the most-negative rule."""
        rng = np.random.default_rng(2)
        pivoting = 0
        while pivoting < 25:
            n, m = int(rng.integers(2, 7)), int(rng.integers(2, 7))
            supply = (rng.integers(0, 6, n) + 1).tolist()
            demand = rng.multinomial(sum(supply), np.full(m, 1.0 / m)).tolist()
            cost = rng.integers(0, 100, (n, m)).tolist()
            value, _ = solve_transport(supply, demand, cost)
            monkeypatch.setattr(otdist, "_pivot_budget", lambda n, m: (0, 0))
            try:
                solve_transport(supply, demand, cost)
            except SolverFailure:
                pivoting += 1
                monkeypatch.setattr(otdist, "_pivot_budget", lambda n, m: (0, 10_000))
                bland, plan = solve_transport(supply, demand, cost)
                assert bland == value
                assert [sum(row) for row in plan] == supply
            monkeypatch.undo()

    @pytest.mark.parametrize("supply, demand, cost", [
        ([3, 1], [2, 1], [[1, 2], [3, 4]]),
        ([3.0, 1.0], [2.0, 1.0], [[1, 2], [3, 4]]),
        ([-1, 3], [1, 1], [[1, 2], [3, 4]]),
        ([-1.0, 3.0], [1.0, 1.0], [[1, 2], [3, 4]]),
        ([], [], []),
        ([1, 1], [2], []),
        ([1, 1, 1], [3], [[0], [0]]),
        ([1, 1], [2], [[0], [0], [0]]),
        ([1, 1], [2], [[0], [0, 0]]),
        ([3.0, 1.0], [2.0, 2.0], [[1, 2], [3, 4]]),
        ([3, 1], [2, 2], [[1, 2], [3, np.float64(4)]]),
        (np.array([3, 1]), np.array([2, 2]), np.array([[1, 2], [3, 4]])),
        ([3, 1], [2, True, 1], [[1, 2, 3], [4, 5, 6]]),
    ], ids=["unbalanced-int", "unbalanced-float", "negative-int", "negative-float", "empty",
            "no-rows", "missing-row", "extra-row", "short-row", "float", "numpy-float",
            "numpy-int-array", "bool"])
    def test_bad_marginals_raise(self, supply, demand, cost):
        with pytest.raises(SolverFailure):
            solve_transport(supply, demand, cost)


class TestSolveOt:
    def test_identity_is_zero(self):
        mol = expand("CC(=O)OCC")
        for cfg in CONFIG_ORDER:
            distance, _ = solve_ot(mol, mol, cfg)
            assert abs(distance) <= 1e-9

    def test_isomorphic_is_zero(self):
        rng = random.Random(2)
        mol = expand("CC(C)CO")
        other = relabel(mol, rng)
        assert solve_ot(mol, other, UNIT_RAW)[0] <= 1e-9

    def test_butane_isobutane_regression(self):
        # regression constants pinned with the dense generic-LP oracle
        nb, ib = expand("CCCC"), expand("CC(C)C")
        assert solve_ot(nb, ib, UNIT_RAW)[0] == pytest.approx(0.8, abs=1e-9)
        assert solve_ot(nb, ib, MASS_RAW)[0] == pytest.approx(9.6088, abs=1e-9)
        assert solve_ot(nb, ib, UNIT_RAW)[0] == pytest.approx(
            oracles.ot_cost_inequality(nb, ib, WeightMode.UNIT), abs=1e-9
        )

    def test_plan_marginals(self):
        m1, m2 = expand("CCCC"), expand("CC(=O)O")
        for cfg in (UNIT_RAW, MASS_RAW):
            _, plan = solve_ot(m1, m2, cfg)
            y1 = np.append(
                [atom_weight(a, cfg.weight_mode) for a in m1.atoms],
                molecular_weight(m2, cfg.weight_mode),
            )
            y2 = np.append(
                [atom_weight(a, cfg.weight_mode) for a in m2.atoms],
                molecular_weight(m1, cfg.weight_mode),
            )
            assert np.abs(plan.u.sum(axis=1) - y1).max() <= 1e-9
            assert np.abs(plan.u.sum(axis=0) - y2).max() <= 1e-9
            assert plan.u.min() >= 0.0

    def test_no_mass_on_mismatched_labels(self):
        rng = random.Random(9)
        for _ in range(15):
            m1, m2 = random_molecule(rng), random_molecule(rng)
            costs = build_costs(m1, m2)
            _, plan = solve_ot(m1, m2, UNIT_RAW)
            leaked = plan.u[:-1, :-1][costs.c_lbl > 0].sum()
            assert leaked < 1e-9

    def test_oracle_equivalence_both_forms(self):
        rng = random.Random(21)
        for _ in range(25):
            m1, m2 = random_molecule(rng), random_molecule(rng)
            vec = vector_matching_solve_ot(m1, m2)
            for mode, raw in ((WeightMode.UNIT, vec[0]), (WeightMode.MASS, vec[2])):
                mine = solve_ot(m1, m2, DistanceConfig(mode, False))[0]
                inequality = oracles.ot_cost_inequality(m1, m2, mode)
                equality = oracles.ot_cost_equality(m1, m2, mode)
                for value in (mine, raw):
                    assert value == pytest.approx(inequality, abs=1e-6)
                    assert value == pytest.approx(equality, abs=1e-6)

    def test_oracle_equivalence_on_aromatics(self):
        ring_smiles = ("c1ccccc1", "Cc1ccccc1", "n1ccccc1", "Oc1ccccc1",
                       "c1ccc2ccccc2c1")
        mols = [expand(s) for s in ring_smiles]
        for i, a in enumerate(mols):
            for b in mols[i:]:
                vec = vector_matching_solve_ot(a, b)
                for mode, raw in ((WeightMode.UNIT, vec[0]), (WeightMode.MASS, vec[2])):
                    mine = solve_ot(a, b, DistanceConfig(mode, False))[0]
                    equality = oracles.ot_cost_equality(a, b, mode)
                    assert mine == pytest.approx(equality, abs=1e-6)
                    assert raw == pytest.approx(equality, abs=1e-6)


class TestDistanceVector:
    def test_identity_vector(self):
        mol = expand("CCO")
        assert np.allclose(distance_vector(mol, mol), 0.0)

    def test_fixed_order_and_normalization(self):
        m1, m2 = expand("CCCC"), expand("CCO")
        vec = distance_vector(m1, m2)
        assert vec[1] == pytest.approx(vec[0] / (m1.n_atoms + m2.n_atoms), abs=1e-12)
        masses = molecular_weight(m1, WeightMode.MASS) + molecular_weight(m2, WeightMode.MASS)
        assert vec[3] == pytest.approx(vec[2] / masses, abs=1e-12)
        assert vec[0] == pytest.approx(solve_ot(m1, m2, UNIT_RAW)[0], abs=1e-12)

    @pytest.mark.parametrize(
        "s1, s2, solves",
        [
            ("C", "O", 0),  # one-sided elements, distinct monovalent H classes
            ("CCl", "CBr", 0),  # equal H classes, one carbon class per side
            ("FC(F)CCl", "ClCCF", 0),  # CH2Cl matched; one carbon class left on one side
            ("CC", "CC(C)CO", 0),  # one carbon class against four
            ("CCCC", "CC(C)C", 0),  # CH3 matched; CH2 left against CH3 and CH
            ("CCCC", "CCOC", 1),  # one CH3 matched; two carbon classes left on each side
        ],
    )
    def test_element_blocks_match_oracles(self, s1, s2, solves, monkeypatch):
        m1, m2 = expand(s1), expand(s2)
        calls = []
        real = otdist.solve_transport

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(otdist, "solve_transport", counting)
        distance_vector(m1, m2)
        monkeypatch.undo()
        assert len(calls) == solves
        vec = vector_matching_solve_ot(m1, m2)
        for mode, raw in ((WeightMode.UNIT, vec[0]), (WeightMode.MASS, vec[2])):
            assert raw == pytest.approx(oracles.ot_cost_inequality(m1, m2, mode), abs=1e-6)
            assert raw == pytest.approx(oracles.ot_cost_equality(m1, m2, mode), abs=1e-6)

    def test_normalized_entries_bounded(self):
        rng = random.Random(4)
        for _ in range(25):
            m1, m2 = random_molecule(rng), random_molecule(rng)
            vec = distance_vector(m1, m2)
            assert np.all(vec >= 0.0)
            assert vec[1] <= 1.0 + 1e-9 and vec[3] <= 1.0 + 1e-9

    def test_symmetry(self, corpus):
        """Bit for bit, on random pairs and on every pair of the corpus and
        ``EXTRA``."""
        rng = random.Random(6)
        for _ in range(25):
            m1, m2 = random_molecule(rng), random_molecule(rng)
            assert distance_vector(m1, m2).tobytes() == distance_vector(m2, m1).tobytes()
        mols = [parse_smiles(s) for s in corpus + list(EXTRA)]
        firsts, seconds = zip(*itertools.combinations(mols, 2))
        assert (distance_vectors(firsts, seconds).tobytes()
                == distance_vectors(seconds, firsts).tobytes())

    def test_config_order_labels(self):
        labels = [c.label for c in CONFIG_ORDER]
        assert labels == ["unit_raw", "unit_norm", "mass_raw", "mass_norm"]


def element_classes(table, sym):
    """The ``(profile, count)`` classes of element ``sym`` in a class
    table, in sorted profile order."""
    return tuple(sorted((p, n) for (s, p), n in table.tally.items() if s == sym))


@pytest.fixture(scope="module")
def met_blocks(cached_molecules, tmp_path_factory):
    """``(classes1, classes2, cost)`` for every shared element block that
    ``_element_costs`` meets in a fixed-seed guided join run on the
    acceptance pool, then for every pair of distinct same-element blocks
    of ``cached_molecules``."""
    blocks = []
    cfg = RunConfig(
        initial_pool=("C", "N", "O", "CC", "CO", "CN", "CCO", "CCC", "CCN", "COC"),
        objective=Objective(kind=ObjectiveKind.HEAVY_ATOM_TARGET, target=25),
        kernel_family=OTExpSum(),
        budget_t=5,
        seed=101000,
        oracle=OracleKind.JOIN,
        conditions=(Condition("join"),),
    )
    real = otdist._element_costs

    def recording(tables, left, right):
        elements, costs = real(tables, left, right)
        for k, (i, j) in enumerate(zip(left.tolist(), right.tolist())):
            for e, sym in enumerate(elements):
                c1, c2 = element_classes(tables[i], sym), element_classes(tables[j], sym)
                if c1 and c2:
                    blocks.append((c1, c2, costs[k, e]))
        return elements, costs

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(otdist, "_element_costs", recording)
        run(cfg, tmp_path_factory.mktemp("walk") / "run.jsonl")
    assert len(blocks) > 1000
    by_element: dict[str, set] = {}
    for m in cached_molecules:
        table = otdist._class_table(m)
        for sym in {s for s, _ in table.tally}:
            by_element.setdefault(sym, set()).add(element_classes(table, sym))
    for sym, found in sorted(by_element.items()):
        found = sorted(found)
        tables = [otdist._ClassTable(Counter({(sym, p): n for p, n in c}), 0, 0.0)
                  for c in found]
        left, right = np.array(list(itertools.combinations(range(len(found)), 2))).reshape(-1, 2).T
        _, costs = real(tables, left, right)
        blocks += [(found[i], found[j], cost) for i, j, cost in zip(left, right, costs[:, 0])]
    return blocks


def test_heavy_distances_equal_the_expansion_bytes(heavy_molecules):
    """Implicit hydrogens give the bytes of explicit ones, on a fixed
    sample of pairs."""
    rng = random.Random(3)
    for _ in range(400):
        a, b = rng.sample(heavy_molecules, 2)
        want = distance_vector(add_explicit_hydrogens(a), add_explicit_hydrogens(b))
        assert distance_vector(a, b).tobytes() == want.tobytes()


def test_block_costs_match_whole_block_simplex(met_blocks):
    """Matching equal profiles first, then closing or solving the residual,
    gives the exact optimum of the whole block, times the scale."""
    solved = 0
    for c1, c2, cost in met_blocks:
        assert int(cost) == oracles.block_cost_exact(c1, c2) * otdist._SCALE, (c1, c2)
        solved += len(c1) > 1 and len(c2) > 1
    assert solved > 1000


#: Bond entries of the random profiles below; a profile holds 1 to 6 of them.
ENTRIES = (("-", "C", "C"), ("=", "C", "C"), (":", "C", "C"), ("-", "C", "H"),
           ("-", "C", "O"), ("=", "C", "O"), ("-", "C", "N"), ("#", "C", "N"))
CLASSES = st.dictionaries(
    st.lists(st.sampled_from(ENTRIES), min_size=1, max_size=6).map(lambda e: tuple(sorted(e))),
    st.integers(min_value=1, max_value=12), min_size=1, max_size=5)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(c1=CLASSES, c2=CLASSES)
def test_element_costs_are_the_rounded_exact_optimum(c1, c2):
    """Random class lists of one element, in both orders: every block cost
    is its exact optimum times the scale, an integer."""
    tables = [otdist._ClassTable(Counter({("C", p): n for p, n in c.items()}), 0, 0.0)
              for c in (c1, c2)]
    _, costs = otdist._element_costs(tables, np.array([0, 1]), np.array([1, 0]))
    exact = oracles.block_cost_exact(tuple(sorted(c1.items())), tuple(sorted(c2.items())))
    assert costs.dtype == np.int64
    assert int(costs[0, 0]) == int(costs[1, 0]) == exact * otdist._SCALE


def test_blocks_past_one_slab_equal_single_pairs(heavy_molecules, monkeypatch):
    """One call over more pairs than a slab holds gives the bytes of one
    call per pair; both slabs close fills and solve simplex cells."""
    rng = random.Random(8)
    pairs = [rng.sample(heavy_molecules, 2) for _ in range(otdist._CHUNK + 400)]
    kinds = []
    real = otdist._residual_costs

    def recording(r1, r2, profiles):
        w1, w2 = (r1 > 0).sum(axis=1), (r2 > 0).sum(axis=1)
        kinds.append((((w1 == 1) | (w2 == 1)).sum(), ((w1 > 1) & (w2 > 1)).sum()))
        return real(r1, r2, profiles)

    monkeypatch.setattr(otdist, "_residual_costs", recording)
    block = distance_vectors(*zip(*pairs))
    monkeypatch.undo()
    assert len(kinds) == 2 and all(fills and solves for fills, solves in kinds)
    assert block.tobytes() == np.array([distance_vector(a, b) for a, b in pairs]).tobytes()


def test_profile_cost_is_a_metric_on_met_profiles(met_blocks):
    """Pre-matching is exact because ``c_str`` obeys the triangle
    inequality; check it on every triple of the profiles met above."""
    profiles = sorted({p for c1, c2, _ in met_blocks for p, _ in c1 + c2})
    assert len(profiles) > 50
    d = np.array([[otdist._profile_cost(p, q) for q in profiles] for p in profiles])
    assert d.dtype == np.int64
    assert np.array_equal(d, d.T) and not d.diagonal().any()
    for j in range(len(profiles)):
        assert (d <= d[:, [j]] + d[[j], :]).all()


def full_class_table(mol):
    """The class table of ``mol`` built from its atoms, ignoring any origin."""
    return otdist._class_table(Molecule(mol.atoms, mol.bonds))


class TestInheritedClassTables:
    """A join product's class table comes from its reagents' tables and
    equals the one built from its atoms."""

    def test_split_at_every_bridge_rejoins_exactly(self, cached_molecules):
        splits = 0
        for mol in cached_molecules:
            full = full_class_table(mol)
            for i, j in bridges(mol):
                product = split_and_rejoin(mol, i, j)
                inherited = otdist._class_table(product)
                assert all(r._transport_classes is not None for r in product._origin[:2])
                assert inherited.tally == full.tally
                assert (inherited.total_units, inherited.total_mass) == (
                    full.total_units, full.total_mass)
                splits += 1
        assert splits > 1000

    def test_deep_chain_resolves_without_recursion(self):
        chain = join_chain(300)
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        # far fewer frames than the chain is deep: resolving the origins
        # one call per ancestor would raise RecursionError
        sys.setrecursionlimit(depth + 100)
        try:
            table = otdist._class_table(chain[-1])
        finally:
            sys.setrecursionlimit(limit)
        assert all(m._transport_classes is not None for m in chain)
        assert table == full_class_table(chain[-1])


def test_structure_cost_is_the_multiset_jaccard(cached_molecules):
    """``_profile_cost`` is the only ``c_str``.  On every pair of bond
    profiles of the hydrogen-expanded cached molecules it is the exact
    multiset Jaccard distance times ``_SCALE``, and every ``c_str`` cell of
    ``build_costs`` is that distance correctly rounded."""
    covering, profiles = [], set()
    for mol in sorted(map(add_explicit_hydrogens, cached_molecules), key=lambda m: m.n_atoms):
        atoms = {bond_profile(mol, i) for i in range(mol.n_atoms)}
        if not atoms <= profiles:
            covering.append(mol)
            profiles |= atoms
    assert len(profiles) > 50
    jaccard = {}
    for p in profiles:
        for q in profiles:
            jaccard[p, q] = oracles.multiset_jaccard_distance(p, q)
            assert otdist._profile_cost(p, q) == jaccard[p, q] * otdist._SCALE
    # Every profile occurs in a covering molecule, so the pairs of
    # covering molecules meet every pair of profiles.
    for m1 in covering:
        p1 = [bond_profile(m1, i) for i in range(m1.n_atoms)]
        for m2 in covering:
            p2 = [bond_profile(m2, j) for j in range(m2.n_atoms)]
            want = np.array([[float(jaccard[p, q]) for q in p2] for p in p1])
            assert np.array_equal(build_costs(m1, m2).c_str, want)


def test_profile_cost_raises_past_the_scale():
    """A union of 13 bond entries, more than two profiles of at most six
    bonds can hold, does not divide ``_SCALE``: the cost raises instead of
    rounding."""
    entries = [("-", "C", sym) for sym in ("B", "Br", "C", "Cl", "F", "H", "I", "N", "O", "P",
                                           "S", "Si", "Se")]
    with pytest.raises(ValueError, match="scale"):
        otdist._profile_cost(tuple(entries[:7]), tuple(entries[7:]))
    assert otdist._profile_cost(tuple(entries[:6]), tuple(entries[6:12])) == otdist._SCALE
