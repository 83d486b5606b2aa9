import random

import numpy as np
import pytest

import molbo.kernel
from conftest import EXTRA, random_molecule
from molbo.fingerprint import tanimoto
from molbo.gp import _FamilyEvaluator
from molbo.kernel import (
    FingerprintTanimoto,
    KernelCache,
    OTExpSum,
    SumKernel,
    _cell,
    combine,
    cross_gram,
    diagonal,
    features,
    gram,
    psd_project,
)
from molbo.molgraph import add_explicit_hydrogens, parse_smiles
from molbo.otdist import distance_vector


def expand(text):
    return add_explicit_hydrogens(parse_smiles(text))


def pair_value(a, b, spec):
    return cross_gram([a], [b], spec)[0, 0]


class TestKernelValue:
    def test_ot_self_similarity_is_one(self):
        mol = expand("CC(=O)O")
        assert pair_value(mol, mol, OTExpSum((1, 2, 3, 4))) == 1.0

    def test_ot_zero_betas(self):
        a, b = expand("C"), expand("CCCCO")
        assert pair_value(a, b, OTExpSum((0, 0, 0, 0))) == 1.0

    def test_sum_degenerates_to_tanimoto(self):
        a, b = expand("CCO"), expand("CCC")
        spec = SumKernel(alpha1=1.0, alpha2=0.0)
        assert pair_value(a, b, spec) == pytest.approx(
            pair_value(a, b, spec.fingerprint), abs=1e-15
        )

    def test_symmetry_and_ranges(self):
        rng = random.Random(1)
        for _ in range(10):
            a, b = random_molecule(rng), random_molecule(rng)
            ot = pair_value(a, b, OTExpSum((0.5, 1.0, 0.02, 1.0)))
            fp = pair_value(a, b, FingerprintTanimoto())
            both = pair_value(a, b, SumKernel(alpha1=2.0, alpha2=3.0))
            assert 0.0 < ot <= 1.0
            assert 0.0 <= fp <= 1.0
            assert 0.0 <= both <= 5.0
            assert ot == pytest.approx(
                pair_value(b, a, OTExpSum((0.5, 1.0, 0.02, 1.0))), abs=1e-12
            )

    def test_beta_validation(self):
        with pytest.raises(ValueError):
            OTExpSum((-1.0, 0.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            OTExpSum((1.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            SumKernel(alpha1=11.0)


class TestGram:
    def test_single_molecule(self):
        g = gram([expand("CCO")], OTExpSum())
        assert g.shape == (1, 1)
        assert g[0, 0] == 1.0

    def test_ot_diagonal_ones(self):
        mols = [expand(s) for s in ("C", "CC", "CCO", "CC(C)C")]
        g = gram(mols, OTExpSum((0.3, 1.0, 0.02, 1.0)))
        assert np.allclose(np.diag(g), 1.0)

    def test_symmetric(self):
        mols = [expand(s) for s in ("C", "CC", "CCO", "CC(C)C", "CCCN")]
        g = gram(mols, SumKernel())
        assert np.abs(g - g.T).max() <= 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            gram([], OTExpSum())


class TestPsdProject:
    def test_identity_on_psd(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(6, 6))
        psd = a @ a.T
        out = psd_project(psd, floor=0.0)
        assert np.abs(out - psd).max() <= 1e-10

    def test_hand_derived_two_by_two(self):
        # eigenvalues 3 and -1 with eigenvectors (1,1)/sqrt2, (1,-1)/sqrt2
        g = np.array([[1.0, 2.0], [2.0, 1.0]])
        out = psd_project(g, floor=0.0)
        assert np.abs(out - np.array([[1.5, 1.5], [1.5, 1.5]])).max() <= 1e-9

    def test_random_indefinite_matrices(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            a = rng.normal(size=(20, 20))
            sym = (a + a.T) / 2
            out = psd_project(sym)
            assert np.linalg.eigvalsh(out)[0] >= -1e-8

    def test_quadratic_form_after_projection(self):
        rng = np.random.default_rng(2)
        mols = [expand(s) for s in ("C", "CC", "CCO", "CC(C)C", "CCCN", "COC")]
        g = psd_project(gram(mols, OTExpSum((0.5, 1, 0.02, 1))))
        for _ in range(50):
            z = rng.normal(size=6)
            assert z @ g @ z >= -1e-6 * (z @ z)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            psd_project(np.array([[1.0, 0.5], [0.2, 1.0]]))

    @pytest.mark.parametrize("rows", [
        [[1.0, 0.5], [0.5 + 2e-12, 1.0]],
        [[1.0, np.nan], [np.nan, 1.0]],
        [[1.0, 0.5], [np.nan, 1.0]],
        [[np.nan, 0.5], [0.5, 1.0]],
    ])
    def test_rejects_asymmetric_and_nan_entries(self, rows):
        with pytest.raises(ValueError):
            psd_project(np.array(rows))

    def test_accepts_asymmetry_within_tolerance(self):
        g = np.array([[2.0, 0.5], [0.5 + 5e-13, 2.0]])
        assert np.array_equal(psd_project(g, floor=0.0), g)

    def test_rejects_negative_floor(self):
        with pytest.raises(ValueError):
            psd_project(np.eye(2), floor=-1.0)

    @staticmethod
    def stack_with_low_member():
        rng = np.random.default_rng(3)
        a = rng.normal(size=(8, 7, 7))
        stack = a @ a.transpose(0, 2, 1) + np.eye(7)
        stack[2] = (a[2] + a[2].T) / 2  # indefinite
        stack[5] = np.ones((7, 7))  # rank one: eigenvalues below the floor
        return stack

    def test_stack_matches_one_matrix_calls(self):
        stack = self.stack_with_low_member()
        low = [np.linalg.eigvalsh(m)[0] < 1e-10 for m in stack]
        assert low == [False, False, True, False, False, True, False, False]
        out = psd_project(stack)
        assert out.shape == stack.shape
        for got, mat in zip(out, stack):
            assert np.array_equal(got, psd_project(mat))
        nested = psd_project(stack.reshape(2, 4, 7, 7))
        assert np.array_equal(nested.reshape(stack.shape), out)

    def test_stack_rejects_asymmetric_member(self):
        stack = self.stack_with_low_member()
        stack[6, 0, 1] += 1e-6
        with pytest.raises(ValueError, match="symmetric"):
            psd_project(stack)


def test_square_block_looks_up_each_pair_once(monkeypatch):
    """A square block computes each unordered pair once, and a list equal
    to it asks for nothing new."""
    mols = [expand(s) for s in ("C", "CC", "CCO", "CCN", "COC")]
    computed = []
    batch = molbo.kernel.distance_vectors

    def counting(firsts, seconds):
        computed.extend(frozenset((x.canonical_form, y.canonical_form))
                        for x, y in zip(firsts, seconds))
        return batch(firsts, seconds)

    monkeypatch.setattr(molbo.kernel, "distance_vectors", counting)
    spec = OTExpSum((0.5, 1.0, 0.02, 1.0))
    cache = KernelCache()
    g = gram(mols, spec, cache)
    assert len(computed) == len(set(computed)) == 10  # the diagonal is known zero
    assert np.array_equal(g, cross_gram(mols, list(mols), spec, cache))
    assert len(computed) == 10  # a list equal to mols but not it: every cell known


def test_cache_shares_isomorphic_entries(monkeypatch):
    computed = []
    one_pair = molbo.kernel.distance_vector
    monkeypatch.setattr(molbo.kernel, "distance_vector",
                        lambda x, y: computed.append((x, y)) or one_pair(x, y))
    cache = KernelCache()
    a1, a2 = expand("CCO"), expand("OCC")
    v1 = cache.distance_vector(a1, expand("CC"))
    v2 = cache.distance_vector(a2, parse_smiles("CC"))
    assert len(computed) == 1  # same canonical pair: computed once
    assert v1.tobytes() == v2.tobytes()


class PairMemo:
    """What the store must hold: a memo of ``distance_vector`` keyed by
    the unordered canonical pair."""

    def __init__(self):
        self.vectors = {}

    def __call__(self, x, y):
        key = tuple(sorted((x.canonical_form, y.canonical_form)))
        if key not in self.vectors:
            self.vectors[key] = distance_vector(x, y)
        return self.vectors[key]

    def block(self, rows, cols):
        """The ``4 x r x c`` distance tensor."""
        return np.array([[self(x, y) for y in cols] for x in rows]).transpose(2, 0, 1)


class TestDistanceStore:
    """Every cell the store gives has the bytes of ``distance_vector``."""

    SPEC = OTExpSum((0.5, 1.0, 0.02, 1.0))

    def check(self, rows, cols, cache, memo):
        dist, _ = features(rows, cols, self.SPEC, cache)
        want = memo.block(rows, cols)
        assert dist.tobytes() == np.ascontiguousarray(want).tobytes()
        return want

    def test_blocks_match_the_pair_memo(self, corpus):
        texts = corpus + list(EXTRA)
        heavy = [parse_smiles(s) for s in texts]
        expanded = [expand(s) for s in texts]  # explicit hydrogens
        cache, memo = KernelCache(), PairMemo()
        a, b = heavy[texts.index("CC(C)C")], heavy[texts.index("C=CC(=O)O")]
        first = cache.distance_vector(b, a)
        assert first.tobytes() == memo(b, a).tobytes() == distance_vector(a, b).tobytes()
        # Cross blocks over overlapping lists ask for some pairs both ways.
        cols = heavy[20:] + heavy[:5]
        self.check(heavy[25:], cols, cache, memo)
        self.check(cols, heavy[25:], cache, memo)
        self.check(expanded[:30], expanded[:30], cache, memo)
        want = self.check(expanded, expanded, cache, memo)
        assert np.array_equal(gram(expanded, self.SPEC, cache),
                              combine([self.SPEC], want, None)[0])
        want = self.check(heavy[::-1], expanded, cache, memo)
        assert np.array_equal(cross_gram(heavy[::-1], expanded, self.SPEC, cache),
                              combine([self.SPEC], want, None)[0])
        assert cache.distance_vector(a, b).tobytes() == first.tobytes()

    def test_store_grows_and_keeps_every_cell(self, corpus):
        rng = random.Random(8)
        pool = [parse_smiles(s) for s in corpus]
        pool += [random_molecule(rng, max_heavy=8, expanded=rng.random() < 0.5)
                 for _ in range(150)]
        cache, memo = KernelCache(), PairMemo()
        train = pool[:8]
        capacities = []
        for step in range(8, len(pool), 16):
            self.check(train, train, cache, memo)
            candidates = pool[step:step + 16]
            self.check(train, candidates, cache, memo)
            train = train + candidates[::3]
            self.check(candidates, train, cache, memo)
            capacities.append(len(cache._known))
        assert len(set(capacities)) >= 3  # grown at least twice
        ids = cache._ids
        for (k1, k2), vec in memo.vectors.items():
            assert cache._store[_cell(ids[k1], ids[k2])].tobytes() == vec.tobytes()
        pairs = {frozenset(key) for key in memo.vectors if key[0] != key[1]}
        assert cache._known.sum() == len(ids) + len(pairs)


FAMILIES = [
    FingerprintTanimoto(),
    OTExpSum((0.5, 1.0, 0.02, 1.0)),
    SumKernel(alpha1=2.0, alpha2=3.0, ot=OTExpSum((0.3, 2.0, 0.01, 0.5))),
]


@pytest.fixture(scope="module")
def corpus_mols(corpus):
    return [expand(s) for s in corpus]


@pytest.fixture(scope="module")
def corpus_cache():
    return KernelCache()


def per_pair_reference(x, y, spec, cache):
    """Per-pair formulas the block computation replaced."""
    if isinstance(spec, FingerprintTanimoto):
        return tanimoto(cache.fingerprint(x, spec), cache.fingerprint(y, spec))
    if isinstance(spec, OTExpSum):
        return float(np.exp(-float(np.dot(spec.betas, cache.distance_vector(x, y)))))
    return spec.alpha1 * per_pair_reference(x, y, spec.fingerprint, cache) + (
        spec.alpha2 * per_pair_reference(x, y, spec.ot, cache)
    )


@pytest.mark.parametrize("spec", FAMILIES, ids=lambda s: type(s).__name__)
class TestOneValuePerPair:
    """A pair gets the same bits from every path that computes it."""

    def test_gram_is_symmetric_cross_gram(self, spec, corpus_mols, corpus_cache):
        g = gram(corpus_mols, spec, corpus_cache)
        assert np.array_equal(g, cross_gram(corpus_mols, corpus_mols, spec, corpus_cache))
        assert np.array_equal(g, g.T)

    def test_diagonal_is_gram_diagonal(self, spec, corpus_mols, corpus_cache):
        g = gram(corpus_mols, spec, corpus_cache)
        assert np.all(np.diag(g) == diagonal(spec))

    def test_blocks_are_gram_slices(self, spec, corpus_mols, corpus_cache):
        g = gram(corpus_mols, spec, corpus_cache)
        n = len(corpus_mols)
        for i, x in enumerate(corpus_mols):
            row = cross_gram([x], corpus_mols, spec, corpus_cache)
            assert np.array_equal(row[0], g[i]), i
            y = corpus_mols[n - 1 - i]
            assert cross_gram([x], [y], spec, corpus_cache)[0, 0] == g[i, n - 1 - i], i

    def test_fit_gram_is_gram(self, spec, corpus_mols, corpus_cache):
        ys = np.zeros(len(corpus_mols))
        ev = _FamilyEvaluator(corpus_mols, ys, spec, corpus_cache)
        fitted = [ev.spec_from(p) for p in ev.sample(np.random.default_rng(5), 20)]
        for spec_i, block in zip(fitted, combine(fitted, *ev.features)):
            assert np.array_equal(block, gram(corpus_mols, spec_i, corpus_cache))

    def test_matches_per_pair_formula(self, spec, corpus_mols, corpus_cache):
        g = gram(corpus_mols, spec, corpus_cache)
        want = np.array([
            [per_pair_reference(x, y, spec, corpus_cache) for y in corpus_mols]
            for x in corpus_mols
        ])
        assert np.all(np.abs(g - want) <= 1e-12 * np.abs(want))


def scalar_formula(spec, dist, k_fp):
    """The one-spec kernel formula with Python-float parameters."""
    if isinstance(spec, SumKernel):
        return spec.alpha1 * k_fp + spec.alpha2 * scalar_formula(spec.ot, dist, None)
    b0, b1, b2, b3 = spec.betas
    return np.exp(-(b0 * dist[0] + b1 * dist[1] + b2 * dist[2] + b3 * dist[3]))


class TestStackedCombine:
    """A stack of specs gets, member by member, the bits of one spec at a
    time and of the scalar formula."""

    @staticmethod
    def random_specs(family, count, rng):
        specs = []
        for _ in range(count):
            betas = tuple(np.exp(rng.uniform(np.log(1e-4), np.log(10.0), 4)).tolist())
            alpha1, alpha2 = rng.uniform(0.0, 10.0, 2).tolist()
            ot = OTExpSum(betas)
            specs.append(ot if family is OTExpSum else
                         SumKernel(alpha1=alpha1, alpha2=alpha2, ot=ot))
        return specs

    @pytest.mark.parametrize("duplicates", [False, True], ids=["corpus", "duplicates"])
    @pytest.mark.parametrize("family", [OTExpSum, SumKernel], ids=lambda f: f.__name__)
    def test_stack_is_one_spec_at_a_time(self, family, duplicates, corpus_mols,
                                         corpus_cache):
        mols = corpus_mols + corpus_mols[3:9] if duplicates else corpus_mols
        specs = self.random_specs(family, 24, np.random.default_rng(3))
        for cols in (mols, mols[::-3]):
            feats = features(mols, cols, specs[0], corpus_cache)
            stack = combine(specs, *feats)
            assert stack.shape == (len(specs), len(mols), len(cols))
            for spec, block in zip(specs, stack):
                one = combine([spec], *feats)[0]
                assert block.tobytes() == one.tobytes()
                assert one.tobytes() == scalar_formula(spec, *feats).tobytes()

    def test_diagonal_keeps_its_value(self):
        assert diagonal(FingerprintTanimoto()) == 1.0
        assert diagonal(OTExpSum((0.3, 2.0, 0.01, 0.5))) == 1.0
        assert diagonal(SumKernel(alpha1=2.5, alpha2=0.75)) == 3.25

    def test_one_family_per_stack(self, corpus_mols, corpus_cache):
        feats = features(corpus_mols, corpus_mols, SumKernel(), corpus_cache)
        with pytest.raises(TypeError, match="one family"):
            combine([SumKernel(), OTExpSum()], *feats)
