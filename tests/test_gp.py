import math
import random

import numpy as np
import pytest
from scipy.linalg import solve_triangular

import oracles
from conftest import random_molecule
from molbo import gp
from molbo.errors import CholeskyFailure, FitFailure
from molbo.gp import (
    GpHyperparams,
    build_posterior,
    fit,
    posterior,
    posterior_batch,
)
from molbo.kernel import (
    FingerprintTanimoto,
    KernelCache,
    OTExpSum,
    SumKernel,
    diagonal,
    gram,
    psd_project,
)
from molbo.molgraph import add_explicit_hydrogens, parse_smiles

BETAS = (0.5, 0.0, 0.05, 0.0)
SPEC = OTExpSum(BETAS)


def expand(text):
    return add_explicit_hydrogens(parse_smiles(text))


def distinct_molecules(rng, count, max_heavy=6):
    out = {}
    while len(out) < count:
        m = random_molecule(rng, max_heavy=max_heavy)
        out.setdefault(m.canonical_form, m)
    return list(out.values())


def hyper(noise=1e-4, mean=0.0, signal=1.0, spec=SPEC):
    return GpHyperparams(kernel_spec=spec, noise_var=noise, mean_const=mean,
                         signal_scale=signal)


class TestLogMarginalLikelihood:
    def test_single_point_closed_form(self):
        mol = expand("CCO")
        h = hyper(noise=1e-8, mean=0.5, signal=1.0)
        got = build_posterior([mol], [0.5], h).lml
        # unit kernel value, zero residual: -0.5 log(2 pi (1 + 1e-8))
        assert got == pytest.approx(-0.5 * math.log(2 * math.pi * (1 + 1e-8)), abs=1e-10)

    def test_matches_dense_oracle_small_n(self):
        rng = random.Random(0)
        nprng = np.random.default_rng(0)
        for n in (1, 2, 3):
            for _ in range(10):
                mols = distinct_molecules(rng, n)
                ys = nprng.normal(size=n)
                h = hyper(noise=0.05, mean=float(nprng.normal()), signal=1.3)
                cache = KernelCache()
                k_psd = psd_project(gram(mols, h.kernel_spec, cache))
                want = oracles.dense_lml(k_psd, ys, h.mean_const, h.noise_var,
                                         h.signal_scale)
                assert build_posterior(mols, ys, h, cache).lml == pytest.approx(
                    want, abs=1e-8
                )

    def test_quadratic_term_scaling(self):
        rng = random.Random(1)
        mols = distinct_molecules(rng, 4)
        ys = np.array([0.3, -0.2, 0.8, 0.1])
        h = hyper(noise=0.1, mean=0.0)
        n = len(mols)
        base = build_posterior(mols, ys, h).lml
        doubled = build_posterior(mols, 2 * ys, h).lml
        cache = KernelCache()
        k_psd = psd_project(gram(mols, h.kernel_spec, cache))
        logdet_part = oracles.dense_lml(k_psd, np.zeros(n), 0.0, h.noise_var,
                                        h.signal_scale)
        quad_base = base - logdet_part
        quad_doubled = doubled - logdet_part
        assert quad_doubled == pytest.approx(4 * quad_base, rel=1e-9)

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError, match="equally many"):
            build_posterior([expand("C")], [1.0, 2.0], hyper())
        with pytest.raises(ValueError, match="equally many"):
            build_posterior([], [], hyper())

    @pytest.mark.parametrize("ys", [np.zeros(5), np.zeros(7), np.zeros((6, 1))],
                             ids=["short", "long", "column"])
    def test_targets_must_be_one_per_molecule(self, ys):
        # checked before any kernel work, not left to fail inside LAPACK
        mols = distinct_molecules(random.Random(8), 6)
        with pytest.raises(ValueError, match="equally many"):
            fit(mols, ys, OTExpSum(), np.random.default_rng(42))
        with pytest.raises(ValueError, match="equally many"):
            build_posterior(mols, ys, hyper())


class TestPosterior:
    def test_interpolates_training_points(self):
        rng = random.Random(3)
        mols = distinct_molecules(rng, 8)
        ys = np.linspace(-1, 1, len(mols))
        gp = build_posterior(mols, ys, hyper(noise=1e-8))
        for m, y in zip(mols, ys):
            mu, var = posterior(gp, m)
            assert abs(mu - y) <= 1e-3
            assert var <= 1e-3

    def test_prior_reversion_far_away(self):
        # huge betas drive the kernel to ~0 for any distinct pair
        spec = OTExpSum((10.0, 10.0, 10.0, 10.0))
        mols = [expand(s) for s in ("CCCCCCCC", "NCCN", "OCCO")]
        ys = np.array([5.0, 6.0, 7.0])
        h = hyper(noise=1e-6, mean=1.25, signal=2.0, spec=spec)
        gp = build_posterior(mols, ys, h)
        mu, var = posterior(gp, expand("S=C=S"))
        assert mu == pytest.approx(1.25, abs=1e-3)
        assert var == pytest.approx(4.0 * diagonal(spec), abs=1e-3)

    def test_variance_nonnegative_everywhere(self):
        rng = random.Random(4)
        mols = distinct_molecules(rng, 6)
        ys = np.arange(6.0)
        gp = build_posterior(mols, ys, hyper(noise=1e-8, signal=3.0))
        queries = [random_molecule(rng) for _ in range(200)]
        _, var = posterior_batch(gp, queries)
        assert np.all(var >= 0.0)

    def test_variance_bounded_by_prior(self):
        rng = random.Random(5)
        mols = distinct_molecules(rng, 5)
        ys = np.zeros(5)
        h = hyper(noise=0.01, signal=2.0)
        gp = build_posterior(mols, ys, h)
        for _ in range(40):
            q = random_molecule(rng)
            _, var = posterior(gp, q)
            prior = h.signal_scale**2 * diagonal(h.kernel_spec)
            assert var <= prior + 1e-8

    def test_adding_a_point_never_increases_variance(self):
        rng = random.Random(6)
        nprng = np.random.default_rng(6)
        for _ in range(25):
            mols = distinct_molecules(rng, 6)
            train, extra = mols[:4], mols[4]
            query = mols[5]
            ys = nprng.normal(size=4)
            h = hyper(noise=0.01)
            gp_small = build_posterior(train, ys, h)
            gp_big = build_posterior(
                train + [extra], np.append(ys, nprng.normal()), h
            )
            _, var_small = posterior(gp_small, query)
            _, var_big = posterior(gp_big, query)
            assert var_big <= var_small + 1e-6


class TestFit:
    def test_deterministic_given_seed(self):
        rng = random.Random(8)
        mols = distinct_molecules(rng, 6)
        ys = np.linspace(0, 1, 6)
        h1 = fit(mols, ys, OTExpSum(), np.random.default_rng(42))
        h2 = fit(mols, ys, OTExpSum(), np.random.default_rng(42))
        assert h1 == h2

    def test_constant_targets_fit_mean(self):
        rng = random.Random(9)
        mols = distinct_molecules(rng, 5)
        ys = np.full(5, 2.5)
        h = fit(mols, ys, OTExpSum(), np.random.default_rng(0))
        assert abs(h.mean_const - 2.5) <= 0.1

    def test_reaches_lml_of_generating_params(self):
        # self-consistency: the fitted optimum is at least as good (up to
        # a small slack) as the parameters that generated the data
        rng = random.Random(10)
        nprng = np.random.default_rng(10)
        mols = distinct_molecules(rng, 10)
        true = hyper(noise=0.01, mean=0.0, signal=1.0)
        cache = KernelCache()
        k = psd_project(gram(mols, true.kernel_spec, cache))
        cov = true.signal_scale**2 * k + true.noise_var * np.eye(len(mols))
        ys = np.linalg.cholesky(cov) @ nprng.standard_normal(len(mols))
        fitted = fit(mols, ys, OTExpSum(), np.random.default_rng(1), cache)
        lml_true = build_posterior(mols, ys, true, cache).lml
        lml_fit = build_posterior(mols, ys, fitted, cache).lml
        assert lml_fit >= lml_true - 0.1

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            fit([expand("C"), expand("CC")], [0.0, 1.0], OTExpSum(),
                np.random.default_rng(0))

    def test_cholesky_failure_raises(self):
        with pytest.raises(CholeskyFailure):
            gp._cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))


class TestPosteriorJitter:
    """``build_posterior`` raises the noise tenfold per failed Cholesky,
    up to the top of ``NOISE_RANGE``."""

    @pytest.fixture
    def shifted(self, monkeypatch):
        """Make ``psd_project`` return ``-shift * I``, so the covariance
        factorizes only once the noise exceeds ``shift``."""
        shift = []
        monkeypatch.setattr(gp, "psd_project",
                            lambda values: -shift[0] * np.eye(values.shape[-1]))
        return shift

    def test_escalated_noise_is_recorded_and_used(self, shifted):
        mols = distinct_molecules(random.Random(8), 5)
        ys = np.linspace(0, 1, 5)
        shifted.append(0.05)
        post = build_posterior(mols, ys, hyper(noise=1e-4))
        assert post.hyper == hyper(noise=1e-4 * 10.0 * 10.0 * 10.0)
        direct = build_posterior(mols, ys, post.hyper)
        assert direct.hyper == post.hyper and direct.lml == post.lml
        assert np.array_equal(direct.chol_factor, post.chol_factor)
        assert np.array_equal(direct.alpha_vec, post.alpha_vec)

    def test_failure_at_the_cap_raises(self, shifted, monkeypatch):
        tried = []
        factor = gp._cholesky
        monkeypatch.setattr(gp, "_cholesky",
                            lambda mat: tried.append(mat[0, 0]) or factor(mat))
        shifted.append(100.0)
        with pytest.raises(CholeskyFailure):
            build_posterior(distinct_molecules(random.Random(8), 5), np.zeros(5),
                            hyper(noise=3e-4))
        # 3e-4 .. 3.0, then 30 capped to the top of the range
        assert len(tried) == 6 and tried[-1] == -100.0 + gp.NOISE_RANGE[1]


class TestProjectionsPerFit:
    """``fit`` projects once per distinct kernel spec; the hyperparameters
    it returns are pinned from the fit that projected every candidate."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"projections": 0, "candidates": 0}
        project, lml_batch = gp.psd_project, gp._FamilyEvaluator.lml_batch

        def counting_project(*args, **kwargs):
            counts["projections"] += 1
            return project(*args, **kwargs)

        def counting_lml_batch(self, candidates):
            counts["candidates"] += len(candidates)
            return lml_batch(self, candidates)

        monkeypatch.setattr(gp, "psd_project", counting_project)
        monkeypatch.setattr(gp._FamilyEvaluator, "lml_batch", counting_lml_batch)
        return counts

    @staticmethod
    def fit_six(family):
        mols = distinct_molecules(random.Random(8), 6)
        return fit(mols, np.linspace(0, 1, 6), family, np.random.default_rng(42))

    @staticmethod
    def assert_pinned(h, spec, noise_var, mean_const, signal_scale):
        # the searched values are drawn and stepped exactly; the profiled
        # mean passes through two triangular solves
        assert (h.kernel_spec, h.noise_var, h.signal_scale) == \
            (spec, noise_var, signal_scale)
        assert h.mean_const == pytest.approx(mean_const, rel=1e-12)

    def test_fingerprint_fit_projects_once(self, counts):
        h = self.fit_six(FingerprintTanimoto())
        assert counts["projections"] == 1
        assert counts["candidates"] > 1
        self.assert_pinned(h, FingerprintTanimoto(), 0.10126315950706156,
                           0.49999576481800656, 0.00436072269340382)

    def test_ot_fit_skips_projections(self, counts):
        h = self.fit_six(OTExpSum())
        assert counts["projections"] < counts["candidates"]
        spec = OTExpSum((0.027120122956401073, 0.028414169822439567,
                         4.888012128896659, 0.07221713612899108))
        self.assert_pinned(h, spec, 0.11081971916484543, 0.5000000000000001,
                           0.010584096155025492)

    @pytest.mark.parametrize("family", [OTExpSum(), SumKernel()],
                             ids=lambda f: type(f).__name__)
    def test_each_spec_projected_once(self, monkeypatch, family):
        """A refinement trial that returns to a kernel slice scored earlier
        in the fit, after other slices, reuses its projected Gram."""
        combined, projected, scored = [], [], []
        combine, project = gp.combine, gp.psd_project
        lml_batch = gp._FamilyEvaluator.lml_batch

        def recording_combine(family, params, *feats):
            combined.extend(map(tuple, params.tolist()))
            return combine(family, params, *feats)

        def counting_project(values, *args, **kwargs):
            projected.append(len(values))
            return project(values, *args, **kwargs)

        def recording_lml_batch(self, rows):
            scored.extend(tuple(row[2:]) for row in rows)
            return lml_batch(self, rows)

        monkeypatch.setattr(gp, "combine", recording_combine)
        monkeypatch.setattr(gp, "psd_project", counting_project)
        monkeypatch.setattr(gp._FamilyEvaluator, "lml_batch", recording_lml_batch)
        self.fit_six(family)
        assert len(combined) == len(set(combined)) == len(set(scored)) == sum(projected)
        assert set(combined) == set(scored)

    @pytest.mark.parametrize("family", [FingerprintTanimoto(), OTExpSum(), SumKernel()],
                             ids=lambda f: type(f).__name__)
    def test_kernel_specs_built_only_for_the_result(self, monkeypatch, family):
        built = []
        for spec_type in (OTExpSum, SumKernel):
            check = spec_type.__post_init__

            def counting(spec, check=check):
                built.append(type(spec))
                check(spec)

            monkeypatch.setattr(spec_type, "__post_init__", counting)
        h = self.fit_six(family)
        want = {FingerprintTanimoto: [], OTExpSum: [OTExpSum],
                SumKernel: [OTExpSum, SumKernel]}[type(family)]
        assert built == want
        assert type(h.kernel_spec) is type(family)


@pytest.mark.parametrize(
    "family", [FingerprintTanimoto(), OTExpSum(), SumKernel()],
    ids=lambda f: type(f).__name__,
)
def test_batched_draw_is_scalar_draws(family):
    """One ``rng.uniform`` call over the batch gives the floats and the
    generator state of one scalar draw per value."""
    mols = distinct_molecules(random.Random(5), 4)
    ev = gp._FamilyEvaluator(mols, np.zeros(4), family, KernelCache())
    for seed in range(60):
        batched, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
        got = ev.sample(batched, gp.N_SEARCH_SAMPLES)
        want = oracles.sample_one_at_a_time(ev.names, scalar, gp.N_SEARCH_SAMPLES)
        assert all(type(v) is float for row in got for v in row)
        bits = [[v.hex() for v in row] for row in got]
        assert bits == [[c[name].hex() for name in ev.names] for c in want]
        assert batched.bit_generator.state == scalar.bit_generator.state


class TestStackedEvaluation:
    """``lml_batch`` scores a stack of candidates with the bits that one
    candidate at a time gets, and skips only the candidates whose
    covariance does not factorize."""

    @staticmethod
    def factory(family, n=9, seed=12):
        mols = distinct_molecules(random.Random(seed), n)
        mols += mols[:2]  # duplicates put Gram eigenvalues below the floor
        ys = np.random.default_rng(seed).normal(size=len(mols))
        return lambda: gp._FamilyEvaluator(mols, ys, family, KernelCache())

    @pytest.mark.parametrize(
        "family", [FingerprintTanimoto(), OTExpSum(), SumKernel()],
        ids=lambda f: type(f).__name__,
    )
    def test_stack_equals_one_at_a_time(self, family):
        make = self.factory(family)
        stacked, single = make(), make()
        rng = np.random.default_rng(7)
        candidates = stacked.sample(rng, gp.N_SEARCH_SAMPLES)
        got = stacked.lml_batch(candidates)
        want = [single.lml_batch([c])[0] for c in candidates]
        assert all(r is not None for r in want)
        assert all(g == w for g, w in zip(got, want))

    def test_solve_matches_scipy(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            n = int(rng.integers(1, 16))
            a = rng.normal(size=(n, n))
            chol = np.linalg.cholesky(a @ a.T + 0.1 * np.eye(n))
            for rhs in (rng.normal(size=n), rng.normal(size=(n, 5))):
                assert np.array_equal(
                    gp._solve(chol, rhs), solve_triangular(chol, rhs, lower=True)
                )
                assert np.array_equal(
                    gp._solve(chol, rhs, transpose=True),
                    solve_triangular(chol.T, rhs, lower=False),
                )

    def test_half_logdet_stack_matches_one_factor(self):
        rng = np.random.default_rng(10)
        for _ in range(500):
            k, n = (int(v) for v in rng.integers(1, 20, size=2))
            a = rng.normal(size=(k, n, n))
            chols = np.linalg.cholesky(a @ a.transpose(0, 2, 1) + 0.1 * np.eye(n))
            want = [float(np.log(c.diagonal()).sum()) for c in chols]
            assert gp._half_logdet(chols).tolist() == want
            assert [float(gp._half_logdet(c)) for c in chols] == want

    @pytest.fixture
    def broken(self, monkeypatch):
        """Make ``psd_project`` return ``-1e9 * I``, negative definite at
        every searched scale, for the stack members listed."""
        members = []
        project = gp.psd_project

        def breaking(values, *args, **kwargs):
            out = project(values, *args, **kwargs)
            for i in members:
                out[i] = -1e9 * np.eye(out.shape[-1])
            return out

        monkeypatch.setattr(gp, "psd_project", breaking)
        return members

    def test_non_pd_candidate_skipped_others_kept(self, broken):
        make = self.factory(OTExpSum())
        rng = np.random.default_rng(9)
        reference = make()
        candidates = reference.sample(rng, 8)
        want = [reference.lml_batch([c])[0] for c in candidates]
        broken.append(3)
        got = make().lml_batch(candidates)
        assert got[3] is None
        assert got[:3] + got[4:] == want[:3] + want[4:]

    def test_one_row_batch_matches_its_stack_member(self, broken):
        """A batch of one row, which skips ``np.stack``, scores a failing
        row as None and a good one with the bits it gets in a stack."""
        make = self.factory(SumKernel())
        rows = make().sample(np.random.default_rng(4), 6)
        stacked = make().lml_batch(rows)
        assert all(r is not None for r in stacked)
        single = make()
        assert [single.lml_batch([row])[0] for row in rows] == stacked
        broken.append(0)
        assert make().lml_batch([rows[2]]) == [None]

    def test_every_candidate_failing_raises(self, broken):
        broken.extend(range(gp.N_SEARCH_SAMPLES))
        mols = distinct_molecules(random.Random(8), 6)
        with pytest.raises(FitFailure):
            fit(mols, np.linspace(0, 1, 6), OTExpSum(), np.random.default_rng(42))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_target_rejected(self, bad):
        mols = distinct_molecules(random.Random(8), 6)
        ys = np.linspace(0, 1, 6)
        ys[2] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            fit(mols, ys, OTExpSum(), np.random.default_rng(42))
        with pytest.raises(ValueError, match="infs or NaNs"):
            build_posterior(mols, ys, hyper())


class TestFitMatchesDictReference:
    """``fit`` returns, bit for bit, what the former fit that turned every
    candidate dict into a kernel spec returns (``oracles.fit_by_dicts``),
    and leaves the generator in the same state."""

    FAMILIES = [FingerprintTanimoto(), OTExpSum(), SumKernel()]

    @pytest.fixture
    def batches(self, monkeypatch):
        """The results of every ``lml_batch`` call of the latest fit."""
        batches = []
        lml_batch = gp._FamilyEvaluator.lml_batch

        def recording(self, rows):
            results = lml_batch(self, rows)
            batches.append(results)
            return results

        monkeypatch.setattr(gp._FamilyEvaluator, "lml_batch", recording)
        return batches

    @staticmethod
    def check(family, seed, batches):
        rng = random.Random(seed)
        n = rng.randint(3, 12)
        mols = distinct_molecules(rng, n)
        ys = np.random.default_rng(seed).normal(size=n)
        cache = KernelCache()
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        batches.clear()
        h = fit(mols, ys, family, got_rng, cache)
        want = oracles.fit_by_dicts(mols, ys, family, want_rng, cache)
        assert (h.kernel_spec, h.noise_var, h.signal_scale, h.mean_const) == want
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        return list(batches)

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: type(f).__name__)
    def test_random_training_sets(self, family, batches):
        names = {FingerprintTanimoto: 2, OTExpSum: 6, SumKernel: 8}[type(family)]
        trials = [len(self.check(family, seed, batches)) - 1 for seed in range(8)]
        # a trial is skipped only where the best value sits at a range bound
        assert min(trials) < 2 * gp.N_REFINE_PASSES * names

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: type(f).__name__)
    def test_failing_candidates(self, family, batches, monkeypatch):
        """Gram matrices shifted by ``-0.5 I`` leave the covariance of every
        candidate with too little noise for its signal indefinite."""
        project = gp.psd_project
        monkeypatch.setattr(gp, "psd_project", lambda values, *args, **kwargs: (
            project(values, *args, **kwargs) - 0.5 * np.eye(values.shape[-1])))
        fits = [self.check(family, seed, batches) for seed in range(6)]
        assert any(r is None for search, *_ in fits for r in search)
        if isinstance(family, FingerprintTanimoto):  # and some trials fail
            assert any(r == [None] for _, *trials in fits for r in trials)
