import math
import random

import numpy as np
import pytest
from scipy.linalg import solve_triangular

import oracles
from conftest import random_molecule
from molbo import gp
from molbo.errors import FitFailure
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
        from molbo.errors import CholeskyFailure
        from molbo.gp import _cholesky

        with pytest.raises(CholeskyFailure):
            _cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))


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
        bits = [[(k, v.hex()) for k, v in c.items()] for c in got]
        assert bits == [[(k, v.hex()) for k, v in c.items()] for c in want]
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
