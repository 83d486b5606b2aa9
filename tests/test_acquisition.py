import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from molbo.acquisition import (
    AcquisitionKind,
    EnsembleWeights,
    ei,
    ensemble_pick,
    ttei,
    ucb,
    ucb_beta_schedule,
)


class TestEi:
    def test_zero_sigma_at_best(self):
        assert ei(1.0, 0.0, 1.0) == 0.0

    def test_zero_sigma_above_best(self):
        assert ei(2.0, 0.0, 1.5) == 0.5

    def test_symmetric_gaussian_value(self):
        assert ei(0.0, 1.0, 0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-12)

    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            mu = float(rng.uniform(-2, 2))
            sigma = float(rng.uniform(0.1, 3.0))
            best = mu + sigma * float(rng.uniform(-3, 3))
            estimate, se = oracles.mc_expected_improvement(mu, sigma, best, 200_000, rng)
            assert abs(ei(mu, sigma, best) - estimate) <= 3 * se + 1e-12

    def test_nonnegative_and_monotone_in_mu(self):
        mus = np.linspace(-3, 3, 41)
        values = ei(mus, np.ones_like(mus), 0.5)
        assert np.all(values >= 0.0)
        assert np.all(np.diff(values) >= 0.0)

    def test_monotone_in_sigma_below_best(self):
        sigmas = np.linspace(0.0, 4.0, 30)
        values = ei(np.full_like(sigmas, -1.0), sigmas, 0.0)
        assert np.all(np.diff(values) >= -1e-12)

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            ei(0.0, -1.0, 0.0)


class TestUcb:
    def test_zero_sigma(self):
        assert ucb(1.5, 0.0, 4.0) == 1.5

    def test_known_value(self):
        assert ucb(0.0, 1.0, 4.0) == 2.0

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(
        mu=st.floats(-5, 5),
        s1=st.floats(0, 3),
        s2=st.floats(0, 3),
        beta=st.floats(0.1, 10),
    )
    def test_monotone_in_sigma(self, mu, s1, s2, beta):
        lo, hi = sorted((s1, s2))
        assert ucb(mu, lo, beta) <= ucb(mu, hi, beta)

    def test_beta_schedule(self):
        assert ucb_beta_schedule(1) == pytest.approx(
            max(0.5, 2 * math.log(math.pi**2 / 6)), abs=1e-12
        )
        assert ucb_beta_schedule(10) > ucb_beta_schedule(2)
        with pytest.raises(ValueError):
            ucb_beta_schedule(0)


class TestTtei:
    MU, SIGMA = np.array([0.5, 1.5, -0.2]), np.array([1.0, 0.3, 2.0])

    def test_epsilon_zero_is_ei(self):
        rng = np.random.default_rng(0)
        scores = ttei(self.MU, self.SIGMA, 1.0, 0.0, rng)
        want = [ei(m, s, 1.0) for m, s in zip(self.MU, self.SIGMA)]
        assert np.allclose(scores, want)
        assert np.array_equal(scores, ei(self.MU, self.SIGMA, 1.0))

    def test_single_candidate_reanchored(self):
        rng = np.random.default_rng(0)
        scores = ttei(2.0, 1.0, 0.5, 1.0, rng)  # epsilon 1 forces re-anchor
        assert scores[0] == pytest.approx(ei(2.0, 1.0, 2.0), abs=1e-12)

    def test_reanchor_uses_incumbent_when_higher(self):
        rng = np.random.default_rng(0)
        scores = ttei([1.0], [1.0], 5.0, 1.0, rng)
        assert scores[0] == pytest.approx(ei(1.0, 1.0, 5.0), abs=1e-12)

    def test_deterministic_given_seed(self):
        a = ttei(self.MU[:2], self.SIGMA[:2], 0.4, 0.3, np.random.default_rng(7))
        b = ttei(self.MU[:2], self.SIGMA[:2], 0.4, 0.3, np.random.default_rng(7))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("epsilon", [0.0, 0.3, 1.0])
    def test_one_draw_per_call(self, epsilon):
        rng, ref = np.random.default_rng(3), np.random.default_rng(3)
        for _ in range(5):
            ttei(self.MU, self.SIGMA, 0.4, epsilon, rng)
            ref.random()
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ttei([], [], 0.0, 0.3, np.random.default_rng(0))


class TestEnsemble:
    def test_initial_probabilities_uniform(self):
        weights = EnsembleWeights()
        assert np.allclose(weights.probabilities(), 1 / 3)

    def test_reward_ratio_closed_form(self):
        weights = EnsembleWeights()
        for _ in range(20):
            weights.update(AcquisitionKind.EI, improved=True)
        p = weights.probabilities()
        want = math.exp(10) / (math.exp(10) + 2)
        assert p[0] == pytest.approx(want, rel=1e-12)
        assert p[0] > 0.9

    def test_weights_sum_to_one_after_updates(self):
        rng = np.random.default_rng(0)
        weights = EnsembleWeights()
        kinds = list(AcquisitionKind)
        for k in range(100):
            weights.update(kinds[k % 3], improved=bool(rng.integers(2)))
            assert abs(weights.weights.sum() - 1.0) <= 1e-12
            assert np.all(weights.probabilities() > 0)

    def test_pick_deterministic_given_seed(self):
        weights = EnsembleWeights()
        seq1 = [ensemble_pick(weights, np.random.default_rng(5)) for _ in range(10)]
        seq2 = [ensemble_pick(weights, np.random.default_rng(5)) for _ in range(10)]
        assert seq1 == seq2

    def test_no_reward_keeps_distribution(self):
        weights = EnsembleWeights()
        weights.update(AcquisitionKind.UCB, improved=False)
        assert np.allclose(weights.probabilities(), 1 / 3)

