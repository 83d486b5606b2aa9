"""Acquisition functions and the adaptive acquisition ensemble.

EI, UCB and a top-two variant of EI (TTEI) score candidates from the GP
posterior.  The optimizer samples one acquisition per iteration from an
adaptive multiplicative-weights distribution: the acquisition used has
its weight multiplied by ``exp(eta)`` whenever the iteration improved
the incumbent, and weights are renormalized after every update.  EI
(and TTEI through it) imports ``scipy.special.ndtr`` at its first call;
importing this module loads numpy alone.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

DEFAULT_TT_EPSILON = 0.3
ENSEMBLE_ETA = 0.5

#: ``scipy.special.ndtr``, imported by the first ``ei``.
_ndtr = None


class AcquisitionKind(enum.Enum):
    EI = "EI"
    UCB = "UCB"
    TTEI = "TTEI"


def ucb_beta_schedule(t: int) -> float:
    """2 log(t^2 pi^2 / 6), clamped below at 0.5."""
    if t < 1:
        raise ValueError("iteration index starts at 1")
    return max(0.5, 2.0 * math.log(t * t * math.pi * math.pi / 6.0))


def ei(mu, sigma, best):
    """Expected improvement over ``best``; exact max(0, mu - best) at
    sigma = 0.  Accepts scalars or arrays."""
    global _ndtr
    if _ndtr is None:
        from scipy.special import ndtr as _ndtr
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if np.any(sigma < 0):
        raise ValueError("sigma must be nonnegative")
    safe = np.where(sigma > 0, sigma, 1.0)
    z = (mu - best) / safe
    pdf = _INV_SQRT_2PI * np.exp(-0.5 * z * z)
    value = (mu - best) * _ndtr(z) + safe * pdf
    value = np.where(sigma > 0, value, np.maximum(0.0, mu - best))
    return float(value) if value.ndim == 0 else value


def ucb(mu, sigma, beta_t):
    """Upper confidence bound mu + sqrt(beta_t) * sigma."""
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if np.any(sigma < 0):
        raise ValueError("sigma must be nonnegative")
    if beta_t <= 0:
        raise ValueError("beta_t must be positive")
    value = mu + math.sqrt(beta_t) * sigma
    return float(value) if value.ndim == 0 else value


def ttei(mu, sigma, best, epsilon, rng: np.random.Generator) -> np.ndarray:
    """Top-two expected improvement of candidates with posterior means
    ``mu`` and standard deviations ``sigma`` (scalars or arrays).

    With probability ``1 - epsilon`` this is plain EI against ``best``;
    otherwise the anchor is re-based at the posterior mean of the EI
    argmax candidate (if higher), drawn once per call.
    """
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    if not mu.size:
        raise ValueError("ttei needs at least one candidate")
    base = np.atleast_1d(ei(mu, sigma, best))
    if rng.random() >= epsilon:
        return base
    anchor = max(best, float(mu[int(np.argmax(base))]))
    return np.atleast_1d(ei(mu, sigma, anchor))


@dataclass
class EnsembleWeights:
    """Adaptive multiplicative weights over {EI, UCB, TTEI}.

    Weights start at one each; ``update`` multiplies the used
    acquisition's weight by ``exp(eta * reward)`` (reward 1 on incumbent
    improvement, else 0) and renormalizes.
    """

    weights: np.ndarray = field(default_factory=lambda: np.ones(3))
    eta: float = ENSEMBLE_ETA

    _KINDS = (AcquisitionKind.EI, AcquisitionKind.UCB, AcquisitionKind.TTEI)

    def probabilities(self) -> np.ndarray:
        return self.weights / self.weights.sum()

    def update(self, kind: AcquisitionKind, improved: bool):
        reward = 1.0 if improved else 0.0
        self.weights[self._KINDS.index(kind)] *= math.exp(self.eta * reward)
        self.weights = self.weights / self.weights.sum()


def ensemble_pick(weights: EnsembleWeights, rng: np.random.Generator) -> AcquisitionKind:
    """Sample the acquisition to use this iteration."""
    idx = int(rng.choice(3, p=weights.probabilities()))
    return EnsembleWeights._KINDS[idx]
