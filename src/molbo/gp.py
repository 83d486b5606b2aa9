"""Gaussian-process regression over molecules.

The covariance is ``signal_scale**2 * PSD(K) + noise_var * I`` where K is
the raw kernel Gram over training molecules.  K is PSD-projected once per
distinct kernel spec in a fit and once in ``build_posterior``.
Cross-covariances with query molecules use raw kernel values scaled by
``signal_scale**2``; the prior variance of every query is
``signal_scale**2`` times the kernel's closed-form ``diagonal``.  The mean is a fitted constant.  Hyperparameters are
chosen by maximizing the log marginal likelihood with a seeded random
search followed by multiplicative coordinate refinement; the mean
constant is profiled out analytically (its generalized-least-squares
optimum given the other parameters).  ``build_posterior`` reports the
log marginal likelihood of its hyperparameters from the same Cholesky
factor that scores queries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import solve_triangular

from .errors import CholeskyFailure, FitFailure
from .kernel import (
    ALPHA_RANGE,
    BETA_RANGE,
    FingerprintTanimoto,
    KernelCache,
    KernelSpec,
    OTExpSum,
    SumKernel,
    combine,
    cross_gram,
    diagonal,
    features,
    gram,
    psd_project,
)
from .molgraph import Molecule

NOISE_RANGE = (1e-8, 10.0)
SIGNAL_RANGE = (1e-3, 1e3)

N_SEARCH_SAMPLES = 64
N_REFINE_PASSES = 3
REFINE_FACTOR = 1.5

_LOG_2PI = math.log(2.0 * math.pi)

#: Search range and scale of every fitted hyperparameter: (lo, hi, log-uniform).
_PARAM_RANGES = {
    "noise_var": (*NOISE_RANGE, True),
    "signal_scale": (*SIGNAL_RANGE, True),
    "alpha1": (*ALPHA_RANGE, False),
    "alpha2": (*ALPHA_RANGE, False),
    **{f"beta{i}": (*BETA_RANGE, True) for i in range(4)},
}


@dataclass(frozen=True)
class GpHyperparams:
    kernel_spec: KernelSpec
    noise_var: float
    mean_const: float
    signal_scale: float

    def __post_init__(self):
        if not NOISE_RANGE[0] <= self.noise_var <= NOISE_RANGE[1]:
            raise ValueError(f"noise_var outside {NOISE_RANGE}")
        if not SIGNAL_RANGE[0] <= self.signal_scale <= SIGNAL_RANGE[1]:
            raise ValueError(f"signal_scale outside {SIGNAL_RANGE}")


@dataclass
class GpPosterior:
    """Fitted GP state: Cholesky factor of the training covariance, the
    dual weights solving it against the centered targets, and the log
    marginal likelihood of the targets under ``hyper``."""

    train_molecules: list[Molecule]
    hyper: GpHyperparams
    chol_factor: np.ndarray
    alpha_vec: np.ndarray
    lml: float
    cache: KernelCache


def _covariance(k_psd: np.ndarray, noise_var: float, signal_scale: float) -> np.ndarray:
    n = k_psd.shape[0]
    return signal_scale**2 * k_psd + noise_var * np.eye(n)


def _cholesky(mat: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError as exc:
        raise CholeskyFailure(
            "covariance not positive definite; fit skips this hyperparameter "
            "candidate and build_posterior raises"
        ) from exc


def _lml_terms(
    k_psd: np.ndarray, ys: np.ndarray, noise_var: float, signal_scale: float
) -> tuple[np.ndarray, np.ndarray, float]:
    """Cholesky factor, whitened targets and log-determinant half-term."""
    ktilde = _covariance(k_psd, noise_var, signal_scale)
    chol = _cholesky(ktilde)
    white = solve_triangular(chol, ys, lower=True)
    half_logdet = float(np.sum(np.log(np.diag(chol))))
    return chol, white, half_logdet


def _lml(white: np.ndarray, half_logdet: float) -> float:
    """Gaussian log evidence from the whitened residuals and the
    log-determinant half-term of their covariance."""
    n = white.shape[0]
    return float(-0.5 * white @ white - half_logdet - 0.5 * n * _LOG_2PI)


# ---------------------------------------------------------------------------
# Hyperparameter fitting
# ---------------------------------------------------------------------------


class _FamilyEvaluator:
    """LML evaluation for one training set with precomputed structure.

    The kernel ``features`` of the training set do not depend on the
    searched hyperparameters, so they are gathered once.  The projected
    Gram of the last kernel spec is kept, so a candidate that moves only
    ``noise_var`` or ``signal_scale`` (every fingerprint candidate) costs
    one Cholesky factorization; any other costs one ``combine`` and one
    eigendecomposition more.
    """

    def __init__(self, mols, ys, family: KernelSpec, cache: KernelCache):
        self.ys = np.asarray(ys, dtype=float)
        self.family = family
        self.n = len(mols)
        self.features = features(mols, mols, family, cache)
        self._projected: tuple[KernelSpec, np.ndarray] | None = None

    def param_names(self) -> list[str]:
        names = ["noise_var", "signal_scale"]
        if isinstance(self.family, SumKernel):
            names += ["alpha1", "alpha2"]
        if isinstance(self.family, (OTExpSum, SumKernel)):
            names += [f"beta{i}" for i in range(4)]
        return names

    def sample(self, rng: np.random.Generator) -> dict[str, float]:
        params = {}
        for name in self.param_names():
            lo, hi, log_scale = _PARAM_RANGES[name]
            if log_scale:
                params[name] = float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
            else:
                params[name] = float(rng.uniform(lo, hi))
        return params

    @staticmethod
    def clamp(name: str, value: float) -> float:
        lo, hi, _ = _PARAM_RANGES[name]
        return min(max(value, lo), hi)

    def spec_from(self, params: dict[str, float]) -> KernelSpec:
        if isinstance(self.family, FingerprintTanimoto):
            return self.family
        ot = OTExpSum(tuple(params[f"beta{i}"] for i in range(4)))
        if isinstance(self.family, SumKernel):
            return replace(
                self.family, alpha1=params["alpha1"], alpha2=params["alpha2"], ot=ot
            )
        return ot

    def lml(self, params: dict[str, float]) -> tuple[float, float]:
        """(log marginal likelihood, profiled mean constant)."""
        spec = self.spec_from(params)
        if self._projected is None or self._projected[0] != spec:
            self._projected = (spec, psd_project(combine(spec, *self.features)))
        k_psd = self._projected[1]
        chol, wy, half_logdet = _lml_terms(
            k_psd, self.ys, params["noise_var"], params["signal_scale"]
        )
        w1 = solve_triangular(chol, np.ones(self.n), lower=True)
        mean = float(w1 @ wy / (w1 @ w1))
        return _lml(wy - mean * w1, half_logdet), mean


def fit(
    mols: list[Molecule],
    ys,
    spec_family: KernelSpec,
    rng: np.random.Generator,
    cache: KernelCache | None = None,
) -> GpHyperparams:
    """Maximize the marginal likelihood over the family's hyperparameters.

    Seeded random search (64 draws from the documented ranges) followed
    by three greedy coordinate passes with multiplicative steps of 1.5.
    Deterministic given the generator state.
    """
    if len(mols) < 3:
        raise ValueError("fit needs at least three observations")
    if cache is None:
        cache = KernelCache()
    ev = _FamilyEvaluator(mols, ys, spec_family, cache)

    best_params = None
    best_value = -np.inf
    best_mean = 0.0
    for _ in range(N_SEARCH_SAMPLES):
        params = ev.sample(rng)
        try:
            value, mean = ev.lml(params)
        except CholeskyFailure:
            continue
        if value > best_value:
            best_params, best_value, best_mean = params, value, mean
    if best_params is None:
        raise FitFailure("all hyperparameter candidates failed to factorize")

    for _ in range(N_REFINE_PASSES):
        for name in ev.param_names():
            for factor in (REFINE_FACTOR, 1.0 / REFINE_FACTOR):
                trial = dict(best_params)
                trial[name] = ev.clamp(name, trial[name] * factor)
                if trial[name] == best_params[name]:
                    continue
                try:
                    value, mean = ev.lml(trial)
                except CholeskyFailure:
                    continue
                if value > best_value:
                    best_params, best_value, best_mean = trial, value, mean

    return GpHyperparams(
        kernel_spec=ev.spec_from(best_params),
        noise_var=best_params["noise_var"],
        mean_const=best_mean,
        signal_scale=best_params["signal_scale"],
    )


# ---------------------------------------------------------------------------
# Posterior
# ---------------------------------------------------------------------------


def build_posterior(
    mols: list[Molecule],
    ys,
    hyper: GpHyperparams,
    cache: KernelCache | None = None,
) -> GpPosterior:
    """Factorize the training covariance, precompute dual weights and
    compute the log marginal likelihood of ``ys`` under ``hyper``."""
    ys = np.asarray(ys, dtype=float)
    if len(mols) != ys.shape[0] or ys.shape[0] < 1:
        raise ValueError("need equally many molecules and values (at least one)")
    if cache is None:
        cache = KernelCache()
    k_psd = psd_project(gram(mols, hyper.kernel_spec, cache))
    chol, white, half_logdet = _lml_terms(
        k_psd, ys - hyper.mean_const, hyper.noise_var, hyper.signal_scale
    )
    alpha_vec = solve_triangular(chol.T, white, lower=False)
    return GpPosterior(
        train_molecules=list(mols),
        hyper=hyper,
        chol_factor=chol,
        alpha_vec=alpha_vec,
        lml=_lml(white, half_logdet),
        cache=cache,
    )


def posterior_batch(gp: GpPosterior, xs: list[Molecule]) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and variance at each query molecule."""
    hyper = gp.hyper
    s2 = hyper.signal_scale**2
    k_cross = s2 * cross_gram(gp.train_molecules, xs, hyper.kernel_spec, gp.cache)
    mu = hyper.mean_const + k_cross.T @ gp.alpha_vec
    w = solve_triangular(gp.chol_factor, k_cross, lower=True)
    prior = s2 * diagonal(hyper.kernel_spec)
    var = np.maximum(0.0, prior - np.sum(w * w, axis=0))
    return mu, var


def posterior(gp: GpPosterior, x: Molecule) -> tuple[float, float]:
    """Posterior mean and (clamped nonnegative) variance at one molecule."""
    mu, var = posterior_batch(gp, [x])
    return float(mu[0]), float(var[0])
