"""Gaussian-process regression over molecules.

The covariance is ``signal_scale**2 * PSD(K) + noise_var * I`` where K is
the raw kernel Gram over training molecules.  A fit projects K once for
each distinct kernel spec it meets: its random search projects the Grams
of all its candidates in one stacked ``psd_project`` call and factorizes
their covariances in one stacked Cholesky call.  ``build_posterior``
projects K once more.  Cross-covariances with query molecules use raw
kernel values scaled by ``signal_scale**2``; the prior variance of every
query is ``signal_scale**2`` times the kernel's closed-form ``diagonal``.
The mean is a fitted constant.  Hyperparameters are chosen by maximizing
the log marginal likelihood with a seeded random search followed by
multiplicative coordinate refinement; the mean constant is profiled out
analytically (its generalized-least-squares optimum given the other
parameters).  ``build_posterior`` reports the log marginal likelihood of
its hyperparameters from the same Cholesky factor that scores queries.
Every triangular solve goes through ``_solve``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg.lapack import dtrtrs

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


def _covariance(k_psd: np.ndarray, noise_var, signal_sq) -> np.ndarray:
    """``signal_sq * k_psd + noise_var * I``; with ``(k, 1, 1)`` arrays of
    scales, the covariances of a ``(k, n, n)`` stack of Grams."""
    return signal_sq * k_psd + noise_var * np.eye(k_psd.shape[-1])


def _cholesky(mat: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError as exc:
        raise CholeskyFailure(
            "covariance not positive definite; fit skips this hyperparameter "
            "candidate and build_posterior raises"
        ) from exc


def _check_finite(*arrays: np.ndarray) -> None:
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError("array must not contain infs or NaNs")


def _solve(chol: np.ndarray, rhs: np.ndarray, transpose: bool = False) -> np.ndarray:
    """Solve ``chol @ x = rhs``, or ``chol.T @ x = rhs`` with ``transpose``,
    for a C-ordered lower Cholesky factor.

    Calls LAPACK ``dtrtrs`` on the factor's Fortran-ordered transpose, as
    ``scipy.linalg.solve_triangular`` does, so the bits are scipy's
    without its per-call argument checks.  Callers check finiteness.
    """
    x, info = dtrtrs(chol.T, rhs, lower=0, trans=0 if transpose else 1)
    if info:
        raise np.linalg.LinAlgError(f"triangular solve failed: info {info}")
    return x


def _lml(white: np.ndarray, chol: np.ndarray) -> float:
    """Gaussian log evidence from the whitened residuals and the Cholesky
    factor of their covariance."""
    n = white.shape[0]
    half_logdet = float(np.log(chol.diagonal()).sum())
    return float(-0.5 * white @ white - half_logdet - 0.5 * n * _LOG_2PI)


# ---------------------------------------------------------------------------
# Hyperparameter fitting
# ---------------------------------------------------------------------------


class _FamilyEvaluator:
    """LML evaluation for one training set with precomputed structure.

    The kernel ``features`` of the training set do not depend on the
    searched hyperparameters, so they are gathered once.  ``lml_batch``
    scores a list of candidates as one stack: one ``combine`` per distinct
    kernel spec, one ``psd_project`` call over the new specs' Grams, one
    Cholesky call over all covariances, then two triangular solves per
    candidate.  The projected Gram of the last candidate's spec is kept,
    so a candidate that moves only ``noise_var`` or ``signal_scale``
    (every fingerprint candidate) is not projected again.
    """

    def __init__(self, mols, ys, family: KernelSpec, cache: KernelCache):
        self.ys = np.asarray(ys, dtype=float)
        _check_finite(self.ys)
        self.family = family
        self.n = len(mols)
        self.features = features(mols, mols, family, cache)
        self._kept: dict[KernelSpec, np.ndarray] = {}

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

    def _factors(self, candidates: list[dict[str, float]]) -> list[np.ndarray | None]:
        """Cholesky factor of each candidate's covariance, None where it
        is not positive definite."""
        specs = [self.spec_from(p) for p in candidates]
        grams = dict(self._kept)
        new = [s for s in dict.fromkeys(specs) if s not in grams]
        if new:
            stack = np.stack([combine(s, *self.features) for s in new])
            grams.update(zip(new, psd_project(stack)))
        self._kept = {specs[-1]: grams[specs[-1]]}
        # Squares of Python floats, as in build_posterior: numpy's square
        # can differ in the last bit.
        cov = _covariance(
            np.stack([grams[s] for s in specs]),
            np.array([p["noise_var"] for p in candidates])[:, None, None],
            np.array([p["signal_scale"] ** 2 for p in candidates])[:, None, None],
        )
        try:
            return list(np.linalg.cholesky(cov))
        except np.linalg.LinAlgError:
            pass  # one member failed the stacked call; find which
        factors = []
        for mat in cov:
            try:
                factors.append(_cholesky(mat))
            except CholeskyFailure:
                factors.append(None)
        return factors

    def lml_batch(
        self, candidates: list[dict[str, float]]
    ) -> list[tuple[float, float] | None]:
        """(log marginal likelihood, profiled mean constant) of each
        candidate, None where its covariance does not factorize."""
        ones = np.ones(self.n)
        results = []
        for chol in self._factors(candidates):
            if chol is None:
                results.append(None)
                continue
            _check_finite(chol)
            # Two one-column solves: a two-column solve changes the bits.
            wy = _solve(chol, self.ys)
            w1 = _solve(chol, ones)
            mean = float(w1 @ wy / (w1 @ w1))
            results.append((_lml(wy - mean * w1, chol), mean))
        return results


def fit(
    mols: list[Molecule],
    ys,
    spec_family: KernelSpec,
    rng: np.random.Generator,
    cache: KernelCache | None = None,
) -> GpHyperparams:
    """Maximize the marginal likelihood over the family's hyperparameters.

    Seeded random search (64 draws from the documented ranges, scored as
    one batch) followed by three greedy coordinate passes with
    multiplicative steps of 1.5, one trial at a time.  Deterministic
    given the generator state.
    """
    if len(mols) < 3:
        raise ValueError("fit needs at least three observations")
    if cache is None:
        cache = KernelCache()
    ev = _FamilyEvaluator(mols, ys, spec_family, cache)

    best_params = None
    best_value = -np.inf
    best_mean = 0.0

    def consider(candidates):
        nonlocal best_params, best_value, best_mean
        for params, result in zip(candidates, ev.lml_batch(candidates)):
            if result is not None and result[0] > best_value:
                best_params, (best_value, best_mean) = params, result

    consider([ev.sample(rng) for _ in range(N_SEARCH_SAMPLES)])
    if best_params is None:
        raise FitFailure("all hyperparameter candidates failed to factorize")

    for _ in range(N_REFINE_PASSES):
        for name in ev.param_names():
            for factor in (REFINE_FACTOR, 1.0 / REFINE_FACTOR):
                trial = dict(best_params)
                trial[name] = ev.clamp(name, trial[name] * factor)
                if trial[name] != best_params[name]:
                    consider([trial])

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
    chol = _cholesky(
        _covariance(k_psd, hyper.noise_var, hyper.signal_scale**2)
    )
    centered = ys - hyper.mean_const
    _check_finite(centered, chol)
    white = _solve(chol, centered)
    alpha_vec = _solve(chol, white, transpose=True)
    return GpPosterior(
        train_molecules=list(mols),
        hyper=hyper,
        chol_factor=chol,
        alpha_vec=alpha_vec,
        lml=_lml(white, chol),
        cache=cache,
    )


def posterior_batch(gp: GpPosterior, xs: list[Molecule]) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and variance at each query molecule."""
    hyper = gp.hyper
    s2 = hyper.signal_scale**2
    k_cross = s2 * cross_gram(gp.train_molecules, xs, hyper.kernel_spec, gp.cache)
    _check_finite(k_cross)
    mu = hyper.mean_const + k_cross.T @ gp.alpha_vec
    w = _solve(gp.chol_factor, k_cross)
    prior = s2 * diagonal(hyper.kernel_spec)
    var = np.maximum(0.0, prior - np.sum(w * w, axis=0))
    return mu, var


def posterior(gp: GpPosterior, x: Molecule) -> tuple[float, float]:
    """Posterior mean and (clamped nonnegative) variance at one molecule."""
    mu, var = posterior_batch(gp, [x])
    return float(mu[0]), float(var[0])
