"""Gaussian-process regression over molecules.

The covariance is ``signal_scale**2 * PSD(K) + noise_var * I`` where K is
the raw kernel Gram over training molecules.  A fit's hyperparameter
candidate is a row of floats (noise, signal scale, then the kernel's
hyperparameters), and the fit scores its candidates as stacks: its
random search draws all of them with one ``rng.uniform`` call, evaluates
the Grams of their distinct kernel slices with one ``combine`` call over
a float array of those slices, projects them with one ``psd_project``
call, factorizes every covariance with one Cholesky call and takes every
log-determinant in one reduction, so a fit projects K once for each
distinct kernel slice it meets.  A fit builds a kernel spec only for the
hyperparameters it returns.  ``build_posterior`` projects K once more.
A projection costs one stacked Cholesky when every Gram in it is
certified clear of the floor, and ``eigh`` over the stack only when one
is not.  Cross-covariances with query molecules use raw kernel values
scaled by ``signal_scale**2``; the prior variance of every query is
``signal_scale**2`` times the kernel's closed-form ``diagonal``.
The mean is a fitted constant.  Hyperparameters are chosen by maximizing
the log marginal likelihood with a seeded random search followed by
multiplicative coordinate refinement; the mean constant is profiled out
analytically (its generalized-least-squares optimum given the other
parameters).  ``build_posterior`` reports the log marginal likelihood of
its hyperparameters from the same Cholesky factor that scores queries;
a covariance that does not factorize gets ten times the noise, up to
the top of its range, before it raises.
Every triangular solve goes through ``_solve``, which imports scipy's
LAPACK ``dtrtrs`` at its first call, so importing this module loads
numpy alone and a process that never fits a GP never loads scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

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


def _covariance(k_psd: np.ndarray, noise_var, signal_sq, eye: np.ndarray) -> np.ndarray:
    """``signal_sq * k_psd + noise_var * eye``, ``eye`` the identity of
    ``k_psd``'s size; with ``(k, 1, 1)`` arrays of scales, the covariances
    of a ``(k, n, n)`` stack of Grams."""
    return signal_sq * k_psd + noise_var * eye


def _cholesky(mat: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError as exc:
        raise CholeskyFailure(
            "covariance not positive definite; fit skips this hyperparameter "
            "candidate and build_posterior first raises the noise to its cap"
        ) from exc


def _check_finite(*arrays: np.ndarray) -> None:
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError("array must not contain infs or NaNs")


def _targets(mols: list[Molecule], ys) -> np.ndarray:
    """``ys`` as a float vector with one value per molecule."""
    ys = np.asarray(ys, dtype=float)
    if ys.shape != (len(mols),) or not mols:
        raise ValueError("need equally many molecules and values (at least one)")
    return ys


#: ``scipy.linalg.lapack.dtrtrs``, imported by the first ``_solve``.
_dtrtrs = None


def _solve(chol: np.ndarray, rhs: np.ndarray, transpose: bool = False) -> np.ndarray:
    """Solve ``chol @ x = rhs``, or ``chol.T @ x = rhs`` with ``transpose``,
    for a C-ordered lower Cholesky factor.

    Calls LAPACK ``dtrtrs`` on the factor's Fortran-ordered transpose, as
    ``scipy.linalg.solve_triangular`` does, so the bits are scipy's
    without its per-call argument checks.  Callers check finiteness.
    """
    global _dtrtrs
    if _dtrtrs is None:
        from scipy.linalg.lapack import dtrtrs as _dtrtrs
    x, info = _dtrtrs(chol.T, rhs, lower=0, trans=0 if transpose else 1)
    if info:
        raise np.linalg.LinAlgError(f"triangular solve failed: info {info}")
    return x


def _half_logdet(chol: np.ndarray) -> np.ndarray:
    """Half the log-determinant of the covariance a Cholesky factor
    factorizes; over a ``(k, n, n)`` stack, each member's with the bits
    a one-factor call gives it."""
    return np.log(np.diagonal(chol, axis1=-2, axis2=-1)).sum(axis=-1)


def _lml(white: np.ndarray, half_logdet: float) -> float:
    """Gaussian log evidence from the whitened residuals and the half
    log-determinant of their covariance."""
    n = white.shape[0]
    return float(-0.5 * white @ white - half_logdet - 0.5 * n * _LOG_2PI)


# ---------------------------------------------------------------------------
# Hyperparameter fitting
# ---------------------------------------------------------------------------


class _FamilyEvaluator:
    """LML evaluation for one training set with precomputed structure.

    A candidate is a row: a list of floats in ``names`` order,
    ``noise_var`` and ``signal_scale`` first and the kernel
    hyperparameters after them, in ``kernel.combine``'s column order.
    The kernel ``features`` of the training set do not depend on the
    searched hyperparameters, so they are gathered once.  ``sample``
    draws a batch of rows with one ``rng.uniform`` call over their
    bounds, with the values and generator state that one scalar draw per
    value in candidate-major order gives.  ``lml_batch`` scores a list of
    rows as one stack: one ``combine`` call over the rows' new kernel
    slices, one ``psd_project`` call over their Grams, one Cholesky call
    over all covariances, one finiteness check and one log-determinant
    reduction over the factors, then two triangular solves per candidate.
    An evaluator serves one fit and keeps the projected Gram of every
    kernel slice it has met, keyed by the slice as a tuple, so a candidate
    whose kernel slice was scored before (one that moves only
    ``noise_var`` or ``signal_scale``, and every fingerprint candidate,
    whose slice is empty) is not projected again.  No kernel spec is built
    while scoring; ``spec_from`` builds one for the fit's result.
    """

    def __init__(self, mols, ys, family: KernelSpec, cache: KernelCache):
        self.ys = _targets(mols, ys)
        _check_finite(self.ys)
        self.family = family
        self._ones = np.ones(len(mols))
        self._eye = np.eye(len(mols))
        self.names = ["noise_var", "signal_scale"]
        if isinstance(family, SumKernel):
            self.names += ["alpha1", "alpha2"]
        if isinstance(family, (OTExpSum, SumKernel)):
            self.names += [f"beta{i}" for i in range(4)]
        ranges = np.array([_PARAM_RANGES[name] for name in self.names], dtype=float)
        self._clamps = ranges[:, :2].tolist()
        # Log bounds only where the scale is logarithmic: the alpha range
        # starts at zero.
        self._log_cols = np.flatnonzero(ranges[:, 2])
        ranges[self._log_cols, :2] = np.log(ranges[self._log_cols, :2])
        self._bounds = ranges[:, 0], ranges[:, 1]
        self.features = features(mols, mols, family, cache)
        self._grams: dict[tuple[float, ...], np.ndarray] = {}

    def sample(self, rng: np.random.Generator, count: int) -> list[list[float]]:
        """``count`` candidate rows drawn from the documented ranges."""
        values = rng.uniform(*self._bounds, size=(count, len(self.names)))
        values[:, self._log_cols] = np.exp(values[:, self._log_cols])
        return values.tolist()

    def clamp(self, column: int, value: float) -> float:
        lo, hi = self._clamps[column]
        return min(max(value, lo), hi)

    def spec_from(self, row: list[float]) -> KernelSpec:
        """The kernel spec of a row's kernel slice."""
        if isinstance(self.family, FingerprintTanimoto):
            return self.family
        ot = OTExpSum(tuple(row[-4:]))
        if isinstance(self.family, SumKernel):
            return replace(self.family, alpha1=row[2], alpha2=row[3], ot=ot)
        return ot

    def _factors(self, rows: list[list[float]]) -> tuple[list[int], np.ndarray]:
        """The indices of the rows whose covariance is positive definite,
        and the stack of their Cholesky factors."""
        keys = [tuple(row[2:]) for row in rows]
        grams = self._grams
        new = [key for key in dict.fromkeys(keys) if key not in grams]
        if new:
            params = np.array(new, dtype=float)
            grams.update(zip(new, psd_project(combine(self.family, params, *self.features))))
        # Squares of Python floats, as in build_posterior: numpy's square
        # can differ in the last bit.
        if len(rows) == 1:  # a refinement trial: no np.stack, same bits
            noise_var, signal_scale = rows[0][:2]
            cov = _covariance(grams[keys[0]], noise_var, signal_scale**2, self._eye)[None]
        else:
            cov = _covariance(
                np.stack([grams[key] for key in keys]),
                np.array([row[0] for row in rows])[:, None, None],
                np.array([row[1] ** 2 for row in rows])[:, None, None],
                self._eye,
            )
        try:
            return list(range(len(cov))), np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            pass  # one member failed the stacked call; find which
        good = []
        for i, mat in enumerate(cov):
            try:
                cov[i] = _cholesky(mat)
            except CholeskyFailure:
                continue
            good.append(i)
        return good, cov[good]

    def lml_batch(self, rows: list[list[float]]) -> list[tuple[float, float] | None]:
        """(log marginal likelihood, profiled mean constant) of each
        candidate row, None where its covariance does not factorize."""
        good, chols = self._factors(rows)
        _check_finite(chols)
        results = [None] * len(rows)
        for i, chol, half_logdet in zip(good, chols, _half_logdet(chols).tolist()):
            # Two one-column solves: a two-column solve changes the bits.
            wy = _solve(chol, self.ys)
            w1 = _solve(chol, self._ones)
            mean = float(w1 @ wy / (w1 @ w1))
            results[i] = (_lml(wy - mean * w1, half_logdet), mean)
        return results


def fit(
    mols: list[Molecule],
    ys,
    spec_family: KernelSpec,
    rng: np.random.Generator,
    cache: KernelCache | None = None,
) -> GpHyperparams:
    """Maximize the marginal likelihood over the family's hyperparameters.

    Seeded random search (64 candidate rows from the documented ranges,
    drawn with one ``rng.uniform`` call and scored as one batch) followed
    by three greedy coordinate passes with multiplicative steps of 1.5,
    one trial at a time: a trial is the best row with one entry scaled
    and clamped to its range, skipped where the clamp leaves it unchanged.
    Deterministic given the generator state.  ``ys`` must hold one finite
    value per molecule.
    """
    if len(mols) < 3:
        raise ValueError("fit needs at least three observations")
    if cache is None:
        cache = KernelCache()
    ev = _FamilyEvaluator(mols, ys, spec_family, cache)

    best_row = None
    best_value = -np.inf
    best_mean = 0.0

    def consider(rows):
        nonlocal best_row, best_value, best_mean
        for row, result in zip(rows, ev.lml_batch(rows)):
            if result is not None and result[0] > best_value:
                best_row, (best_value, best_mean) = row, result

    consider(ev.sample(rng, N_SEARCH_SAMPLES))
    if best_row is None:
        raise FitFailure("all hyperparameter candidates failed to factorize")

    for _ in range(N_REFINE_PASSES):
        for column in range(len(ev.names)):
            for factor in (REFINE_FACTOR, 1.0 / REFINE_FACTOR):
                value = ev.clamp(column, best_row[column] * factor)
                if value != best_row[column]:
                    trial = best_row.copy()
                    trial[column] = value
                    consider([trial])

    return GpHyperparams(
        kernel_spec=ev.spec_from(best_row),
        noise_var=best_row[0],
        mean_const=best_mean,
        signal_scale=best_row[1],
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
    compute the log marginal likelihood of ``ys`` under ``hyper``.

    A covariance that fails to factorize is retried with ``noise_var``
    ten times larger, capped at ``NOISE_RANGE[1]``; the posterior's
    ``hyper`` holds the noise that factorized.  A failure at the cap
    raises ``CholeskyFailure``."""
    ys = _targets(mols, ys)
    if cache is None:
        cache = KernelCache()
    k_psd = psd_project(gram(mols, hyper.kernel_spec, cache))
    eye = np.eye(len(mols))
    while True:
        try:
            chol = _cholesky(_covariance(k_psd, hyper.noise_var, hyper.signal_scale**2, eye))
            break
        except CholeskyFailure:
            if hyper.noise_var >= NOISE_RANGE[1]:
                raise
            hyper = replace(hyper, noise_var=min(10.0 * hyper.noise_var, NOISE_RANGE[1]))
    centered = ys - hyper.mean_const
    _check_finite(centered, chol)
    white = _solve(chol, centered)
    alpha_vec = _solve(chol, white, transpose=True)
    return GpPosterior(
        train_molecules=list(mols),
        hyper=hyper,
        chol_factor=chol,
        alpha_vec=alpha_vec,
        lml=_lml(white, float(_half_logdet(chol))),
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
