"""Kernel families over molecules and the one place they are computed.

Three families: Tanimoto similarity of path fingerprints, an exponential
sum over the four transport dissimilarities (``exp(-sum_i beta_i d_i)``),
and their weighted sum ``alpha1 * k_fp + alpha2 * k_ot``.  Every kernel
value goes through two steps: ``features`` gathers a block's
hyperparameter-free inputs (transport distances, Tanimoto values) from a
``KernelCache``, and ``combine`` turns them into kernel values for each
row of a float array of one family's kernel hyperparameters, as one
stack of blocks.  ``gram``, ``cross_gram`` and ``diagonal`` pass their
spec's one row (``_row``) and the GP fit the kernel slices of its
candidate rows, so a pair has one value wherever it is computed.

Both features come from the cache's per-run stores, one per feature
kind: a growing array with a row per unordered pair of canonical-form
ids and a known-mask, from which ``features`` gathers a block with one
fancy index after the cache has computed the block's missing pairs in
one call (``distance_vectors``, or ``tanimoto`` over the cached
fingerprints).  Each pair is computed once per run and serves both
orders, which is exact because ``distance_vector`` and ``tanimoto`` are
symmetric bit for bit; so is a Gram.  ``diagonal`` is ``combine`` on the
closed-form features of a molecule against itself.
A join product's fingerprint is built from its reagents'; a reagent not
yet cached is built first, by a loop over origins.
The transport kernel is not known to be positive definite, so training
Gram matrices are projected onto the PSD cone before GP use;
cross-covariances keep raw kernel values.  ``psd_project`` certifies a
stack with one Cholesky of its members' floor-lowered copies and returns
it unchanged when that factorization completes; only a stack it cannot
certify pays for ``eigh`` and eigenvalue clamping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EigenFailure
from .fingerprint import (
    DEFAULT_MAX_PATH_LEN,
    DEFAULT_N_BITS,
    Fingerprint,
    check_parameters,
    path_fingerprint,
    tanimoto,
)
from .molgraph import Molecule, build_from_origins
from .otdist import distance_vector, distance_vectors

#: Hyperparameter search ranges (log-uniform for betas).
BETA_RANGE = (1e-4, 10.0)
ALPHA_RANGE = (0.0, 10.0)

DEFAULT_PSD_FLOOR = 1e-10

#: ``psd_project``'s certificate lowers each diagonal by the floor plus
#: this many ``(n + 1)**2 * n * eps * max|a_ij|``.
_CERTIFICATE_FACTOR = 64.0
_EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class FingerprintTanimoto:
    """Tanimoto similarity of path fingerprints."""

    n_bits: int = DEFAULT_N_BITS
    max_path_len: int = DEFAULT_MAX_PATH_LEN

    def __post_init__(self):
        check_parameters(self.n_bits, self.max_path_len)


@dataclass(frozen=True)
class OTExpSum:
    """exp(-sum_i beta_i d_i) over the four transport dissimilarities."""

    betas: tuple[float, float, float, float] = (1.0, 1.0, 1.0, 1.0)

    def __post_init__(self):
        if len(self.betas) != 4:
            raise ValueError("OTExpSum takes exactly four betas")
        # A NaN fails both comparisons; an inf beta would make exp(-inf * 0)
        # NaN on the diagonal.
        if not all(0 <= b < math.inf for b in self.betas):
            raise ValueError("betas must be finite and nonnegative")


@dataclass(frozen=True)
class SumKernel:
    """alpha1 * fingerprint kernel + alpha2 * transport kernel."""

    alpha1: float = 1.0
    alpha2: float = 1.0
    fingerprint: FingerprintTanimoto = field(default_factory=FingerprintTanimoto)
    ot: OTExpSum = field(default_factory=OTExpSum)

    def __post_init__(self):
        lo, hi = ALPHA_RANGE
        if not (lo <= self.alpha1 <= hi and lo <= self.alpha2 <= hi):
            raise ValueError(f"alphas must lie in [{lo}, {hi}]")


KernelSpec = FingerprintTanimoto | OTExpSum | SumKernel


class KernelCache:
    """Per-run store of kernel pair features and memo of fingerprints.

    Both are keyed by canonical form, so isomorphic molecules share
    entries.  Each canonical form gets an integer id when first seen.
    Each pair feature (the four transport distances, and the Tanimoto
    value of each ``FingerprintTanimoto`` spec) lives in its own growing
    float array with one row per unordered id pair (the upper triangle
    packed row by row, ``_cell``) and a known-mask beside it.  Its
    capacity at least doubles when the ids outgrow it.  A packed triangle
    keeps resident only the pairs of ids seen so far, where a square
    array with room to grow also holds its padding.  ``_block`` computes
    every missing pair of a block in one call and gathers the block with
    one fancy index; ``features`` reads both features through it, and
    ``distance_vector`` reads the distance store one pair at a time.  One
    row serves both orders of a pair, as ``otdist.distance_vector`` and
    ``tanimoto`` are symmetric bit for bit.  A molecule against itself is
    computed like any other pair and gets exactly ``0.0`` distances and
    a Tanimoto value of ``1.0``.

    A join product's fingerprint is built from its reagents' cached ones
    and the paths that cross the join bond; a reagent not yet cached is
    built first, by a loop over origins (``molgraph.build_from_origins``),
    so a chain of joins of any depth stays off the recursion limit.
    Parsed molecules, template products and every other molecule with no
    origin are enumerated in full.  A cache is plain state owned by one optimization run; kernel
    functions stay pure with or without it.
    """

    def __init__(self):
        self._ids: dict[str, int] = {}
        self._stores: dict[object, tuple[np.ndarray, np.ndarray]] = {}
        self._fingerprints: dict[tuple[str, int, int], Fingerprint] = {}

    def _block(self, kind, width: int, rows: list[Molecule], cols: list[Molecule],
               compute) -> np.ndarray:
        """The ``len(rows) x len(cols) x width`` values of feature ``kind``
        (``"distances"``, or a ``FingerprintTanimoto`` spec) over the block.
        ``compute(firsts, seconds)`` gives the values of the block's missing
        unordered pairs, each asked for once."""
        ids = self._ids
        row_ids, col_ids = (
            np.array([ids.setdefault(m.canonical_form, len(ids)) for m in mols], dtype=np.intp)
            for mols in (rows, cols)
        )
        cells = _cell(row_ids[:, None], col_ids)
        values, known = self._stores.get(kind, (np.zeros((0, width)), np.zeros(0, dtype=bool)))
        n = len(ids)
        if n * (n + 1) // 2 > len(known):
            cap = max(2 * len(known), n * (n + 1) // 2, 2048)
            values = np.concatenate([values, np.zeros((cap - len(known), width))])
            known = np.concatenate([known, np.zeros(cap - len(known), dtype=bool)])
            self._stores[kind] = values, known
        i, j = np.nonzero(~known[cells])
        if len(i):
            missing, one = np.unique(cells[i, j], return_index=True)
            firsts = [rows[k] for k in i[one].tolist()]
            seconds = [cols[k] for k in j[one].tolist()]
            values[missing] = np.reshape(compute(firsts, seconds), (-1, width))
            known[missing] = True
        return values[cells]

    def distance_vector(self, x: Molecule, y: Molecule) -> np.ndarray:
        return self._block("distances", 4, [x], [y],
                           lambda xs, ys: distance_vector(xs[0], ys[0]))[0, 0]

    def fingerprint(self, x: Molecule, spec: FingerprintTanimoto) -> Fingerprint:
        n_bits, max_path_len = spec.n_bits, spec.max_path_len
        fps = self._fingerprints
        fp = fps.get((x.canonical_form, n_bits, max_path_len))
        if fp is not None:
            return fp

        def key(mol):
            return mol.canonical_form, n_bits, max_path_len

        def build(mol):
            origin = mol._origin
            inherited = None if origin is None else tuple(fps[key(r)] for r in origin[:2])
            fps[key(mol)] = path_fingerprint(mol, n_bits, max_path_len, inherited)

        build_from_origins(x, lambda mol: key(mol) in fps, build)
        return fps[key(x)]


def _cell(a, b):
    """Store row of the unordered id pair ``{a, b}``: the upper triangle
    packed row by row, so the rows of ids below ``n`` come first."""
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    return hi * (hi + 1) // 2 + lo


def features(
    rows: list[Molecule], cols: list[Molecule], spec: KernelSpec, cache: KernelCache
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Hyperparameter-free inputs of the ``rows`` x ``cols`` kernel block.

    Returns ``(dist, k_fp)``: the ``4 x r x c`` transport-distance tensor
    (transport and sum families) and the ``r x c`` Tanimoto block
    (fingerprint and sum families), each ``None`` where the family does
    not use it.
    """
    dist = k_fp = None
    if isinstance(spec, (OTExpSum, SumKernel)):
        dist = cache._block("distances", 4, rows, cols, distance_vectors).transpose(2, 0, 1)
    fp_spec = spec.fingerprint if isinstance(spec, SumKernel) else spec
    if isinstance(fp_spec, FingerprintTanimoto):
        def tanimotos(xs, ys):  # each molecule's fingerprint looked up once
            fps = {m: cache.fingerprint(m, fp_spec) for m in dict.fromkeys(xs + ys)}
            return [tanimoto(fps[x], fps[y]) for x, y in zip(xs, ys)]

        k_fp = cache._block(fp_spec, 1, rows, cols, tanimotos)[..., 0]
    return dist, k_fp


def combine(
    family: KernelSpec, params: np.ndarray, dist: np.ndarray | None, k_fp: np.ndarray | None
) -> np.ndarray:
    """Kernel values of a block from its ``features``, for each row of
    ``params``: a ``(len(params), r, c)`` stack.

    ``params`` is a ``(k, p)`` float array whose rows are kernel
    hyperparameters of ``family``'s type in ``_row`` order: no columns for
    ``FingerprintTanimoto``, the four betas for ``OTExpSum``, and
    ``alpha1, alpha2`` then the betas for ``SumKernel``.  The exponent is
    a fixed-order elementwise sum, so a pair gets the same bits in a block
    of any shape and in a stack of any length.
    """
    if isinstance(family, FingerprintTanimoto):
        return np.repeat(k_fp[None], len(params), axis=0)
    if isinstance(family, OTExpSum):
        b0, b1, b2, b3 = params.T[:, :, None, None]
        return np.exp(-(b0 * dist[0] + b1 * dist[1] + b2 * dist[2] + b3 * dist[3]))
    if isinstance(family, SumKernel):
        alpha1, alpha2 = params.T[:2, :, None, None]
        return alpha1 * k_fp + alpha2 * combine(family.ot, params[:, 2:], dist, None)
    raise TypeError(f"unknown kernel spec: {family!r}")


def _row(spec: KernelSpec) -> tuple[float, ...]:
    """The kernel hyperparameters of ``spec`` as one row of ``combine``'s
    ``params``."""
    if isinstance(spec, SumKernel):
        return (spec.alpha1, spec.alpha2, *spec.ot.betas)
    if isinstance(spec, OTExpSum):
        return spec.betas
    return ()


def cross_gram(
    rows: list[Molecule],
    cols: list[Molecule],
    spec: KernelSpec,
    cache: KernelCache | None = None,
) -> np.ndarray:
    """Raw kernel values between two molecule lists (no projection)."""
    if cache is None:
        cache = KernelCache()
    return combine(spec, np.array([_row(spec)], dtype=float),
                   *features(rows, cols, spec, cache))[0]


def gram(
    mols: list[Molecule], spec: KernelSpec, cache: KernelCache | None = None
) -> np.ndarray:
    """Raw pairwise kernel matrix of ``mols``; symmetric bit for bit."""
    if not mols:
        raise ValueError("gram() needs at least one molecule")
    return cross_gram(mols, mols, spec, cache)


def diagonal(spec: KernelSpec) -> float:
    """Kernel value of any molecule with itself, the same for every molecule.

    Exact, because the features of a molecule against itself are
    constants: ``distance_vector(x, x)`` returns ``np.zeros(4)`` and
    ``tanimoto(a, a)`` is exactly 1.0.
    """
    params = np.array([_row(spec)], dtype=float)
    return float(combine(spec, params, np.zeros((4, 1, 1)), np.ones((1, 1)))[0, 0, 0])


def psd_project(values: np.ndarray, floor: float = DEFAULT_PSD_FLOOR) -> np.ndarray:
    """Clamp eigenvalues below ``floor`` up to it and reconstruct.

    Takes one symmetric matrix or a stack ``(..., n, n)`` of them; each
    member is projected on its own and gets the bits a one-matrix call
    gives it.  Identity (up to the floor) on matrices already in the cone.

    One stacked Cholesky decides the common case without ``eigh``.  It
    factors a copy of the stack whose diagonals are lowered by
    ``floor + delta``, with ``delta = 64 (n+1)**2 n eps s`` and ``s`` the
    largest ``|a_ij|`` in the stack, so ``||A||_2 <= n s`` bounds every
    member without squaring an entry.  If the factorization completes,
    each member's smallest eigenvalue exceeds ``floor + delta`` less the
    factorization's backward error, at most ``n gamma_{n+1} s``, about
    ``n (n+1) eps s`` (Higham 2002, Thm 10.3, with ``|R^T||R|`` bounded
    entrywise by Cauchy-Schwarz through the diagonal).  ``eigh``'s
    smallest eigenvalue lies within ``p(n) eps ||A||_2 <= p(n) n eps s``
    of the true one, and ``delta`` covers both errors and the rounding of
    the lowered diagonal for any ``p(n)`` below about ``64 (n+1)**2``.
    So the clamp below would find no member under the floor, and the
    certified stack comes back as the same ``values.copy()``.  When the
    factorization fails (a member near or below the floor), when an entry
    is inf (its margin is inf) and for any dtype but float64, ``eigh`` and
    the clamp run as before.  A NaN entry never gets that far: the
    symmetry check rejects it with ``ValueError``.
    """
    if floor < 0:
        raise ValueError("floor must be nonnegative")
    mirrored = np.swapaxes(values, -1, -2)
    # The plain comparison decides the common case fast; allclose keeps
    # the verdict on inf and NaN entries, where the difference is NaN.
    if not (np.abs(values - mirrored) <= 1e-12).all() and not np.allclose(
        values, mirrored, atol=1e-12, rtol=0.0
    ):
        raise ValueError("psd_project expects a symmetric matrix")
    if values.dtype == np.float64:
        n = values.shape[-1]
        # Python floats: an inf entry or an overflow gives an inf margin
        # without a warning, and the stack goes to eigh.
        scale = float(np.abs(values).max(initial=0.0))
        margin = floor + _CERTIFICATE_FACTOR * (n + 1) ** 2 * n * _EPS * scale
        if margin < math.inf:
            lowered = values.copy()
            lowered.reshape(values.shape[:-2] + (n * n,))[..., :: n + 1] -= margin
            try:
                np.linalg.cholesky(lowered)
            except np.linalg.LinAlgError:
                pass
            else:
                return values.copy()
    try:
        w, v = np.linalg.eigh(values)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(str(exc)) from exc
    out = values.copy()
    low = ~(w[..., 0] >= floor)
    if low.any():
        w, v = np.maximum(w[low], floor), v[low]
        projected = (v * w[..., None, :]) @ np.swapaxes(v, -1, -2)
        out[low] = (projected + np.swapaxes(projected, -1, -2)) / 2.0
    return out
