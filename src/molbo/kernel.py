"""Kernel families over molecules and the one place they are computed.

Three families: Tanimoto similarity of path fingerprints, an exponential
sum over the four transport dissimilarities (``exp(-sum_i beta_i d_i)``),
and their weighted sum ``alpha1 * k_fp + alpha2 * k_ot``.  Every kernel
value goes through two steps: ``features`` gathers a block's
hyperparameter-free inputs (transport distances, Tanimoto values) from a
``KernelCache``, and ``combine`` turns them into kernel values for a
sequence of specs of one family, as one stack of blocks.  ``gram``,
``cross_gram`` and ``diagonal`` use its one-spec case and the GP fit a
stack of its candidates' specs, so a pair has one value wherever it is
computed.

Transport distances come from the cache's per-run store: one growing
array with a row per unordered pair of canonical-form ids and a
known-mask, from which ``features`` gathers a block with one fancy index
after the cache has computed the block's missing pairs in one
``distance_vectors`` pass.  Each pair is computed once and serves both
orders, which is exact because ``distance_vector`` is symmetric bit for
bit; so is a Gram.  Tanimoto values are computed per pair; a Gram
computes each unordered pair once and mirrors it.  ``diagonal`` is
``combine`` on the closed-form features of a molecule against itself.
The transport kernel is not known to be positive definite, so training
Gram matrices are projected onto the PSD cone by eigenvalue clamping
before GP use; cross-covariances keep raw kernel values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EigenFailure
from .fingerprint import (
    DEFAULT_MAX_PATH_LEN,
    DEFAULT_N_BITS,
    Fingerprint,
    path_fingerprint,
    tanimoto,
)
from .molgraph import Molecule
from .otdist import distance_vector, distance_vectors

#: Hyperparameter search ranges (log-uniform for betas).
BETA_RANGE = (1e-4, 10.0)
ALPHA_RANGE = (0.0, 10.0)

DEFAULT_PSD_FLOOR = 1e-10


@dataclass(frozen=True)
class FingerprintTanimoto:
    """Tanimoto similarity of path fingerprints."""

    n_bits: int = DEFAULT_N_BITS
    max_path_len: int = DEFAULT_MAX_PATH_LEN


@dataclass(frozen=True)
class OTExpSum:
    """exp(-sum_i beta_i d_i) over the four transport dissimilarities."""

    betas: tuple[float, float, float, float] = (1.0, 1.0, 1.0, 1.0)

    def __post_init__(self):
        if len(self.betas) != 4:
            raise ValueError("OTExpSum takes exactly four betas")
        if any(b < 0 for b in self.betas):
            raise ValueError("betas must be nonnegative")


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
    """Per-run store of transport distances and memo of fingerprints.

    Both are keyed by canonical form, so isomorphic molecules share
    entries.  Each canonical form gets an integer id when first seen.
    The distance vectors live in one growing float array with one row
    per unordered id pair (the upper triangle packed row by row,
    ``_cell``) and a known-mask beside it.  Its capacity at least doubles
    when the ids outgrow it, and the rows of a new id's diagonal are
    known and zero, as ``distance_vector(x, x)`` is.  A packed triangle
    keeps resident only the pairs of ids seen so far, where a square
    array with room to grow also holds its padding.  ``distances``
    computes every missing pair of a block in one ``distance_vectors``
    pass and gathers the block with one fancy index; ``distance_vector``
    reads the same store one pair at a time.  One row serves both orders
    of a pair, as ``otdist.distance_vector`` is symmetric bit for bit.

    A join product's fingerprint is built from its reagents' cached ones
    and the paths that cross the join bond; a reagent not yet cached is
    built first, by a loop over origins, so a chain of joins of any
    depth stays off the recursion limit.  Parsed molecules, template
    products and every other molecule with no origin are enumerated in
    full.  A cache is plain state owned by one optimization run; kernel
    functions stay pure with or without it.
    """

    def __init__(self):
        self._ids: dict[str, int] = {}
        self._store = np.zeros((0, 4))
        self._known = np.zeros(0, dtype=bool)
        self._fingerprints: dict[tuple[str, int, int], Fingerprint] = {}

    def _ids_of(self, mols: list[Molecule]) -> np.ndarray:
        ids = self._ids
        first_new = len(ids)
        out = np.array([ids.setdefault(m.canonical_form, len(ids)) for m in mols], dtype=np.intp)
        n = len(ids)
        if n > first_new:
            old = len(self._known)
            if n * (n + 1) // 2 > old:
                cap = max(2 * old, n * (n + 1) // 2, 2048)
                store = np.zeros((cap, 4))
                known = np.zeros(cap, dtype=bool)
                store[:old] = self._store
                known[:old] = self._known
                self._store, self._known = store, known
            new = np.arange(first_new, n)
            self._known[_cell(new, new)] = True  # zero, as distance_vector(x, x) is
        return out

    def distances(self, rows: list[Molecule], cols: list[Molecule]) -> np.ndarray:
        """The ``len(rows) x len(cols) x 4`` distance vectors of the
        block; each missing unordered pair is computed once."""
        cells = _cell(self._ids_of(rows)[:, None], self._ids_of(cols))
        i, j = np.nonzero(~self._known[cells])
        if len(i):
            missing, one = np.unique(cells[i, j], return_index=True)
            self._store[missing] = distance_vectors([rows[k] for k in i[one].tolist()],
                                                    [cols[k] for k in j[one].tolist()])
            self._known[missing] = True
        return self._store[cells]

    def distance_vector(self, x: Molecule, y: Molecule) -> np.ndarray:
        cell = _cell(*self._ids_of([x, y]))
        if not self._known[cell]:
            self._store[cell] = distance_vector(x, y)
            self._known[cell] = True
        return self._store[cell].copy()

    def fingerprint(self, x: Molecule, spec: FingerprintTanimoto) -> Fingerprint:
        n_bits, max_path_len = spec.n_bits, spec.max_path_len
        fps = self._fingerprints
        fp = fps.get((x.canonical_form, n_bits, max_path_len))
        if fp is not None:
            return fp
        todo = [x]
        while todo:
            mol = todo[-1]
            origin = mol._origin
            reagents = () if origin is None else origin[:2]
            keys = [(r.canonical_form, n_bits, max_path_len) for r in reagents]
            missing = [r for r, key in zip(reagents, keys) if key not in fps]
            if missing:
                todo += missing
                continue
            todo.pop()
            key = (mol.canonical_form, n_bits, max_path_len)
            if key not in fps:  # a shared ancestor may be queued twice
                inherited = None if origin is None else tuple(fps[k] for k in keys)
                fps[key] = path_fingerprint(mol, n_bits, max_path_len, inherited)
        return fps[(x.canonical_form, n_bits, max_path_len)]


def _cell(a, b):
    """Store row of the unordered id pair ``{a, b}``: the upper triangle
    packed row by row, so the rows of ids below ``n`` come first."""
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    return hi * (hi + 1) // 2 + lo


def _pairs(rows: list, cols: list, value) -> np.ndarray:
    """``value(x, y)`` for every cell of the ``rows`` x ``cols`` block.

    A square block (``cols is rows``) looks each unordered pair up once
    and mirrors it; ``value`` must then be symmetric bit for bit.
    """
    n, m = len(rows), len(cols)
    if cols is not rows:
        return np.reshape([value(x, y) for x in rows for y in cols], (n, m))
    block = np.empty((n, n))
    upper = np.triu_indices(n)
    block[upper] = [value(rows[i], rows[j]) for i in range(n) for j in range(i, n)]
    block[upper[::-1]] = block[upper]
    return block


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
        dist = cache.distances(rows, cols).transpose(2, 0, 1)
    fp_spec = spec.fingerprint if isinstance(spec, SumKernel) else spec
    if isinstance(fp_spec, FingerprintTanimoto):
        row_fps = [cache.fingerprint(x, fp_spec) for x in rows]
        col_fps = row_fps if cols is rows else [cache.fingerprint(y, fp_spec) for y in cols]
        k_fp = _pairs(row_fps, col_fps, tanimoto)
    return dist, k_fp


def combine(
    specs: list[KernelSpec], dist: np.ndarray | None, k_fp: np.ndarray | None
) -> np.ndarray:
    """Kernel values of a block from its ``features``, for each of
    ``specs``: a ``(len(specs), r, c)`` stack.

    The specs must share one family.  The exponent is a fixed-order
    elementwise sum, so a pair gets the same bits in a block of any shape
    and in a stack of any length.
    """
    family = type(specs[0])
    if any(type(s) is not family for s in specs):
        raise TypeError("combine takes specs of one family")
    if family is FingerprintTanimoto:
        return np.repeat(k_fp[None], len(specs), axis=0)
    if family is OTExpSum:
        betas = np.array([s.betas for s in specs], dtype=float)
        b0, b1, b2, b3 = betas.T[:, :, None, None]
        return np.exp(-(b0 * dist[0] + b1 * dist[1] + b2 * dist[2] + b3 * dist[3]))
    if family is SumKernel:
        alphas = np.array([(s.alpha1, s.alpha2) for s in specs], dtype=float)
        alpha1, alpha2 = alphas.T[:, :, None, None]
        return alpha1 * k_fp + alpha2 * combine([s.ot for s in specs], dist, None)
    raise TypeError(f"unknown kernel spec: {specs[0]!r}")


def cross_gram(
    rows: list[Molecule],
    cols: list[Molecule],
    spec: KernelSpec,
    cache: KernelCache | None = None,
) -> np.ndarray:
    """Raw kernel values between two molecule lists (no projection)."""
    if cache is None:
        cache = KernelCache()
    return combine([spec], *features(rows, cols, spec, cache))[0]


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
    return float(combine([spec], np.zeros((4, 1, 1)), np.ones((1, 1)))[0, 0, 0])


def psd_project(values: np.ndarray, floor: float = DEFAULT_PSD_FLOOR) -> np.ndarray:
    """Clamp eigenvalues below ``floor`` up to it and reconstruct.

    Takes one symmetric matrix or a stack ``(..., n, n)`` of them; each
    member is projected on its own and gets the bits a one-matrix call
    gives it.  Identity (up to the floor) on matrices already in the cone.
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
