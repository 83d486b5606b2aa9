"""Path-based topological fingerprints and Tanimoto similarity.

Every simple path over heavy atoms with 0..max_path_len bonds yields a
descriptor string (element symbols alternating with bond symbols, read
in the lexicographically smaller direction); descriptors are hashed to
bit positions.  The hash is pinned so fingerprints are bit-stable: FNV-1a
64-bit with the offset basis XORed with the seed 0x5EED, reduced modulo
``n_bits``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import LengthMismatch
from .molgraph import Molecule

_FNV_OFFSET = 0xCBF29CE484222325 ^ 0x5EED
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF

DEFAULT_N_BITS = 2048
DEFAULT_MAX_PATH_LEN = 7


def _hash64(descriptor: str) -> int:
    h = _FNV_OFFSET
    for byte in descriptor.encode("ascii"):
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


@dataclass(frozen=True)
class Fingerprint:
    bits: int  # bit i set <=> integer bit i set
    n_bits: int
    max_path_len: int


def path_descriptors(mol: Molecule, max_path_len: int) -> set[str]:
    """Distinct descriptor strings of all simple heavy-atom paths with
    0..max_path_len bonds, each read in its smaller direction in one pass."""
    symbols = {i: mol.atoms[i].symbol for i in mol.heavy_indices()}
    steps = {
        i: [(j, order.symbol + symbols[j], symbols[j] + order.symbol)
            for j, order in mol.neighbors(i) if j in symbols]
        for i in symbols
    }
    descriptors = set(symbols.values())
    on_path: set[int] = set()

    def extend(tail: int, fwd: str, rev: str, bonds_left: int):
        on_path.add(tail)
        for j, fwd_step, rev_step in steps[tail]:
            if j in on_path:
                continue
            f = fwd + fwd_step
            r = rev_step + rev
            descriptors.add(f if f <= r else r)
            if bonds_left > 1:
                extend(j, f, r, bonds_left - 1)
        on_path.remove(tail)

    if max_path_len > 0:
        for start, sym in symbols.items():
            extend(start, sym, sym, max_path_len)
    return descriptors


def path_fingerprint(
    mol: Molecule,
    n_bits: int = DEFAULT_N_BITS,
    max_path_len: int = DEFAULT_MAX_PATH_LEN,
) -> Fingerprint:
    """Hash heavy-atom path descriptors into a fixed-length bit vector.

    ``n_bits`` must be a power of two >= 64; ``max_path_len`` counts
    bonds and must lie in 1..10.  Hydrogens never enter paths.
    """
    if n_bits < 64 or n_bits & (n_bits - 1):
        raise ValueError("n_bits must be a power of two >= 64")
    if not 1 <= max_path_len <= 10:
        raise ValueError("max_path_len must lie in 1..10")
    bits = 0
    for descriptor in path_descriptors(mol, max_path_len):
        bits |= 1 << (_hash64(descriptor) % n_bits)
    return Fingerprint(bits, n_bits, max_path_len)


def tanimoto(a: Fingerprint, b: Fingerprint) -> float:
    """Bit-set overlap |a & b| / |a | b|; 1.0 when both are empty."""
    if a.n_bits != b.n_bits:
        raise LengthMismatch(f"fingerprint lengths differ: {a.n_bits} vs {b.n_bits}")
    union = a.bits | b.bits
    if union == 0:
        return 1.0
    inter = a.bits & b.bits
    return inter.bit_count() / union.bit_count()
