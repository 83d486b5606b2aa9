"""Path-based topological fingerprints and Tanimoto similarity.

Every simple path over heavy atoms with 0..max_path_len bonds yields a
descriptor string (element symbols alternating with bond symbols, read
in the lexicographically smaller direction); descriptors are hashed to
bit positions.  The hash is pinned so fingerprints are bit-stable: FNV-1a
64-bit with the offset basis XORed with the seed 0x5EED, reduced modulo
``n_bits``.  Molecules of one run share most of their descriptors, so
the hash is memoized per descriptor string.

A fingerprint is an OR over descriptor hashes, so a join product ``P``
that bonds reagents ``A`` and ``B`` by one new bond ``(u, v)`` inherits
theirs: ``bits(P) = bits(A) | bits(B) | bits(paths crossing (u, v))``.
The identity needs the new bond to be a bridge.  Then every path of
``P`` that avoids it lies inside one reagent, and every path that uses it
is a path rooted at ``u`` on the ``A`` side joined to one rooted at ``v``
on the ``B`` side.  A bond that closed a ring would leave paths that run
from ``A`` to ``B`` and back without crossing it.  Every join bond
bridges two separate molecules, so ``path_fingerprint`` given the
reagents' fingerprints enumerates only the crossing paths.  Every walk
reads the molecule's adjacency as it goes and skips hydrogen neighbours,
so a crossing walk touches only the atoms within reach of the join bond.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import LengthMismatch
from .molgraph import Molecule

_FNV_OFFSET = 0xCBF29CE484222325 ^ 0x5EED
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF

DEFAULT_N_BITS = 2048
DEFAULT_MAX_PATH_LEN = 7


@functools.lru_cache(maxsize=1 << 16)
def _hash64(descriptor: str) -> int:
    h = _FNV_OFFSET
    for byte in descriptor.encode("ascii"):
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


def check_parameters(n_bits: int, max_path_len: int) -> None:
    """``ValueError`` unless ``n_bits`` is a power of two >= 64 and
    ``max_path_len`` lies in 1..10."""
    if n_bits < 64 or n_bits & (n_bits - 1):
        raise ValueError("n_bits must be a power of two >= 64")
    if not 1 <= max_path_len <= 10:
        raise ValueError("max_path_len must lie in 1..10")


@dataclass(frozen=True)
class Fingerprint:
    bits: int  # bit i set <=> integer bit i set
    n_bits: int
    max_path_len: int


def _walk(mol: Molecule, root: int, levels: list[dict[str, str]],
          blocked: tuple[int, ...] = ()) -> None:
    """Record each simple heavy-atom path from ``root`` with at most
    ``len(levels) - 1`` bonds that passes no ``blocked`` atom: a path of
    ``k`` bonds sets ``levels[k][outward] = inward``, its readings from the
    root outward and back to the root.  The walk reads the molecule's
    adjacency as it goes and skips hydrogen neighbours; nothing is built
    for the whole molecule first."""
    atoms = mol.atoms
    adjacency = mol._adjacency
    max_bonds = len(levels) - 1
    symbol = atoms[root].symbol
    levels[0][symbol] = symbol
    on_path = set(blocked)

    def extend(tail: int, fwd: str, rev: str, bonds: int):
        on_path.add(tail)
        level = levels[bonds]
        for j, order in adjacency[tail]:
            if j in on_path:
                continue
            sj = atoms[j].symbol
            if sj == "H":
                continue
            bond = order.symbol
            f = fwd + bond + sj
            r = level[f] = sj + bond + rev
            if bonds < max_bonds:
                extend(j, f, r, bonds + 1)
        on_path.remove(tail)

    if max_bonds > 0:
        extend(root, symbol, symbol, 1)


def path_descriptors(mol: Molecule, max_path_len: int) -> set[str]:
    """Distinct descriptor strings of all simple heavy-atom paths with
    0..max_path_len bonds, each read in its smaller direction."""
    # One dict for every length: a path needs only its two readings, and
    # the few distinct ones are compared once at the end.
    readings: dict[str, str] = {}
    levels = [readings] * (max_path_len + 1)
    for root, atom in enumerate(mol.atoms):
        if atom.symbol != "H":
            _walk(mol, root, levels)
    return set(map(min, readings.items()))


def crossing_descriptors(mol: Molecule, u: int, v: int, max_path_len: int) -> set[str]:
    """Distinct descriptors of the simple heavy-atom paths with at most
    ``max_path_len`` bonds that use the bridge bond ``(u, v)``, each read
    in its smaller direction.

    Such a path is an ``i``-bond path rooted at ``u`` that avoids ``v``,
    the bond, and a ``j``-bond path rooted at ``v`` that avoids ``u``,
    with ``i + j + 1 <= max_path_len``.
    """
    if mol.atoms[u].symbol == "H" or mol.atoms[v].symbol == "H":
        return set()
    bond = mol.bonds[(u, v) if u < v else (v, u)].symbol
    side_u: list[dict[str, str]] = [{} for _ in range(max_path_len)]
    side_v: list[dict[str, str]] = [{} for _ in range(max_path_len)]
    _walk(mol, u, side_u, (v,))
    _walk(mol, v, side_v, (u,))
    descriptors = set()
    for i, level_u in enumerate(side_u):
        for level_v in side_v[: max_path_len - i]:
            for fu, ru in level_u.items():
                for fv, rv in level_v.items():
                    f = ru + bond + fv
                    r = rv + bond + fu
                    descriptors.add(f if f <= r else r)
    return descriptors


def path_fingerprint(
    mol: Molecule,
    n_bits: int = DEFAULT_N_BITS,
    max_path_len: int = DEFAULT_MAX_PATH_LEN,
    reagents: tuple[Fingerprint, Fingerprint] | None = None,
) -> Fingerprint:
    """Hash heavy-atom path descriptors into a fixed-length bit vector.

    ``n_bits`` must be a power of two >= 64; ``max_path_len`` counts
    bonds and must lie in 1..10.  Hydrogens never enter paths.

    ``reagents``, for a join product (``mol._origin`` is set), holds the
    fingerprints of its two reagents with the same ``n_bits`` and
    ``max_path_len``.  Their bits are ORed with the hashes of the paths
    that cross the join bond alone; the result equals full enumeration.
    """
    check_parameters(n_bits, max_path_len)
    if reagents is None:
        bits = 0
        descriptors = path_descriptors(mol, max_path_len)
    else:
        if mol._origin is None:
            raise ValueError("reagent fingerprints given for a molecule with no origin")
        if any((fp.n_bits, fp.max_path_len) != (n_bits, max_path_len) for fp in reagents):
            raise ValueError("reagent fingerprints differ in n_bits or max_path_len")
        bits = reagents[0].bits | reagents[1].bits
        _, _, u, v = mol._origin
        descriptors = crossing_descriptors(mol, u, v, max_path_len)
    for descriptor in descriptors:
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
