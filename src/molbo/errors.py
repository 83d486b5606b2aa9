"""Exception hierarchy shared across the toolkit."""


class MolboError(Exception):
    """Base class for all toolkit errors."""


class SmilesParseError(MolboError):
    """Base class for errors raised while reading a SMILES string."""


class UnknownToken(SmilesParseError):
    """Unsupported or malformed token (charges, isotopes, stereo marks, junk)."""


class UnbalancedBranch(SmilesParseError):
    """Branch parentheses do not pair up."""


class UnclosedRing(SmilesParseError):
    """A ring-closure digit was opened but never closed."""


class MultiFragmentInput(SmilesParseError):
    """Disconnected input; the dot separator is unsupported."""


class ValenceExceeded(MolboError):
    """An atom carries more bond order than its valence allows."""


class InvalidMolecule(MolboError):
    """Structural invariant violation (self bonds, duplicate bonds, ...)."""


class LengthMismatch(MolboError):
    """Fingerprints of different bit lengths cannot be compared."""


class SolverFailure(MolboError):
    """The transport solver failed to converge."""


class EigenFailure(MolboError):
    """Eigendecomposition failed during PSD projection."""


class CholeskyFailure(MolboError):
    """Cholesky factorization failed; signals insufficient jitter."""


class FitFailure(MolboError):
    """Every hyperparameter candidate failed to factorize."""


class MissingContribution(MolboError):
    """Objective contribution table does not cover an element."""


class CycleDetected(MolboError):
    """Synthesis DAG update would create a cycle (signals a bug)."""


class UnknownMolecule(MolboError):
    """Molecule not present in the synthesis DAG."""
