"""Cold start: ``import molbo`` loads numpy and no other third-party
library; scipy and networkx load at their first use and give the same
bits there.  Each check runs a fresh interpreter, because the test
process has long since loaded both."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import molbo

SRC = str(Path(molbo.__file__).parents[1])
DEFERRED = ("scipy", "networkx")


def _python(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          check=True, timeout=120, env={**os.environ, "PYTHONPATH": SRC})


COLD_STARTS = pytest.mark.parametrize("args", [
    ("-c", "import molbo"),
    ("-m", "molbo", "dist", "CCO", "CC"),
], ids=["import", "dist"])


def _loaded(args) -> set[str]:
    """``-X importtime`` lists every module the process imports, one per
    line of standard error, whichever way it was imported."""
    err = _python("-X", "importtime", *args).stderr
    loaded = {line.rsplit("|", 1)[1].strip() for line in err.splitlines()
              if line.startswith("import time:") and "|" in line}
    assert "molbo" in loaded
    return loaded


@COLD_STARTS
def test_loads_no_scipy_or_networkx(args):
    assert not sorted(m for m in _loaded(args) if m.split(".")[0] in DEFERRED)


@COLD_STARTS
def test_loads_no_exact_arithmetic_modules(args):
    """Distances are exact on an integer scale, with no ``fractions`` or
    ``decimal`` behind them."""
    assert not _loaded(args) & {"fractions", "decimal"}


#: Each first use, run right after ``import molbo``, and the bits it
#: gave when its library was still imported with the package.
FIRST_USES = {
    "solve": ("scipy.linalg", """
from molbo.gp import _solve
a = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.25], [0.5, 0.25, 2.0]])
rhs = np.array([[1.0, -2.0], [0.5, 3.0], [-1.5, 0.125]])
chol = np.linalg.cholesky(a)
print(_solve(chol, rhs).tobytes().hex(), _solve(chol, rhs, transpose=True).tobytes().hex())
""", "000000000000e03f000000000000f0bf2668153df64bc33f21bb727577e200404dbbc2ac53d6f2bf6070"
     "06e13be2c33f 003a5bfc2783e13f599b129f5866f7bf5d87e0d9ae6fd63fe7e05bd832e1fc3fb12b5d"
     "5e7744f1bf978fd17df405b73f"),
    "ei": ("scipy.special", """
from molbo.acquisition import ei
print(ei(np.array([0.3, -1.2, 2.5, 0.0]), np.array([0.7, 0.1, 1.3, 0.0]), 0.4).tobytes().hex())
""", "58d42b6398b5cd3f00a3f08318789933803d1d31780801400000000000000000"),
    "penlogp": ("networkx", """
from molbo.molgraph import parse_smiles
from molbo.objectives import Objective, ObjectiveKind, evaluate
obj = Objective(kind=ObjectiveKind.PENLOGP)
print(*(evaluate(obj, parse_smiles(s)).hex() for s in ("C1CCCCCCC1CCO", "c1ccc2ccccc2c1", "CCO")))
""", "0x1.7333333333336p+1 0x1.63d70a3d70a3cp+1 0x1.c7ae147ae147bp-1"),
}


@pytest.mark.parametrize("name", FIRST_USES)
def test_first_use_loads_its_library_and_keeps_the_bits(name):
    library, body, bits = FIRST_USES[name]
    code = ("import sys\nimport numpy as np\nimport molbo\n"
            f"assert {library!r} not in sys.modules\n{body}"
            f"assert {library!r} in sys.modules\n")
    assert _python("-c", code).stdout.split() == bits.split()
