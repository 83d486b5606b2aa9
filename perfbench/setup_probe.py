"""Set-up of one workload in a fresh interpreter, for the ``setup_s`` metric.

    python3 perfbench/setup_probe.py <workload>

Imports molbo, then parses, hydrogen-expands and evaluates the initial
pool by running the workload with a budget of zero.  ``run.py`` times the
whole process, interpreter start included.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from molbo import run  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

run(WORKLOADS[sys.argv[1]].run_config(DEFAULT_SEED, budget=0))
