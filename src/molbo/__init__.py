"""Bayesian optimization of small molecules over a synthesis graph.

Gaussian-process models over molecular kernels (path-fingerprint
Tanimoto, an optimal-transport dissimilarity, and their sum) drive a
random-walk explorer of synthesizable molecules; every recommendation
comes with a replayable synthesis recipe.
"""

from .acquisition import (
    AcquisitionKind,
    EnsembleWeights,
    ei,
    ensemble_pick,
    ttei,
    ucb,
    ucb_beta_schedule,
)
from .bench import BenchSpec, run_bench
from .errors import MolboError
from .fingerprint import Fingerprint, path_fingerprint, tanimoto
from .gp import (
    GpHyperparams,
    GpPosterior,
    build_posterior,
    fit,
    posterior,
    posterior_batch,
)
from .kernel import (
    FingerprintTanimoto,
    KernelCache,
    OTExpSum,
    SumKernel,
    gram,
    psd_project,
)
from .molgraph import (
    BondOrder,
    Element,
    Molecule,
    PERIODIC_TABLE,
    WeightMode,
    add_explicit_hydrogens,
    atom_weight,
    bond_profile,
    load_pool,
    molecular_weight,
    parse_smiles,
    strip_hydrogens,
)
from .objectives import Band, Objective, ObjectiveKind, evaluate
from .optimizer import (
    EvaluationRecord,
    Method,
    RunConfig,
    RunResult,
    explore_acquisition,
    run,
)
from .otdist import (
    CONFIG_ORDER,
    CostMatrices,
    DistanceConfig,
    MISMATCH_PENALTY,
    TransportPlan,
    build_costs,
    distance_vector,
    solve_ot,
    solve_transport,
)
from .synthesis import (
    CONDITION_LIBRARY,
    Condition,
    OracleKind,
    ReactionTemplate,
    RecipeStep,
    SynthesisDag,
    SynthesisNode,
    TEMPLATE_LIBRARY,
    recipe,
    record_synthesis,
    replay_recipe,
    synthesize_detailed,
)

__version__ = "0.1.0"
