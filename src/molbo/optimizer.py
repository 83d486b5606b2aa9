"""The Bayesian-optimization run: one skeleton, a guided and a random body.

``run`` is the one skeleton.  It bootstraps on the initial pool, writes
the log header, rates molecules (one ``EvaluationRecord`` per rating,
logged as it is made, best-so-far tracked) and returns the
``RunResult``.  Only the choice of what to rate next differs by method:

- the guided body refits the GP each iteration on everything rated so
  far, picks an acquisition from the adaptive ensemble, and optimizes it
  by a random walk on the synthesis graph (repeatedly draw a reagent
  subset and a condition subset, ask the oracle for products, and keep
  novel molecules until the required number of successful steps); it
  then rates the acquisition argmax over the unrated molecules of the
  whole (persistent) pool, and ends the run, stalled, when none is left;
- the random body runs the same walk and rates every new unique product
  directly.

Both bodies draw from the one walk generator ``_walk``.  Each draw reads
a reagent count and a condition count and picks that many distinct
indices with ``_pick``.  A ``_Pcg64Stream`` makes the draws in Python
from blocks of the exploration generator's raw PCG64 outputs, with the
values of ``random``, ``integers`` and ``choice(n, size, replace=False)``.
The generator belongs to the walk until the walk closes, and only then
stands where those numpy calls would have left it; no one may draw from
it in between.  ``tests/test_optimizer.py::TestPick`` is the test that
fails on a numpy that draws differently.  Randomness flows from a single
seed split into two child streams: one drives exploration draws (shared
verbatim by both methods, so paired seeds explore identically), the
other drives model fitting and acquisition sampling.

The log header holds the run's config as ``config_to_json`` writes it.
``config_from_json`` is its inverse and the package's one config reader:
it checks each key as it reads it and supplies every default; the CLI's
``gram`` and ``analyze`` use its kernel and objective readers alone.
"""

from __future__ import annotations

import enum
import itertools
import json
from dataclasses import asdict, dataclass, replace

import numpy as np

from .acquisition import (
    DEFAULT_TT_EPSILON,
    AcquisitionKind,
    EnsembleWeights,
    ei,
    ensemble_pick,
    ttei,
    ucb,
    ucb_beta_schedule,
)
from .errors import FitFailure
from .gp import GpHyperparams, build_posterior, fit, posterior_batch
from .kernel import FingerprintTanimoto, KernelCache, KernelSpec, OTExpSum, SumKernel
from .molgraph import Molecule, parse_smiles
from .objectives import Band, Objective, ObjectiveKind, evaluate
from .synthesis import (
    CONDITION_LIBRARY,
    Condition,
    OracleKind,
    SynthesisDag,
    _condition_id,
    _condition_ids,
    record_synthesis,
    synthesize_detailed,
)

# Chance that a draw takes two reagents rather than one.  Neither oracle
# fires on one reagent, so one-reagent draws always fail; they stay because
# they are part of the seeded exploration stream.
REAGENT_PAIR_PROBABILITY = 0.8
STALL_FACTOR = 100


class Method(enum.Enum):
    CHEMBO = "chembo"
    RAND = "rand"


@dataclass(frozen=True)
class RunConfig:
    initial_pool: tuple[str, ...]
    objective: Objective
    kernel_family: KernelSpec
    budget_t: int
    seed: int
    method: Method = Method.CHEMBO
    oracle: OracleKind = OracleKind.TEMPLATE
    conditions: tuple[Condition, ...] = CONDITION_LIBRARY
    explorer_steps: int = 20

    def __post_init__(self):
        if len(self.initial_pool) < 2:
            raise ValueError("initial pool needs at least two molecules")
        if self.budget_t < 0:
            raise ValueError("budget_t must be nonnegative")
        if self.explorer_steps < 1:
            raise ValueError("explorer_steps must be at least 1")
        if not self.conditions:
            raise ValueError("condition library must not be empty")
        _condition_ids(self.conditions)  # raises on an unknown condition


@dataclass(frozen=True)
class EvaluationRecord:
    iteration: int
    molecule: str
    value: float
    acquisition_used: str | None
    pool_size_after: int


@dataclass
class RunResult:
    records: list[EvaluationRecord]
    best_molecule: str
    best_value: float
    dag: SynthesisDag
    initial_evaluations: list[tuple[str, float]]
    stalled: bool = False

    def best_so_far(self) -> np.ndarray:
        """Running maximum: entry 0 is the bootstrap best, entry t the
        best after iteration t."""
        curve = [max(v for _, v in self.initial_evaluations)]
        for rec in self.records:
            curve.append(max(curve[-1], rec.value))
        return np.array(curve)


# ---------------------------------------------------------------------------
# Random-walk exploration
# ---------------------------------------------------------------------------

_BLOCK = 128  # raw outputs a stream fetches at a time
_SPAN = 1 << 32  # the widest range of the 32-bit bounded draw


class _Pcg64Stream:
    """The draws of ``Generator.random()`` and scalar
    ``Generator.integers(low, high)``, for ``high - low`` up to ``2**32``,
    on a generator over ``PCG64``, made in Python from blocks of the bit
    generator's raw 64-bit outputs.

    ``random()`` is an output's top 53 bits times ``2**-53``.
    ``integers`` is numpy's 32-bit Lemire draw with rejection, taken from
    PCG64's half-word buffer (each output gives its low half, then its
    high half); a range of one value draws nothing.  The blocks come from
    the caller's bit generator, which belongs to the stream until ``sync``
    steps it back over the unused outputs (PCG64 is an LCG, so ``advance``
    goes backwards too) and writes the buffer (``has_uint32``, and
    ``uinteger`` even when stale): only then does it stand where numpy's
    own calls would have left it.
    """

    def __init__(self, rng: np.random.Generator):
        bitgen = rng.bit_generator
        if type(bitgen) is not np.random.PCG64:
            raise ValueError(
                f"walk draws need a Generator over PCG64, not {type(bitgen).__name__}")
        self._bitgen = bitgen
        state = bitgen.state
        self._has32, self._uint32 = state["has_uint32"], state["uinteger"]
        self._raw: list[int] = []  # fetched outputs not yet used, next last

    def _next64(self) -> int:
        try:
            return self._raw.pop()
        except IndexError:
            self._raw = self._bitgen.random_raw(_BLOCK)[::-1].tolist()
            return self._raw.pop()

    def _next32(self) -> int:
        if self._has32:
            self._has32 = 0
            return self._uint32
        x = self._next64()
        self._has32, self._uint32 = 1, x >> 32
        return x & 0xFFFFFFFF

    def random(self) -> float:
        return (self._next64() >> 11) * 2.0**-53

    def integers(self, low: int, high: int) -> int:
        n = high - low
        if n == 1:
            return low
        if not 1 < n < _SPAN:
            if n != _SPAN:
                raise ValueError(f"range of {n} values: the stream draws 1 to 2**32")
            return low + self._next32()
        m = self._next32() * n
        if m & 0xFFFFFFFF < n:
            threshold = _SPAN % n
            while m & 0xFFFFFFFF < threshold:
                m = self._next32() * n
        return low + (m >> 32)

    def sync(self):
        """Hand the generator back; a second sync changes nothing."""
        self._bitgen.advance(-len(self._raw) % 2**128)
        self._raw = []
        state = self._bitgen.state
        state["has_uint32"], state["uinteger"] = self._has32, self._uint32
        self._bitgen.state = state


def _pick(stream: _Pcg64Stream, n, size):
    """``size`` (at most 2) distinct indices below ``n`` (at most
    ``2**32``): the list ``rng.choice(n, size, replace=False).tolist()``
    on the stream's generator ``rng``, which the stream's ``sync`` leaves
    in the state ``choice`` leaves it.  The stream makes the draws, not
    ``choice``.

    For these sizes ``choice`` runs Floyd's algorithm, drawing each value
    through the bounded routine that ``integers`` uses, then draws the one
    swap of its shuffle the same way; a range of one value draws nothing.
    The stream's ``integers`` makes those draws without numpy's per-call
    overhead.  ``tests/test_optimizer.py::TestPick`` checks every value
    and the synced state against ``choice``; it is the test that fails on
    a numpy that draws differently.
    """
    if size > 2:
        raise ValueError("_pick draws at most two indices")
    if n > _SPAN:
        raise ValueError(f"_pick draws below at most 2**32, not {n}")
    if size == 0 or n == 1:
        return [0] * size
    if size == 1:
        return [stream.integers(0, n)]
    a = stream.integers(0, n - 1)
    b = stream.integers(0, n)
    if b == a:
        b = n - 1
    return [b, a] if stream.integers(0, 2) == 0 else [a, b]


def _walk(pool, conditions, past, oracle, rng, dag, max_failures, step):
    """Rand-Select walk on the synthesis graph, one draw at a time.

    A draw picks one or two reagents from ``pool`` and one or two
    conditions and asks the oracle for products: it reads the reagent
    count from ``random()`` (two with ``REAGENT_PAIR_PROBABILITY``) and
    the condition count from ``integers(1, 3)``, each capped by what there
    is, and picks the indices with ``_pick``; the conditions go to the
    oracle as their id strings, in the order ``conditions`` lists them,
    one tuple per distinct pick built once per walk (so the oracle hashes
    no ``Condition``).  It succeeds when a product lies outside ``past``
    and the pool: the draw is recorded in ``dag`` (if given) as ``step``
    with the same ids, the new molecules are appended to ``pool`` and
    yielded.  The walk returns after ``max_failures`` consecutive failed
    draws.

    Every draw comes from a ``_Pcg64Stream`` over ``rng``, so ``rng`` must
    be a ``Generator`` over ``PCG64`` (a ``ValueError`` otherwise), and
    the values are those of ``rng``'s own ``random``, ``integers`` and
    ``choice`` calls (``TestPick`` fails on a numpy that draws
    differently).  ``rng`` belongs to the walk until it closes (returns,
    raises or is closed), and only then stands where those calls leave it;
    the consumer must not draw from it between successes.  Nothing is
    drawn until the consumer asks for the next success.
    """
    conditions = tuple(conditions)
    ids = tuple(_condition_id(c) for c in conditions)
    picked = {}  # sorted condition indices -> their ids
    keys = {m.canonical_form for m in pool}
    stream = _Pcg64Stream(rng)
    failures = 0
    try:
        while failures < max_failures:
            size = 2 if stream.random() < REAGENT_PAIR_PROBABILITY else 1
            size = min(size, len(pool))
            reagents = [pool[k] for k in _pick(stream, len(pool), size)]
            q_size = min(stream.integers(1, 3), len(conditions))
            q = tuple(sorted(_pick(stream, len(conditions), q_size)))
            cond_ids = picked.get(q)
            if cond_ids is None:
                cond_ids = picked[q] = tuple(ids[k] for k in q)
            outcome = synthesize_detailed(reagents, cond_ids, oracle)
            new = []
            if outcome is not None:
                products, template = outcome
                new = [
                    p
                    for p in sorted(products, key=lambda m: m.canonical_form)
                    if p.canonical_form not in keys and p.canonical_form not in past
                ]
            if not new:
                failures += 1
                continue
            failures = 0
            if dag is not None:
                record_synthesis(
                    dag, new, [r.canonical_form for r in reagents], template, cond_ids, step
                )
            step += 1
            pool.extend(new)
            keys.update(p.canonical_form for p in new)
            yield new
    finally:
        stream.sync()


def explore_acquisition(
    pool: list[Molecule],
    conditions,
    past: set[str],
    n: int,
    oracle: OracleKind,
    scorer,
    rng: np.random.Generator,
    dag: SynthesisDag | None = None,
    start_step: int = 1,
):
    """Random walk on the synthesis graph, then argmax of the scorer.

    Runs until ``n`` successful steps (a success adds at least one
    molecule outside ``past`` and the pool); products are appended to
    ``pool`` in place so growth persists across outer iterations.  After
    ``100 * n`` consecutive failed draws the walk stops early, stalled.
    The argmax is over pool molecules outside ``past`` (None if none).
    The walk is closed before the scorer runs, so ``rng`` then stands
    where numpy's own draws would have left it.

    Returns ``(best candidate or None, stalled, steps taken)``.
    """
    if not pool:
        raise ValueError("pool must not be empty")
    walk = _walk(pool, conditions, past, oracle, rng, dag, STALL_FACTOR * n, start_step)
    successes = sum(1 for _ in itertools.islice(walk, n))
    walk.close()

    candidates = [m for m in pool if m.canonical_form not in past]
    if not candidates:
        return None, successes < n, successes
    scores = np.asarray(scorer(candidates), dtype=float)
    best_idx = 0
    for i in range(1, len(candidates)):
        if scores[i] > scores[best_idx] or (
            scores[i] == scores[best_idx]
            and candidates[i].canonical_form < candidates[best_idx].canonical_form
        ):
            best_idx = i
    return candidates[best_idx], successes < n, successes


# ---------------------------------------------------------------------------
# Logging: the header's config codec and the log writer
# ---------------------------------------------------------------------------

_REQUIRED = object()


def _entry(d: dict, key: str, read, default=_REQUIRED):
    """``read(d[key])``, or ``default`` if the key is absent; a
    ``ValueError`` naming the key if it is required and absent, or if
    ``read`` rejects its value."""
    if key not in d:
        if default is _REQUIRED:
            raise ValueError(f"config key {key!r} is required")
        return default
    try:
        return read(d[key])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"config key {key!r}: {exc}") from None


def _of_type(*types):
    """A reader that passes a value of one of ``types`` through; a bool,
    which Python counts as an int, is none of them."""
    names = " or ".join(t.__name__ for t in types)

    def read(value):
        if isinstance(value, bool) or not isinstance(value, types):
            raise TypeError(f"must be {names}, not {type(value).__name__}")
        return value

    return read


_INT, _NUMBER, _STR, _LIST, _OBJECT = (
    _of_type(int), _of_type(int, float), _of_type(str), _of_type(list), _of_type(dict))


def _band_from_json(raw) -> Band:
    """A band of floats; ``floor`` defaults to 0.05."""
    raw = _OBJECT(raw)
    return Band(*(float(_entry(raw, k, _NUMBER)) for k in "abcd"),
                floor=float(_entry(raw, "floor", _NUMBER, 0.05)))


def objective_from_json(d: dict) -> Objective:
    """The objective of a header's ``objective`` object.  A partial
    ``contribution_table`` or ``qed_bands`` merges over the defaults;
    contributions keep the numbers given."""
    objective = Objective(kind=_entry(d, "kind", ObjectiveKind, ObjectiveKind.QED),
                          target=_entry(d, "target", _INT, 25))
    table = _entry(d, "contribution_table",
                   lambda t: {k: _NUMBER(v) for k, v in _OBJECT(t).items()}, {})
    bands = _entry(d, "qed_bands",
                   lambda t: {k: _entry(t, k, _band_from_json) for k in _OBJECT(t)}, {})
    return replace(objective, contributions={**objective.contributions, **table},
                   qed_bands={**objective.qed_bands, **bands})


def kernel_family_to_json(spec: KernelSpec) -> dict:
    if isinstance(spec, FingerprintTanimoto):
        return {"family": "fingerprint", **asdict(spec)}
    if isinstance(spec, OTExpSum):
        return {"family": "ot", "betas": list(spec.betas)}
    if isinstance(spec, SumKernel):
        return {**kernel_family_to_json(spec.fingerprint), **kernel_family_to_json(spec.ot),
                "family": "sum", "alpha1": spec.alpha1, "alpha2": spec.alpha2}
    raise TypeError(f"unknown kernel spec {spec!r}")


def _spec_field(spec_type, key: str, read):
    """A reader of field ``key`` of a kernel spec: ``read``, then the
    spec's own range check on a spec that sets that field alone."""
    return lambda value: getattr(spec_type(**{key: read(value)}), key)


def kernel_family_from_json(d: dict) -> KernelSpec:
    """The kernel spec of a header's ``kernel`` object.  Every kernel key
    present is checked, type and range, whether or not the family uses
    it; an absent key takes the kernel's default.  Betas keep the numbers
    given, alphas become floats."""
    fingerprint = FingerprintTanimoto(**{
        k: _entry(d, k, _spec_field(FingerprintTanimoto, k, _INT))
        for k in ("n_bits", "max_path_len") if k in d})
    ot = _entry(d, "betas", lambda v: OTExpSum(tuple(map(_NUMBER, _LIST(v)))), OTExpSum())
    alphas = {k: _entry(d, k, _spec_field(SumKernel, k, lambda v: float(_NUMBER(v))))
              for k in ("alpha1", "alpha2") if k in d}
    specs = {"fingerprint": fingerprint, "ot": ot,
             "sum": SumKernel(**alphas, fingerprint=fingerprint, ot=ot)}
    family = _entry(d, "family", _STR, "ot")
    if family not in specs:
        raise ValueError(f"config key 'family': unknown kernel family {family!r}")
    return specs[family]


def config_to_json(cfg: RunConfig) -> dict:
    return {
        "initial_pool": list(cfg.initial_pool),
        "objective": {
            "kind": cfg.objective.kind.value,
            "target": cfg.objective.target,
            "contribution_table": dict(sorted(cfg.objective.contributions.items())),
            "qed_bands": {k: asdict(b) for k, b in sorted(cfg.objective.qed_bands.items())},
        },
        "kernel": kernel_family_to_json(cfg.kernel_family),
        "budget_t": cfg.budget_t,
        "seed": cfg.seed,
        "method": cfg.method.value,
        "oracle": cfg.oracle.value,
        "conditions": [c.id for c in cfg.conditions],
        "explorer_steps": cfg.explorer_steps,
    }


def config_from_json(d: dict) -> RunConfig:
    """The ``RunConfig`` of a header's config, ``config_to_json``'s
    inverse.  ``initial_pool`` and ``seed`` are required; every other key
    takes its default when absent: budget 10, the guided method, the
    template oracle, the oracle's conditions (``join`` alone for the join
    oracle, the whole library otherwise; an empty list counts as absent),
    20 explorer steps, and the defaults of ``objective_from_json`` and
    ``kernel_family_from_json``.  Each key is checked as it is read."""
    oracle = _entry(d, "oracle", OracleKind, OracleKind.TEMPLATE)
    default_conditions = (Condition("join"),) if oracle is OracleKind.JOIN else CONDITION_LIBRARY
    return RunConfig(
        initial_pool=_entry(d, "initial_pool", lambda v: tuple(map(_STR, _LIST(v)))),
        objective=objective_from_json(_entry(d, "objective", _OBJECT, {})),
        kernel_family=kernel_family_from_json(_entry(d, "kernel", _OBJECT, {})),
        budget_t=_entry(d, "budget_t", _INT, 10),
        seed=_entry(d, "seed", _INT),
        method=_entry(d, "method", Method, Method.CHEMBO),
        oracle=oracle,
        conditions=_entry(d, "conditions", lambda v: tuple(Condition(_STR(c)) for c in _LIST(v))
                          or default_conditions, default_conditions),
        explorer_steps=_entry(d, "explorer_steps", _INT, 20),
    )


class RunLogWriter:
    """Incremental JSONL run log: one header line with the full config
    and bootstrap evaluations, then one line per evaluation record,
    flushed as written.  Timings are kept out of the file so identical
    configs and seeds produce byte-identical logs."""

    def __init__(self, path):
        self._fh = open(path, "w", encoding="utf-8")

    def write_header(self, cfg: RunConfig, initial_evaluations):
        self._write({
            "config": config_to_json(cfg),
            "initial_evaluations": [[k, v] for k, v in initial_evaluations],
        })

    def write_record(self, rec: EvaluationRecord):
        self._write(
            {
                "iteration": rec.iteration,
                "molecule": rec.molecule,
                "value": rec.value,
                "acquisition_used": rec.acquisition_used,
                "pool_size_after": rec.pool_size_after,
            }
        )

    def _write(self, payload):
        self._fh.write(json.dumps(payload, sort_keys=True))
        self._fh.write("\n")
        self._fh.flush()

    def close(self):
        self._fh.close()


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def _bootstrap(cfg: RunConfig):
    """Parse and dedup the initial pool, keeping its hydrogens implicit;
    evaluate it; seed the DAG."""
    pool: list[Molecule] = []
    seen: set[str] = set()
    for smiles in cfg.initial_pool:
        mol = parse_smiles(smiles)
        if mol.canonical_form in seen:
            continue
        seen.add(mol.canonical_form)
        pool.append(mol)
    if len(pool) < 2:
        raise ValueError("initial pool needs at least two distinct molecules")
    dag = SynthesisDag()
    evaluated: dict[str, float] = {}
    molecules: dict[str, Molecule] = {}
    for mol in pool:
        dag.add_initial(mol)
        value = evaluate(cfg.objective, mol)
        evaluated[mol.canonical_form] = value
        molecules[mol.canonical_form] = mol
    return pool, dag, evaluated, molecules


def _streams(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    explore_seq, model_seq = np.random.SeedSequence(seed).spawn(2)
    return np.random.default_rng(explore_seq), np.random.default_rng(model_seq)


def _default_hyper(cfg: RunConfig, ys) -> GpHyperparams:
    return GpHyperparams(
        kernel_spec=cfg.kernel_family,
        noise_var=1e-4,
        mean_const=float(np.mean(ys)),
        signal_scale=1.0,
    )


def _make_scorer(kind, gp_post, best, t, model_rng):
    def scorer(candidates):
        mu, var = posterior_batch(gp_post, candidates)
        sigma = np.sqrt(var)
        if kind is AcquisitionKind.EI:
            return np.atleast_1d(ei(mu, sigma, best))
        if kind is AcquisitionKind.UCB:
            return np.atleast_1d(ucb(mu, sigma, ucb_beta_schedule(t)))
        return ttei(list(zip(mu, sigma)), best, DEFAULT_TT_EPSILON, model_rng)

    return scorer


def _guided(cfg, pool, dag, evaluated, molecules, rate, explore_rng, model_rng) -> bool:
    """The GP-guided body: each of ``budget_t`` iterations refits the GP,
    samples an acquisition from the ensemble, explores, and rates the
    acquisition argmax.  A walk that leaves no unrated molecule ends the
    run.  Returns whether any walk stalled."""
    cache = KernelCache()
    weights = EnsembleWeights()
    prev_hyper: GpHyperparams | None = None
    next_step = 1
    any_stall = False
    for t in range(1, cfg.budget_t + 1):
        train_keys = list(evaluated)
        train_mols = [molecules[k] for k in train_keys]
        train_ys = np.array([evaluated[k] for k in train_keys])
        if len(train_mols) >= 3:
            try:
                hyper = fit(train_mols, train_ys, cfg.kernel_family, model_rng, cache)
            except FitFailure:
                if prev_hyper is None:
                    raise
                hyper = prev_hyper
        else:
            hyper = _default_hyper(cfg, train_ys)
        prev_hyper = hyper
        gp_post = build_posterior(train_mols, train_ys, hyper, cache)

        kind = ensemble_pick(weights, model_rng)
        scorer = _make_scorer(kind, gp_post, max(evaluated.values()), t, model_rng)
        candidate, stalled, steps = explore_acquisition(
            pool,
            cfg.conditions,
            set(evaluated),
            cfg.explorer_steps,
            cfg.oracle,
            scorer,
            explore_rng,
            dag=dag,
            start_step=next_step,
        )
        if candidate is None:
            return True
        next_step += steps
        any_stall = any_stall or stalled
        weights.update(kind, rate(candidate, kind.value))
    return any_stall


def _random(cfg, pool, dag, evaluated, rate, explore_rng) -> bool:
    """The random-search body: one walk for the whole run, every new
    product rated directly, one budget unit per rating, until ``budget_t``
    ratings are spent.  The walk stalls after ``100 * explorer_steps``
    consecutive failed draws.  Returns whether it stalled first."""
    left = cfg.budget_t
    if left == 0:
        return False
    walk = _walk(pool, cfg.conditions, evaluated, cfg.oracle, explore_rng, dag,
                 STALL_FACTOR * cfg.explorer_steps, 1)
    for new in walk:
        for mol in new:
            rate(mol, None)
            left -= 1
            if left == 0:
                return False
    return True


def run(cfg: RunConfig, log_path=None) -> RunResult:
    """Bootstrap on the initial pool, then spend ``budget_t`` ratings with
    the body ``cfg.method`` names, logging each record as it is made."""
    explore_rng, model_rng = _streams(cfg.seed)
    pool, dag, evaluated, molecules = _bootstrap(cfg)
    initial_evaluations = list(evaluated.items())
    writer = RunLogWriter(log_path) if log_path else None
    if writer:
        writer.write_header(cfg, initial_evaluations)
    records: list[EvaluationRecord] = []
    best_key = max(evaluated, key=lambda k: (evaluated[k], k))

    def rate(mol: Molecule, acquisition_used: str | None) -> bool:
        """Rate a molecule not rated before, record it and return
        whether it beats the best so far."""
        nonlocal best_key
        key = mol.canonical_form
        value = evaluated[key] = evaluate(cfg.objective, mol)
        molecules[key] = mol
        improved = value > evaluated[best_key]
        if improved:
            best_key = key
        rec = EvaluationRecord(
            iteration=len(records) + 1,
            molecule=key,
            value=value,
            acquisition_used=acquisition_used,
            pool_size_after=len(pool),
        )
        records.append(rec)
        if writer:
            writer.write_record(rec)
        return improved

    try:
        if cfg.method is Method.CHEMBO:
            stalled = _guided(cfg, pool, dag, evaluated, molecules, rate,
                              explore_rng, model_rng)
        else:
            stalled = _random(cfg, pool, dag, evaluated, rate, explore_rng)
    finally:
        if writer:
            writer.close()

    return RunResult(
        records=records,
        best_molecule=best_key,
        best_value=evaluated[best_key],
        dag=dag,
        initial_evaluations=initial_evaluations,
        stalled=stalled,
    )
