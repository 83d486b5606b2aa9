"""Span tracing of molbo's layers from outside the package.

``Tracer.install()`` replaces the names molbo's modules call through
(module globals, two ``KernelCache`` methods and the
``Molecule.canonical_form`` getter) with wrappers that record one span
per call: name, start, end and the enclosing span.  Spans live in flat
arrays until ``save`` writes them out.  Nothing in the package changes,
and ``uninstall`` puts every original back.

A layer's self time is the time its spans cover minus the time their
direct child spans cover.
"""

from __future__ import annotations

import importlib
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

from molbo.molgraph import Molecule

ROOT = "optimizer.run"

# (owner, attribute, span name, layer, work units per call or None).
# The owner is the module whose globals the caller resolves the name in,
# so that patching it reroutes exactly the program's own calls.
_PATCHES = (
    ("molbo.optimizer", "fit", "gp.fit", "gp", None),
    ("molbo.optimizer", "build_posterior", "gp.build_posterior", "gp", None),
    ("molbo.optimizer", "posterior_batch", "gp.posterior_batch", "gp",
     lambda a: len(a[1])),
    ("molbo.optimizer", "explore_acquisition", "optimizer.explore", "optimizer", None),
    ("molbo.optimizer", "synthesize_detailed", "synthesis.draw", "synthesis", None),
    ("molbo.optimizer", "record_synthesis", "synthesis.record", "synthesis", None),
    ("molbo.optimizer", "evaluate", "objectives.evaluate", "objectives", None),
    ("molbo.optimizer", "ensemble_pick", "acquisition.ensemble_pick", "acquisition", None),
    ("molbo.optimizer", "ei", "acquisition.ei", "acquisition", None),
    ("molbo.optimizer", "ucb", "acquisition.ucb", "acquisition", None),
    ("molbo.optimizer", "ttei", "acquisition.ttei", "acquisition", None),
    ("molbo.gp", "cross_gram", "kernel.cross_gram", "kernel",
     lambda a: len(a[0]) * len(a[1])),
    ("molbo.gp", "gram", "kernel.gram", "kernel",
     lambda a: len(a[0]) * (len(a[0]) + 1) // 2),
    ("molbo.gp", "psd_project", "kernel.psd_project", "kernel", None),
    ("molbo.kernel", "distance_vector", "otdist.distance_vector", "otdist", None),
    ("molbo.kernel", "path_fingerprint", "fingerprint.build", "fingerprint", None),
    ("molbo.kernel", "tanimoto", "fingerprint.tanimoto", "fingerprint", None),
    ("molbo.kernel:KernelCache", "distance_vector", "kernel.cache_distance", "kernel", None),
    ("molbo.kernel:KernelCache", "fingerprint", "kernel.cache_fingerprint", "kernel", None),
    ("molbo.otdist", "solve_transport", "otdist.solve_transport", "otdist", None),
    ("molbo.synthesis", "strip_hydrogens", "molgraph.strip_hydrogens", "molgraph", None),
    ("molbo.synthesis", "add_explicit_hydrogens", "molgraph.add_hydrogens", "molgraph", None),
)
_CANONICAL = "molgraph.canonical_form"
_CACHE_SPANS = ("kernel.cache_distance", "kernel.cache_fingerprint")
_COMPUTE = ("otdist.distance_vector", "fingerprint.build")

LAYERS = (
    "optimizer", "acquisition", "gp", "kernel", "otdist",
    "fingerprint", "synthesis", "molgraph", "objectives",
)
LAYER_OF = {name: layer for _, _, name, layer, _ in _PATCHES}
LAYER_OF[_CANONICAL] = "molgraph"
LAYER_OF[ROOT] = "optimizer"


def _owner(path: str):
    """``"pkg.module"`` or ``"pkg.module:Class"``."""
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.units: Counter = Counter()
        self.errors: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, units=None):
        nid = self._id(name)
        stack, ids, parents = self._stack, self.name_id, self.parent
        starts, ends = self.start, self.end

        def traced(*args, **kwargs):
            idx = len(starts)
            ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            if units is not None:
                self.units[name] += units(args)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.errors[name] += 1
                raise
            finally:
                ends[idx] = perf_counter()
                stack.pop()

        return traced

    def call(self, name: str, fn, *args, **kwargs):
        """One span around a call from the benchmark's own code."""
        return self.wrap(name, fn)(*args, **kwargs)

    def install(self):
        for path, attr, name, _, units in _PATCHES:
            owner = _owner(path)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, units))
        prop = Molecule.__dict__["canonical_form"]
        slow = self.wrap(_CANONICAL, prop.fget)

        def canonical_form(mol):
            # Only the first access computes; later ones read the cache and
            # are not spans.  ``_canonical`` is that cache.
            if mol._canonical is None:
                return slow(mol)
            return mol._canonical

        self._saved.append((Molecule, "canonical_form", prop))
        Molecule.canonical_form = property(canonical_form, doc=prop.__doc__)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- analysis -------------------------------------------------------

    def arrays(self):
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        return name_id, parent, dur

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds, work
        units, calls that raised, and calls that had to compute a
        distance or a fingerprint (cache misses)."""
        name_id, parent, dur = self.arrays()
        n = len(dur)
        nested = parent >= 0
        child_s = np.bincount(parent[nested], weights=dur[nested], minlength=n)
        self_s = dur - child_s
        k = len(self.names)
        out = {}
        calls = np.bincount(name_id, minlength=k)
        incl = np.bincount(name_id, weights=dur, minlength=k)
        excl = np.bincount(name_id, weights=self_s, minlength=k)
        compute = np.isin(name_id, [self._ids[c] for c in _COMPUTE if c in self._ids])
        missed = np.unique(parent[compute & nested])
        misses = np.bincount(name_id[missed], minlength=k)
        for i, name in enumerate(self.names):
            out[name] = {
                "calls": int(calls[i]),
                "s": float(incl[i]),
                "self_s": float(excl[i]),
                "misses": int(misses[i]),
                "units": int(self.units[name]),
                "errors": int(self.errors[name]),
            }
        return out

    def save(self, path):
        name_id, parent, _ = self.arrays()
        np.savez(
            path,
            names=np.array(self.names),
            name_id=name_id,
            parent=parent,
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
        )


def layer_metrics(summary: dict, stalls: int, overhead_s: float, untraced_s: float) -> dict:
    """The per-layer metrics, as ``{name: (value, unit)}``."""

    def get(name, field):
        return summary.get(name, {}).get(field, 0)

    lookups = sum(get(n, "calls") for n in _CACHE_SPANS)
    misses = sum(get(n, "misses") for n in _CACHE_SPANS)
    draws = get("synthesis.draw", "calls")
    out = {
        "otdist.pairs": (get("otdist.distance_vector", "calls"), "count"),
        "otdist.pair_s": (get("otdist.distance_vector", "s"), "s"),
        "otdist.solves": (get("otdist.solve_transport", "calls"), "count"),
        "otdist.solve_s": (get("otdist.solve_transport", "s"), "s"),
        "fingerprint.builds": (get("fingerprint.build", "calls"), "count"),
        "fingerprint.build_s": (get("fingerprint.build", "s"), "s"),
        "fingerprint.tanimoto_calls": (get("fingerprint.tanimoto", "calls"), "count"),
        "fingerprint.tanimoto_s": (get("fingerprint.tanimoto", "s"), "s"),
        "kernel.values": (get("kernel.cross_gram", "units") + get("kernel.gram", "units"), "count"),
        "kernel.cross_gram_s": (get("kernel.cross_gram", "self_s"), "s"),
        "kernel.cache_lookups": (lookups, "count"),
        "kernel.cache_hit_ratio": ((lookups - misses) / lookups if lookups else 0.0, "ratio"),
        "kernel.psd_project_calls": (get("kernel.psd_project", "calls"), "count"),
        "kernel.psd_project_s": (get("kernel.psd_project", "s"), "s"),
        "gp.fit_calls": (get("gp.fit", "calls"), "count"),
        "gp.fit_s": (get("gp.fit", "s"), "s"),
        "gp.fit_failures": (get("gp.fit", "errors"), "count"),
        "gp.build_posterior_s": (get("gp.build_posterior", "s"), "s"),
        "gp.posterior_batch_s": (get("gp.posterior_batch", "s"), "s"),
        "gp.scored": (get("gp.posterior_batch", "units"), "count"),
        "synthesis.draws": (draws, "count"),
        "synthesis.draw_s": (get("synthesis.draw", "s"), "s"),
        "synthesis.novel_ratio": (
            get("synthesis.record", "calls") / draws if draws else 0.0, "ratio"),
        "synthesis.record_s": (get("synthesis.record", "s"), "s"),
        "molgraph.strip_calls": (get("molgraph.strip_hydrogens", "calls"), "count"),
        "molgraph.strip_s": (get("molgraph.strip_hydrogens", "s"), "s"),
        "molgraph.expand_calls": (get("molgraph.add_hydrogens", "calls"), "count"),
        "molgraph.expand_s": (get("molgraph.add_hydrogens", "s"), "s"),
        "molgraph.canonical_calls": (get(_CANONICAL, "calls"), "count"),
        "molgraph.canonical_s": (get(_CANONICAL, "s"), "s"),
        "objectives.evals": (get("objectives.evaluate", "calls"), "count"),
        "objectives.eval_s": (get("objectives.evaluate", "s"), "s"),
        "acquisition.s": (
            sum(get(n, "s") for n in summary if LAYER_OF.get(n) == "acquisition"), "s"),
        "optimizer.explore_s": (get("optimizer.explore", "self_s"), "s"),
        "optimizer.self_s": (get(ROOT, "self_s"), "s"),
        "optimizer.stalls": (stalls, "count"),
    }
    for layer in LAYERS:
        out[f"layer.{layer}_self_s"] = (
            sum(v["self_s"] for n, v in summary.items() if LAYER_OF.get(n) == layer), "s")
    out["trace.spans"] = (sum(v["calls"] for v in summary.values()), "count")
    out["trace.overhead_s"] = (overhead_s, "s")
    out["trace.overhead_ratio"] = (overhead_s / untraced_s if untraced_s else 0.0, "ratio")
    return out
