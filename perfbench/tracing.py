"""Spans and counters around extlab's public entry points, from outside.

`Tracer.install` replaces selected functions and methods of the loaded
extlab modules with wrappers that record a span (name, start, end,
parent, op id) and update per-pass counters read from the arguments
and return values; `uninstall` puts the originals back.  Nothing under
the package's source tree is edited: module-level functions are swapped
in every extlab module namespace that imported them, and methods are
swapped on their class.

`Domain` point lookups are far too frequent to keep one span each, so
they are timed as leaves: a call count and a total time, charged to the
enclosing span's child time so that its self time excludes them.
Times are read from the clock given to `Tracer`: the benchmark's
HostClock, so that self times are in the same seconds as its end-to-end
times.
"""

import gzip
import json
import sys
from collections import defaultdict
from statistics import median


class Tracer:
    def __init__(self, clock):
        self.clock = clock
        self.spans = []       # (id, parent, op, name, start, end, child_s)
        self.stack = []       # open: [id, parent, op, name, start, child]
        self.ops = []         # op id -> (pass index, op name)
        self.counts = defaultdict(lambda: defaultdict(float))  # pass -> name
        self.maxima = defaultdict(lambda: defaultdict(float))
        self.pass_index = -1  # -1 is set-up
        self.op_id = None
        self.in_leaf = False
        self.swaps = []       # (owner, attribute, original, wrapper)
        self.active = False
        self.origin = clock()

    # -- bookkeeping called by the benchmark loop

    def begin_op(self, pass_index, name):
        self.pass_index = pass_index
        self.op_id = len(self.ops)
        self.ops.append((pass_index, name))

    def count(self, name, value=1):
        if self.active:
            self.counts[self.pass_index][name] += value

    def maximum(self, name, value):
        cur = self.maxima[self.pass_index]
        cur[name] = max(cur[name], value)

    # -- wrappers

    def span(self, name, fn, hook=None):
        """Wrap fn in a span; hook(tracer, args, kwargs, result, parent)
        reads counters from the call once it has returned."""
        def wrapper(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            rec = [len(self.spans) + len(self.stack), parent and parent[0],
                   self.op_id, name, self.clock(), 0.0]
            self.stack.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.clock()
                self.stack.pop()
                if parent is not None:
                    parent[5] += end - rec[4]
                self.spans.append((*rec[:5], end, rec[5]))
            if hook:
                hook(self, args, kwargs, result, parent)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def leaf(self, name, fn):
        def wrapper(*args, **kwargs):
            if self.in_leaf:
                return fn(*args, **kwargs)
            self.in_leaf = True
            start = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = self.clock() - start
                self.in_leaf = False
                counts = self.counts[self.pass_index]
                counts[name + ".calls"] += 1
                counts[name + ".self_s"] += dur
                if self.stack:
                    self.stack[-1][5] += dur

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation

    def wrap(self, lib):
        """Build the wrappers for the extlab modules bound in `lib`; they
        take effect between install() and uninstall()."""
        for module, attr, name, hook in function_targets(lib):
            fn = getattr(module, attr)
            wrapper = self.span(name, fn, hook)
            for modname, owner in list(sys.modules.items()):
                if modname == "extlab" or modname.startswith("extlab."):
                    for key, value in list(vars(owner).items()):
                        if value is fn:
                            self.swaps.append((owner, key, fn, wrapper))
        for cls, attr, name, hook in method_targets(lib):
            fn = cls.__dict__[attr]
            self.swaps.append((cls, attr, fn, self.span(name, fn, hook)))
        Domain = lib.lattice.Domain
        for attr in ("index", "__contains__"):
            fn = Domain.__dict__[attr]
            self.swaps.append((Domain, attr, fn,
                               self.leaf("lattice.domain", fn)))
        prop = Domain.__dict__["point_set"]
        self.swaps.append((Domain, "point_set", prop, property(
            self.leaf("lattice.domain", prop.fget))))

    def install(self):
        for owner, attr, _, wrapper in self.swaps:
            setattr(owner, attr, wrapper)
        self.active = True

    def uninstall(self):
        for owner, attr, original, _ in self.swaps:
            setattr(owner, attr, original)
        self.active = False

    # -- reports

    def self_times(self, pass_index):
        """Self time per span name over the ops of one pass."""
        out = defaultdict(float)
        for _, _, op, name, start, end, child in self.spans:
            if op is not None and self.ops[op][0] == pass_index:
                out[name] += end - start - child
        return out

    def layer_metrics(self, traced_passes):
        """Per-layer metrics: the median over the traced passes."""
        per_pass = [self._pass_metrics(p) for p in traced_passes]
        names = sorted(set().union(*per_pass))
        out = {n: median(m.get(n, 0.0) for m in per_pass) for n in names}
        setup = self.self_times(-1)
        out["corpus.self_s"] = setup.get("corpus", 0.0) + out.get(
            "corpus.self_s", 0.0)
        return out

    def _pass_metrics(self, pass_index):
        counts = self.counts[pass_index]
        out = dict(counts)
        out.update(self.maxima[pass_index])
        for name, value in self.self_times(pass_index).items():
            out[name + ".self_s"] = value
        pivots = counts["lp.pivots"]
        out["lp.s_per_pivot"] = (out.get("lp.solve.self_s", 0.0) / pivots
                                 if pivots else 0.0)
        tries = counts["lp.warm.tries"]
        out["lp.warm_hit_ratio"] = (counts["lp.warm.hits"] / tries
                                    if tries else 0.0)
        enum_solves = counts["lp.vertices.solves"]
        out["lp.vertex_yield"] = (counts["lp.vertices.found"] / enum_solves
                                  if enum_solves else 0.0)
        return out

    def write(self, path):
        """Write the op table and every span, one JSON object per line."""
        with gzip.open(path, "wt") as fh:
            for op, (pass_index, name) in enumerate(self.ops):
                fh.write(json.dumps({"op": op, "pass": pass_index,
                                     "name": name}) + "\n")
            for sid, parent, op, name, start, end, _ in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "op": op, "name": name,
                    "start": start - self.origin,
                    "end": end - self.origin}) + "\n")


# ---------------------------------------------------------------------------
# what is wrapped, and the counters read at each boundary


def _layer(span):
    return span[3].split(".")[0] if span else None


def _outer_call(metric, layer):
    def hook(tracer, args, kwargs, result, parent):
        if _layer(parent) != layer:
            tracer.count(metric)
    return hook


def _solve_hook(tracer, args, kwargs, result, parent):
    system = args[0]
    tracer.count("lp.solve.calls")
    tracer.count("lp.rows", len(system.equalities) + len(system.inequalities))
    tracer.count("lp.cols", len(system.variables))
    tracer.count("lp.pivots", result.pivots)
    if kwargs.get("warm_start") is not None:
        tracer.count("lp.warm.tries")
        if result.status == "feasible" and result.pivots == 0:
            tracer.count("lp.warm.hits")
    if result.assignment:
        bits = max(v.denominator.bit_length()
                   for v in result.assignment.values())
        tracer.maximum("lp.max_den_bits", bits)
    if parent and parent[3] == "lp.vertices":
        tracer.count("lp.vertices.solves")


def _vertices_hook(tracer, args, kwargs, result, parent):
    tracer.count("lp.vertices.found", len(result))


def _search_hook(tracer, args, kwargs, result, parent):
    search = args[0]
    tracer.count("engine.search.calls")
    tracer.count("engine.search.cells", search.ncells)
    collect = kwargs.get("collect", args[2] if len(args) > 2 else None)
    if collect is not None:
        tracer.count("engine.search.configs", len(collect))
    elif result is not None:
        tracer.count("engine.search.configs")


def _torus_hook(tracer, args, kwargs, result, parent):
    tracer.count("engine.torus.configs", result.config_count)


def _orbits_hook(tracer, args, kwargs, result, parent):
    tracer.count("engine.torus.orbits", len(result))


def _polytope_hook(tracer, args, kwargs, result, parent):
    tracer.count("engine.polytope.vars", len(result.system.variables))
    tracer.count("engine.polytope.eqs", len(result.system.equalities))


def _build_hook(tracer, args, kwargs, result, parent):
    tracer.count("measures.build.calls")
    built = args[0]
    tracer.count("measures.build.words", len(
        built.words if hasattr(built, "words") else built.masses))


def _window_hook(tracer, args, kwargs, result, parent):
    tracer.count("markov.window.calls")
    tracer.count("markov.window.words", len(result.masses))


def _count(metric):
    def hook(tracer, args, kwargs, result, parent):
        tracer.count(metric)
    return hook


def function_targets(lib):
    """(module, attribute, span name, counter hook) for module functions."""
    m, e, lp, h = lib.measures, lib.engine, lib.lp, lib.harmonic
    targets = [
        (lib.lattice, "verify_envelope", "lattice.envelope",
         _count("lattice.envelope.calls")),
        (m, "is_locally_stationary", "measures.stationary", None),
        (m, "entropy_chain_refute", "measures.chain", None),
        (m, "finite_window_entropy", "measures.entropy", None),
        (m, "entropy_metric", "measures.entropy", None),
        (lib.markov, "entropy_rate", "markov.extension", None),
        (lp, "solve_feasibility", "lp.solve", _solve_hook),
        (lp, "enumerate_vertices", "lp.vertices", _vertices_hook),
        (e, "build_window_polytope", "engine.polytope", _polytope_hook),
        (e, "periodic_extension", "engine.torus", _torus_hook),
        (e, "_orbit_partition", "engine.torus", _orbits_hook),
        (e, "refute_nonextendible", "engine.refute", None),
        (e, "epsilon_bound", "engine.torus", None),
        (lib.cli, "main", "cli", _count("cli.calls")),
    ]
    for attr in ("sft_emptiness", "fill_window", "periodic_config_search",
                 "enumerate_periodic_configs"):
        targets.append((e, attr, "engine.search", None))
    for attr in ("fourier_transform", "inverse_transform", "parseval_residual",
                 "check_stationarity_fourier", "check_extension_fourier"):
        targets.append((h, attr, "harmonic",
                        _outer_call("harmonic.calls", "harmonic")))
    corpus = lib.corpus
    for attr, value in vars(corpus).items():
        if (callable(value) and not attr.startswith("_")
                and getattr(value, "__module__", None) == corpus.__name__):
            targets.append((corpus, attr, "corpus", None))
    return targets


def method_targets(lib):
    """(class, attribute, span name, counter hook) for methods."""
    return [
        (lib.measures.SignedMeasure, "__init__", "measures.build",
         _build_hook),
        (lib.measures.WordSet, "__init__", "measures.build", _build_hook),
        (lib.markov.MarkovExtension, "__init__", "markov.extension", None),
        (lib.measures.SignedMeasure, "marginal", "measures.marginal",
         _count("measures.marginal.calls")),
        (lib.markov.MarkovExtension, "window_measure", "markov.window",
         _window_hook),
        (lib.lp.LinearSystem, "check", "lp.check", _count("lp.check.calls")),
        (lib.engine._PatternSearch, "run", "engine.search", _search_hook),
    ]


# name -> unit of every per-layer metric reported, in report order
LAYER_UNITS = {
    "lattice.domain.calls": "count", "lattice.domain.self_s": "s",
    "lattice.envelope.calls": "count", "lattice.envelope.self_s": "s",
    "measures.build.calls": "count", "measures.build.words": "count",
    "measures.build.self_s": "s", "measures.marginal.calls": "count",
    "measures.marginal.self_s": "s", "measures.stationary.self_s": "s",
    "measures.chain.self_s": "s",
    "markov.window.calls": "count", "markov.window.words": "count",
    "markov.window.self_s": "s",
    "lp.solve.calls": "count", "lp.solve.self_s": "s", "lp.rows": "count",
    "lp.cols": "count", "lp.pivots": "count", "lp.s_per_pivot": "s",
    "lp.max_den_bits": "bits", "lp.warm_hit_ratio": "ratio",
    "lp.check.calls": "count", "lp.check.self_s": "s",
    "lp.vertex_yield": "ratio",
    "engine.search.calls": "count", "engine.search.self_s": "s",
    "engine.search.cells": "count", "engine.search.configs": "count",
    "engine.torus.self_s": "s", "engine.torus.configs": "count",
    "engine.torus.orbits": "count", "engine.polytope.self_s": "s",
    "engine.polytope.vars": "count", "engine.polytope.eqs": "count",
    "engine.refute.self_s": "s",
    "harmonic.calls": "count", "harmonic.self_s": "s",
    "corpus.self_s": "s",
    "cli.calls": "count", "cli.self_s": "s", "cli.bytes_out": "bytes",
    "trace.overhead_s": "s",
}
