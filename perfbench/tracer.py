"""Span tracer for the benchmark's traced run.

The tracer wraps the public functions of every ``graph_hardy`` module from
the outside; nothing in the package is edited.  Modules re-bind each
other's names (``from .x import f``), so a function is replaced in every
module namespace that binds it, otherwise nested calls would be missed
and their self time would land on the wrong layer.

Each wrapped call pushes a frame on one stack.  On return the frame's
duration minus the time covered by its children is added to the self time
of the function, and the duration is added to the parent's child time, so
the layers' self times plus the benchmark's own time add up to the traced
wall time by construction.  Ordinary functions also record a span (name,
start, end, parent span, operation id) kept in memory and written out when
the run ends.  Microsecond helpers called up to ~10^5 times per pass
(``HOT``) keep the self-time accounting and a call counter but record no
span, so the trace does not swamp the program.  ``path_source`` and
``path_range`` are not wrapped at all: they cost about as much as a
wrapper, and their time stays with the caller.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import Counter, defaultdict

HOT = frozenset({
    "graph_core.compose",
    "graph_core.is_path",
    "dual_eval.theta_matrix",
    "dual_eval.resolvent_matrix",
})
SKIP = frozenset({"graph_core.path_source", "graph_core.path_range"})

LAYERS = ("graph_core", "fock", "dual_eval", "pick_kernel", "realization",
          "mobius", "automorphism", "cli")


def _public_functions(package):
    """(key, function) for every public function defined in the package's
    modules; key is '<layer>.<name>'."""
    out = {}
    for layer in LAYERS:
        mod = getattr(package, layer)
        for name, obj in vars(mod).items():
            if name.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != mod.__name__:
                continue
            key = "%s.%s" % (layer, name)
            if key not in SKIP:
                out[obj] = key
    return out


class Tracer:
    """Installs wrappers, accumulates self times, counters and spans."""

    def __init__(self, package):
        self.package = package
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.spans = []
        self.names = {}
        self.op_id = -1
        self._stack = [[0.0, -1]]
        self._next_span = 0
        self._patched = []

    # -- installation ---------------------------------------------------------
    def install(self):
        funcs = _public_functions(self.package)
        wrappers = {fn: self._wrap(fn, key) for fn, key in funcs.items()}
        namespaces = [self.package] + [getattr(self.package, m) for m in LAYERS]
        for ns in namespaces:
            for name, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((ns, name, obj))
                    setattr(ns, name, wrappers[obj])

    def uninstall(self):
        for ns, name, obj in reversed(self._patched):
            setattr(ns, name, obj)
        self._patched = []

    def _wrap(self, fn, key):
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        perf = time.perf_counter
        hook = HOOKS.get(key)
        if key in HOT:
            def hot(*args, **kwargs):
                frame = [0.0, stack[-1][1]]
                stack.append(frame)
                t0 = perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    d = perf() - t0
                    stack.pop()
                    self_s[key] += d - frame[0]
                    stack[-1][0] += d
                    calls[key] += 1
            return hot

        spans = self.spans
        name_id = self.names.setdefault(key, len(self.names))

        def traced(*args, **kwargs):
            span_id = self._next_span
            self._next_span += 1
            parent = stack[-1][1]
            frame = [0.0, span_id]
            stack.append(frame)
            t0 = perf()
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                t1 = perf()
                stack.pop()
                d = t1 - t0
                self_s[key] += d - frame[0]
                stack[-1][0] += d
                calls[key] += 1
                spans.append((name_id, t0, t1, span_id, parent, self.op_id))
                if hook is not None:
                    hook(self.counts, args, kwargs, result, exc)
        traced.__wrapped__ = fn
        return traced

    def root_time(self):
        """Total duration of the outermost wrapped calls so far."""
        return self._stack[0][0]

    # -- results ----------------------------------------------------------------
    def layer_self(self):
        out = {layer: 0.0 for layer in LAYERS}
        for key, t in self.self_s.items():
            out[key.split(".", 1)[0]] += t
        return out

    def write(self, path, meta):
        names = sorted(self.names, key=self.names.get)
        with open(path, "w") as fh:
            json.dump({"meta": meta, "names": names,
                       "fields": ["name", "start", "end", "span", "parent", "op"],
                       "spans": self.spans}, fh)


# ---------------------------------------------------------------------------
# graph_hardy counters and the per-layer metric table

def _count_ct(counts, args, kwargs, rep, exc):
    if rep is not None:
        g = args[0] if args else kwargs["g"]
        counts["fock.eigvalsh_n3_computed"] += g.nv * rep["restricted_dim"] ** 3


def _count_basis(counts, args, kwargs, basis, exc):
    if basis is not None:
        counts["fock.basis_paths"] += len(basis)


def _count_tensor(counts, args, kwargs, m, exc):
    if m is not None:
        counts["pick_kernel.tensor_bytes_computed"] += 16 * m.k ** 2 * m.graph.nv ** 3


def _count_choi(counts, args, kwargs, rep, exc):
    m = args[0] if args else kwargs["m"]
    counts["pick_kernel.choi_n3_computed"] += m.graph.nv * (m.k * m.graph.nv) ** 3


def _count_realize(counts, args, kwargs, out, exc):
    from graph_hardy import ConditioningError
    if isinstance(exc, ConditioningError):
        counts["realization.conditioning_errors"] += 1
    elif out is not None and not out[1].get("padding_feasible", True):
        counts["realization.non_coisometric"] += 1


# wrapped function -> hook(counts, args, kwargs, result, exception), run
# after each call
HOOKS = {
    "fock.cuntz_toeplitz_check": _count_ct,
    "fock.fock_basis": _count_basis,
    "pick_kernel.pick_map_matrix": _count_tensor,
    "pick_kernel.schur_kernel_matrix": _count_tensor,
    "mobius.mobius_congruence_matrix": _count_tensor,
    "pick_kernel.is_completely_positive": _count_choi,
    "realization.realize_from_samples": _count_realize,
}


def install_graph_hardy(package):
    """A Tracer over the package, installed.  ARPACK calls are counted so
    dense norm bounds can be told apart from sparse ones."""
    import scipy.sparse.linalg as sla

    tracer = Tracer(package)
    tracer.install()
    svds = sla.svds

    def counted_svds(*args, **kwargs):
        out = svds(*args, **kwargs)
        tracer.counts["arpack_svds_calls"] += 1
        return out
    tracer._patched.append((sla, "svds", svds))
    sla.svds = counted_svds
    return tracer


# name -> unit; every value is per traced pass over the operation list
PER_LAYER = {
    "graph_core.self_s": "s",
    "graph_core.compose.calls": "count",
    "graph_core.is_path.calls": "count",
    "graph_core.path_basis.calls": "count",
    "fock.self_s": "s",
    "fock.creation_matrix.self_s": "s",
    "fock.creation_matrix.calls": "count",
    "fock.cuntz_toeplitz_check.self_s": "s",
    "fock.fock_norm_bound.self_s": "s",
    "fock.fock_norm_bound.dense_calls": "count",
    "fock.basis_paths": "count",
    "fock.eigvalsh_n3_computed": "n3",
    "fock.hardy_mul.calls": "count",
    "dual_eval.self_s": "s",
    "dual_eval.resolvent_matrix.calls": "count",
    "dual_eval.evaluate_poly.calls": "count",
    "dual_eval.evaluate_poly.self_s": "s",
    "pick_kernel.self_s": "s",
    "pick_kernel.kernel_build.self_s": "s",
    "pick_kernel.is_completely_positive.self_s": "s",
    "pick_kernel.tensor_bytes_computed": "bytes",
    "pick_kernel.choi_n3_computed": "n3",
    "realization.self_s": "s",
    "realization.realize_from_samples.self_s": "s",
    "realization.realize_from_samples.calls": "count",
    "realization.conditioning_errors": "count",
    "realization.non_coisometric": "count",
    "realization.validate_system.self_s": "s",
    "realization.transfer_eval.calls": "count",
    "realization.taylor_extract.self_s": "s",
    "mobius.self_s": "s",
    "mobius.mobius_apply.calls": "count",
    "mobius.mobius_congruence_matrix.self_s": "s",
    "automorphism.self_s": "s",
    "automorphism.kernel_ideal_check.self_s": "s",
    "cli.self_s": "s",
    "cli.input_bytes": "bytes",
    "cli.report_bytes": "bytes",
    "bench.self_s": "s",
    "bench.traced_wall_s": "s",
    "bench.trace_overhead_frac": "frac",
}


def layer_values(tracer, extra_counts):
    """Totals over the traced passes, keyed like PER_LAYER (bench.* aside)."""
    values = {}
    for layer, t in tracer.layer_self().items():
        values[layer + ".self_s"] = t
    for key, t in tracer.self_s.items():
        values[key + ".self_s"] = t
    for key, n in tracer.calls.items():
        values[key + ".calls"] = n
    values.update(tracer.counts)
    values.update(extra_counts)
    values["pick_kernel.kernel_build.self_s"] = (
        tracer.self_s["pick_kernel.pick_map_matrix"]
        + tracer.self_s["pick_kernel.schur_kernel_matrix"])
    values["fock.fock_norm_bound.dense_calls"] = (
        tracer.calls["fock.fock_norm_bound"] - tracer.counts["arpack_svds_calls"])
    return values
