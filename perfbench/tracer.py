"""In-memory span tracer that wraps brpickit layer functions from outside.

Each wrapped call opens a span (id, name, start, end, parent).  When a span
closes, its self time -- its duration minus the durations of its direct
child spans -- is added to its name's total.  Spans of the scalar and group
operations are counted and timed but not kept, since a traced run makes
millions of them; every other span is kept in ``Tracer.spans``.
"""

import time
from collections import defaultdict
from contextlib import contextmanager

# (module, class or None, attribute, span name).  Aliases such as
# CycloScalar.__rmul__ = __mul__ are separate attributes and wrapped on
# their own, under the same span name.
LAYER_FUNCTIONS = [
    ("cyclo", "CycloScalar", "__mul__", "cyclo.mul"),
    ("cyclo", "CycloScalar", "__rmul__", "cyclo.mul"),
    ("cyclo", "CycloScalar", "__add__", "cyclo.add"),
    ("cyclo", "CycloScalar", "__radd__", "cyclo.add"),
    ("cyclo", "CycloScalar", "inv", "cyclo.inv"),
    ("cyclo", "CycloScalar", "lift", "cyclo.lift"),
    ("abelian", None, "add", "abelian.add"),
    ("linalg", None, "rref", "linalg.rref"),
    ("linalg", None, "product", "linalg.product"),
    ("linalg", None, "kernel_sparse_rows", "linalg.kernel_sparse_rows"),
    ("linalg", None, "form_invariant_under", "linalg.form_invariant_under"),
    ("orth", None, "u_alpha", "orth.u_alpha"),
    ("orth", None, "psi_alpha", "orth.psi_alpha"),
    ("orth", None, "enumerate_orth", "orth.enumerate_orth"),
    ("brpic", None, "validate_odatum", "brpic.validate_odatum"),
    ("brpic", None, "validate_rdatum", "brpic.validate_rdatum"),
    ("brpic", None, "suite_alphas", "brpic.suite_alphas"),
    ("brpic", None, "odatum_product", "brpic.odatum_product"),
    ("brpic", None, "rdatum_product", "brpic.rdatum_product"),
    ("brpic", None, "odatum_equiv", "brpic.odatum_equiv"),
    ("hopf", None, "compatible_violations", "hopf.compatible_violations"),
    ("hopf", None, "build_K", "hopf.build_K"),
    ("hopf", None, "check_comodule_algebra", "hopf.check_comodule_algebra"),
    ("hopf", None, "loewy_graded", "hopf.loewy_graded"),
    ("hopf", None, "same_tables", "hopf.same_tables"),
    ("hopf", None, "cotensor", "hopf.cotensor"),
    ("hopf", None, "verify_cotensor_iso", "hopf.verify_cotensor_iso"),
    ("hopf", None, "random_compatible_data", "hopf.random_compatible_data"),
    ("hopf", None, "random_graph_datum", "hopf.random_graph_datum"),
    ("cli", None, "parse_module", "cli.parse_module"),
]

UNKEPT = ("cyclo.", "abelian.")


def _rref_cells(args, result, tracer):
    rows = args[0]
    cells = len(rows) * (len(rows[0]) if rows else 0)
    tracer.maxima["linalg.rref.max_cells"] = max(
        tracer.maxima["linalg.rref.max_cells"], cells)


def _distinct_alpha(name):
    def observe(args, result, tracer):
        tracer.distinct[name].add(args[0])
    return observe


def _k_dim(args, result, tracer):
    tracer.maxima["hopf.K_dim.max"] = max(tracer.maxima["hopf.K_dim.max"],
                                          result.dim)


OBSERVERS = {
    "linalg.rref": _rref_cells,
    "orth.u_alpha": _distinct_alpha("orth.u_alpha"),
    "orth.psi_alpha": _distinct_alpha("orth.psi_alpha"),
    "hopf.build_K": _k_dim,
}


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.open = []       # [id, name, start, child_seconds] per open span
        self.spans = []      # closed (id, name, start, end, parent_id)
        self.next_id = 0
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.distinct = defaultdict(set)
        self.maxima = defaultdict(int)

    def _enter(self, name):
        frame = [self.next_id, name, self.clock(), 0.0]
        self.next_id += 1
        self.open.append(frame)
        return frame

    def _exit(self, frame):
        end = self.clock()
        self.open.pop()
        span_id, name, start, child = frame
        duration = end - start
        parent = self.open[-1] if self.open else None
        if parent is not None:
            parent[3] += duration
        self.calls[name] += 1
        self.self_s[name] += duration - child
        if not name.startswith(UNKEPT):
            self.spans.append((span_id, name, start, end,
                               parent[0] if parent else None))

    @contextmanager
    def span(self, name):
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame)

    def wrap(self, name, fn, observe=None):
        def traced(*args, **kwargs):
            frame = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame)
            if observe is not None:
                observe(args, result, self)
            return result
        traced.__wrapped__ = fn
        return traced


def install(tracer, lib):
    """Wrap every layer function of ``lib``; returns what ``uninstall`` needs."""
    saved = []
    for module_name, cls_name, attr, name in LAYER_FUNCTIONS:
        owner = getattr(lib, module_name)
        if cls_name is not None:
            owner = getattr(owner, cls_name)
            original = owner.__dict__[attr]
        else:
            original = getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(name, original, OBSERVERS.get(name)))
    return saved


def uninstall(saved):
    """Restore every wrapped attribute; returns the names not restored."""
    for owner, attr, original in saved:
        setattr(owner, attr, original)
    return [attr for owner, attr, original in saved
            if (owner.__dict__ if isinstance(owner, type) else vars(owner))
            .get(attr) is not original]


def layer_metrics(tracer, instances):
    """The per-layer metrics derived from one traced pass."""
    calls, self_s = tracer.calls, tracer.self_s

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for op in ("mul", "add", "inv", "lift"):
        out[f"cyclo.{op}.calls"] = calls[f"cyclo.{op}"]
    out["cyclo.self_s"] = sum(v for k, v in self_s.items()
                              if k.startswith("cyclo."))
    out["cyclo.lift_per_mul"] = ratio(calls["cyclo.lift"], calls["cyclo.mul"])
    out["abelian.add.calls"] = calls["abelian.add"]
    out["abelian.add.self_s"] = self_s["abelian.add"]
    for fn in ("rref", "product", "kernel_sparse_rows"):
        out[f"linalg.{fn}.calls"] = calls[f"linalg.{fn}"]
        out[f"linalg.{fn}.self_s"] = self_s[f"linalg.{fn}"]
    out["linalg.rref.max_cells"] = tracer.maxima["linalg.rref.max_cells"]
    out["linalg.form_invariant_under.self_s"] = \
        self_s["linalg.form_invariant_under"]
    for fn in ("u_alpha", "psi_alpha"):
        out[f"orth.{fn}.calls"] = calls[f"orth.{fn}"]
        out[f"orth.{fn}.self_s"] = self_s[f"orth.{fn}"]
        out[f"orth.{fn}.distinct"] = len(tracer.distinct[f"orth.{fn}"])
    out["orth.enumerate_orth.self_s"] = self_s["orth.enumerate_orth"]
    for fn in ("validate_odatum", "validate_rdatum", "suite_alphas"):
        out[f"brpic.{fn}.calls"] = calls[f"brpic.{fn}"]
        out[f"brpic.{fn}.self_s"] = self_s[f"brpic.{fn}"]
    for fn in ("odatum_product", "odatum_equiv"):
        out[f"brpic.{fn}.self_s"] = self_s[f"brpic.{fn}"]
    out["brpic.validations_per_product"] = ratio(
        calls["brpic.validate_odatum"] + calls["brpic.validate_rdatum"],
        calls["brpic.odatum_product"] + calls["brpic.rdatum_product"])
    out["hopf.compatible_violations.calls"] = calls["hopf.compatible_violations"]
    out["hopf.compatible_violations.self_s"] = \
        self_s["hopf.compatible_violations"]
    out["hopf.compatible_violations.calls_per_instance"] = ratio(
        calls["hopf.compatible_violations"], instances)
    for fn in ("build_K", "check_comodule_algebra", "loewy_graded",
               "same_tables", "cotensor", "verify_cotensor_iso",
               "random_compatible_data", "random_graph_datum"):
        out[f"hopf.{fn}.self_s"] = self_s[f"hopf.{fn}"]
    out["hopf.K_dim.max"] = tracer.maxima["hopf.K_dim.max"]
    out["cli.parse_module.self_s"] = self_s["cli.parse_module"]
    return out
