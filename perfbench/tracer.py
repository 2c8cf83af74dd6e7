"""Per-layer tracing from outside the package.

The tracer replaces public functions at the names their callers look them
up under (a module attribute or a class attribute) with timing wrappers,
and puts the originals back on uninstall.  Nothing under src/ changes.

Coarse calls record one span each: name, start, end, own id and the id of
the enclosing span.  Hot calls (hundreds of thousands of
canonical_unoriented calls on the sampler path) only feed aggregates of
count, total time and self time, so the trace stays small.  Self time is
a call's duration minus the time of the wrapped calls it made.

A name that a later version of the package no longer has is skipped, so
the tracer reports zero for it instead of failing the run.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter

# (layer.function, modules whose attribute of that name is wrapped, span?)
# The wrapped modules are the callers' namespaces: a function imported with
# "from .words import x" is looked up in the importing module.
SITES = (
    ("cli.run", ("cli",), True),
    ("cli.make_document", ("cli",), True),
    ("cli.load_document", ("cli",), True),
    ("ribbon.chain_surface", ("cli",), True),
    ("intervals.build_complex", ("cli",), True),
    ("intervals.bbm_vertices", ("intervals",), True),
    ("sampler.sample_gamma", ("cli",), True),
    ("sampler.max_simplex_probe", ("cli",), True),
    ("sampler.connectivity_probe", ("cli",), True),
    ("complexes.flag_from_graph", ("intervals", "sampler"), True),
    ("complexes.reduced_homology", ("cli", "sampler"), True),
    ("complexes.boundary_matrix", ("complexes",), True),
    ("complexes.smith_normal_form", ("complexes",), True),
    ("handles.is_disk_vertex", ("sampler",), False),
    ("words.canonical_unoriented", ("words", "sampler"), False),
    ("words.self_intersection", ("handles", "intervals"), False),
    ("words.geometric_intersection", ("intervals", "sampler"), False),
)

# SimplicialComplex attributes, looked up on the class by their callers.
CLASS_SITES = (
    ("complexes.from_facets", "from_facets", True),
    ("complexes.faces_by_dim", "faces_by_dim", True),
)

SMITH_DIMS = range(1, 7)


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, id, parent id)
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []  # [child time, span id or None]
        self._restore = []
        self._boundary_dim = 0
        self._classes = set()
        self._pairs = set()

    # ------------------------------------------------------------ wrapping

    def _wrap(self, name, fn, span, after=None, label=None):
        stack = self._stack
        spans = self.spans
        calls, total, self_time = self.calls, self.total, self.self_time

        def traced(*args, **kwargs):
            key = label() if label else name
            frame = [0.0, None]
            if span:
                parent = next((f[1] for f in reversed(stack) if f[1] is not None), None)
                frame[1] = len(spans)
                spans.append(None)
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dt = t1 - t0
                if stack:
                    stack[-1][0] += dt
                calls[key] += 1
                total[key] += dt
                self_time[key] += dt - frame[0]
                if span:
                    spans[frame[1]] = (key, t0, t1, frame[1], parent)
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        import diskcomplex.cli
        import diskcomplex.complexes as complexes
        import diskcomplex.handles
        import diskcomplex.intervals
        import diskcomplex.sampler
        import diskcomplex.words as words

        modules = {m.__name__.rsplit(".", 1)[1]: m for m in (
            diskcomplex.cli, complexes, diskcomplex.handles,
            diskcomplex.intervals, diskcomplex.sampler, words,
        )}
        hooks = {
            "complexes.boundary_matrix": (self._after_boundary, None),
            "complexes.smith_normal_form": (
                self._after_smith, lambda: f"complexes.smith_normal_form.d{self._boundary_dim}"),
            "complexes.flag_from_graph": (self._count_facets, None),
            "intervals.bbm_vertices": (
                lambda a, r: self._set("intervals.vertices", len(r[0])), None),
            "sampler.sample_gamma": (
                lambda a, r: self._set("sampler.words_enumerated", r.n_enumerated), None),
            "handles.is_disk_vertex": (
                lambda a, r: self._add("handles.disk_vertices_kept", bool(r)), None),
            "words.canonical_unoriented": (lambda a, r: self._classes.add(r), None),
            "words.geometric_intersection": (self._record_pair, None),
        }
        for name, sites, span in SITES:
            func = name.rsplit(".", 1)[1]
            after, label = hooks.get(name, (None, None))
            for site in sites:
                module = modules[site]
                original = getattr(module, func, None)
                if original is None:
                    continue
                setattr(module, func, self._wrap(name, original, span, after, label))
                self._restore.append((module, func, original))

        cls = complexes.SimplicialComplex
        for name, attr, span in CLASS_SITES:
            original = cls.__dict__.get(attr)
            if original is None:
                continue
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(name, original.__func__, span))
            else:
                wrapped = self._wrap(name, original, span)
            setattr(cls, attr, wrapped)
            self._restore.append((cls, attr, original))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # --------------------------------------------------------------- hooks

    def _set(self, key, value):
        self.counts[key] = value

    def _add(self, key, value):
        self.counts[key] += value

    def _after_boundary(self, args, result):
        faces_high = args[1]
        self._boundary_dim = len(faces_high[0]) - 1 if faces_high else 0

    def _after_smith(self, args, result):
        k = self._boundary_dim
        matrix = args[0]
        self._add(f"complexes.smith_nnz.d{k}", len(matrix) if isinstance(matrix, dict)
                  else sum(1 for row in matrix for v in row if v))
        self._add(f"complexes.smith_rank.d{k}", result[1])

    def _count_facets(self, args, result):
        self._set("complexes.facets", len(result.facets))

    def _record_pair(self, args, result):
        surface, u, v = args[:3]
        a, b = getattr(u, "letters", u), getattr(v, "letters", v)
        self._pairs.add((getattr(surface, "rose_order", surface), min(a, b), max(a, b)))

    # ------------------------------------------------------------- metrics

    def metrics(self) -> dict:
        """The per-layer metrics of everything traced so far."""
        t, n, s, c = self.total, self.calls, self.self_time, self.counts
        m = {}
        for k in SMITH_DIMS:
            m[f"complexes.smith_normal_form_s.d{k}"] = t[f"complexes.smith_normal_form.d{k}"]
        for k in SMITH_DIMS:
            m[f"complexes.smith_nnz.d{k}"] = c[f"complexes.smith_nnz.d{k}"]
        for k in SMITH_DIMS:
            m[f"complexes.smith_rank.d{k}"] = c[f"complexes.smith_rank.d{k}"]
        m["complexes.boundary_matrix_s"] = t["complexes.boundary_matrix"]
        m["complexes.reduced_homology_s"] = t["complexes.reduced_homology"]
        m["complexes.flag_from_graph_s"] = t["complexes.flag_from_graph"]
        m["complexes.from_facets_s"] = t["complexes.from_facets"]
        m["complexes.facets"] = c["complexes.facets"]
        m["complexes.faces_by_dim_s"] = t["complexes.faces_by_dim"]
        m["complexes.faces_by_dim_calls"] = n["complexes.faces_by_dim"]
        m["words.canonical_unoriented_s"] = t["words.canonical_unoriented"]
        m["words.canonical_unoriented_calls"] = n["words.canonical_unoriented"]
        m["words.classes_distinct"] = len(self._classes)
        m["words.self_intersection_s"] = t["words.self_intersection"]
        m["words.self_intersection_calls"] = n["words.self_intersection"]
        m["words.geometric_intersection_s"] = t["words.geometric_intersection"]
        m["words.geometric_intersection_calls"] = n["words.geometric_intersection"]
        m["words.intersection_distinct_pairs"] = len(self._pairs)
        m["handles.is_disk_vertex_s"] = t["handles.is_disk_vertex"]
        m["handles.is_disk_vertex_calls"] = n["handles.is_disk_vertex"]
        m["handles.disk_vertices_kept"] = c["handles.disk_vertices_kept"]
        m["sampler.words_enumerated"] = c["sampler.words_enumerated"]
        m["sampler.sample_gamma_s"] = t["sampler.sample_gamma"]
        m["sampler.sample_gamma_self_s"] = s["sampler.sample_gamma"]
        m["sampler.max_simplex_probe_s"] = t["sampler.max_simplex_probe"]
        m["sampler.connectivity_probe_s"] = t["sampler.connectivity_probe"]
        m["ribbon.chain_surface_s"] = t["ribbon.chain_surface"]
        m["intervals.build_complex_s"] = t["intervals.build_complex"]
        m["intervals.bbm_vertices_s"] = t["intervals.bbm_vertices"]
        m["intervals.vertices"] = c["intervals.vertices"]
        m["cli.make_document_s"] = t["cli.make_document"]
        m["cli.load_document_s"] = t["cli.load_document"]
        return m
