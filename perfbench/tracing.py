"""In-memory spans around the program's public functions.

The traced run replaces each function below by a wrapper at every module
attribute of the ``strata_opt`` package that holds it, so calls made inside
the program (``run_hierarchy`` calling ``solve_sdp``) are seen as well as
calls made by the benchmark.  No program file is edited; ``uninstall``
puts the original functions back.

A layer's self time is its span's duration minus the time its child spans
cover; the operation span's own remainder is reported as ``unattributed``.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc

# (module, function, span name, collect attributes from the result, track peak memory)
TARGETS = (
    ("strata_opt.mech.sym2", "build_distance_problem_sym2", "mech.build", None, False),
    ("strata_opt.mech.elasticity", "build_distance_problem_ela", "mech.build", None, False),
    ("strata_opt.mech.piezo", "build_distance_problem_piezo", "mech.build", None, False),
    ("strata_opt.popfile", "parse_pop", "popfile.parse", None, False),
    ("strata_opt.moment", "assemble_relaxation", "moment.assemble",
     lambda r: {"num_moments": r.num_moments}, True),
    ("strata_opt.sdp", "solve_sdp", "sdp.solve",
     lambda r: {"iters": r.iterations, "optimal": r.status == "optimal"}, True),
    ("strata_opt.hierarchy", "run_hierarchy", "hierarchy.run", None, False),
    ("strata_opt.hierarchy", "check_rank_condition", "hierarchy.rank", None, False),
    ("strata_opt.hierarchy", "extract_minimizers", "hierarchy.extract", None, False),
)


class Span:
    __slots__ = ("name", "parent", "start", "end", "attrs", "children_s", "peak_bytes")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.attrs = {}
        self.children_s = 0.0
        self.peak_bytes = None

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.children_s


class Tracer:
    """Records spans of one operation at a time; ``ops`` keeps every
    finished operation's span list."""

    def __init__(self):
        self.ops: list[list[Span]] = []
        self._stack: list[Span] = []
        self._current: list[Span] = []
        self._sites = []
        self.track_memory = False

    def _open(self, name):
        span = Span(name, self._stack[-1] if self._stack else None)
        self._stack.append(span)
        self._current.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            span.parent.children_s += span.end - span.start

    def op(self, fn, *args):
        """Run one operation under a root span named ``op``."""
        self._current = []
        span = self._open("op")
        try:
            return fn(*args)
        finally:
            self._close(span)
            self.ops.append(self._current)

    def _wrap(self, orig, name, attrs_of, peak):
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            span = tracer._open(name)
            mem = peak and tracer.track_memory
            if mem:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            try:
                result = orig(*args, **kwargs)
            finally:
                if mem:
                    span.peak_bytes = tracemalloc.get_traced_memory()[1] - base
                tracer._close(span)
            if attrs_of is not None:
                span.attrs = attrs_of(result)
            return result

        return wrapper

    def install(self):
        if not self._sites:
            for mod_name, fn_name, name, attrs_of, peak in TARGETS:
                orig = getattr(sys.modules[mod_name], fn_name)
                wrapper = self._wrap(orig, name, attrs_of, peak)
                for mod_key, mod in list(sys.modules.items()):
                    if mod_key.split(".")[0] != "strata_opt" or mod is None:
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._sites.append((mod, attr, orig, wrapper))
        for mod, attr, _orig, wrapper in self._sites:
            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, orig, _wrapper in self._sites:
            setattr(mod, attr, orig)
