"""Spans and counters around abcat's public functions, installed from outside.

The tracer wraps every public function of the modules an operation passes
through (``fields`` up to ``cli``), plus the methods of ``ScalarField``,
``Matrix``, ``Mor`` and ``Report`` that those layers are built from.  Each
function gets two wrappers, installed in different cycles:

- a *timing* span measures the call and nothing else.  A span's self time
  is its duration minus the time covered by its child spans; a name's
  inclusive time counts only its outermost spans, so recursion and nested
  lifts are not counted twice.  Spans are folded into per-name totals as
  they close instead of being stored: one traced cli_mix cycle opens
  hundreds of thousands of them.
- a *counting* wrapper counts the call and runs the counters that inspect
  operands (rref inputs, multiply-adds and their zero operands, GFElement
  creations), and takes no time.  Keeping the counters out of the timed
  cycles keeps their cost out of every self time.

``install`` and ``uninstall`` patch and restore every name under which a
wrapped function is reachable (``from .linalg import rref`` binds ``rref``
in several modules), so operations run between them are traced and all
others run the original code.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from time import perf_counter

MODULES = ("fields", "linalg", "category", "constructions", "squares", "snake",
           "diagram_io", "cli")

METHODS = {
    "fields": {"ScalarField": ("parse", "format")},
    "linalg": {"Matrix": ("__matmul__", "__add__", "__sub__", "__neg__", "scale",
                          "transpose", "hstack", "vstack", "take_columns", "col",
                          "row_list", "from_rows", "from_int_rows", "zeros",
                          "identity", "column")},
    "category": {"Mor": ("rank", "from_matrix")},
    "diagram_io": {"Report": ("to_text",)},
}

SPAN_NAMES = {
    "linalg.__matmul__": "linalg.matmul",
    "linalg.__add__": "linalg.add",
    "linalg.__sub__": "linalg.sub",
    "linalg.__neg__": "linalg.neg",
    "category.mono_lift": "category.lift",
    "category.epi_colift": "category.lift",
    "category.kernel_lift": "category.lift",
    "category.cokernel_colift": "category.lift",
}


class _Stat:
    """Totals of one span name: calls from counting cycles, seconds from timing ones."""

    __slots__ = ("calls", "incl", "self_s", "depth")

    def __init__(self) -> None:
        self.calls = 0
        self.incl = 0.0
        self.self_s = 0.0
        self.depth = 0


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, _Stat] = {}
        self._stack: list[list[float]] = []
        self.rref_entries = 0
        self.rref_distinct = 0
        self._rref_keys: set = set()
        self.madds = 0
        self.zero_madds = 0
        self.gf_new = 0
        # (owner, attribute, original, timing wrapper, counting wrapper)
        self._patches: list[tuple[object, str, object, object, object]] = []
        self._collect()

    # -- building the patch list ----------------------------------------------

    def _collect(self) -> None:
        modules = {name: importlib.import_module(f"abcat.{name}") for name in MODULES}
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "abcat" or n.startswith("abcat.")]
        hooks = {"linalg.rref": self._on_rref, "linalg.matmul": self._on_matmul}
        for modname, mod in modules.items():
            for attr, fn in sorted(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = SPAN_NAMES.get(f"{modname}.{attr}", f"{modname}.{attr}")
                timed, counted = self._wrap(name, fn, hooks.get(name))
                for ns in namespaces:
                    for key, value in vars(ns).items():
                        if value is fn:
                            self._patches.append((ns, key, fn, timed, counted))
            for clsname, attrs in METHODS.get(modname, {}).items():
                cls = getattr(mod, clsname)
                for attr in attrs:
                    name = SPAN_NAMES.get(f"{modname}.{attr}", f"{modname}.{attr}")
                    orig = cls.__dict__[attr]
                    hook = hooks.get(name)
                    if isinstance(orig, classmethod):
                        kind, fn = classmethod, orig.__func__
                    elif isinstance(orig, property):
                        kind, fn = property, orig.fget
                    else:
                        kind, fn = (lambda f: f), orig
                    timed, counted = self._wrap(name, fn, hook)
                    self._patches.append((cls, attr, orig, kind(timed), kind(counted)))
        gf = modules["fields"].GFElement
        post_init = gf.__dict__["__post_init__"]

        def counting_post_init(element):
            self.gf_new += 1
            post_init(element)

        self._patches.append((gf, "__post_init__", post_init, post_init, counting_post_init))

    def _wrap(self, name: str, fn, hook):
        """The timing span and the counting wrapper of ``fn``."""
        stat = self.stats.setdefault(name, _Stat())
        stack = self._stack

        def counted(*args, **kwargs):
            stat.calls += 1
            if hook is not None:
                hook(*args)
            return fn(*args, **kwargs)

        def span(*args, **kwargs):
            frame = [perf_counter(), 0.0]
            stack.append(frame)
            stat.depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - frame[0]
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                stat.self_s += dur - frame[1]
                stat.depth -= 1
                if not stat.depth:
                    stat.incl += dur

        for wrapper in (span, counted):
            wrapper.__name__ = getattr(fn, "__name__", name)
            wrapper.__doc__ = fn.__doc__
        return span, counted

    # -- counters at layer boundaries ------------------------------------------

    def _on_rref(self, m) -> None:
        self.rref_entries += m.rows * m.cols
        self._rref_keys.add((m.rows, m.cols, m.field.p, m.entries))

    def _on_matmul(self, a, b) -> None:
        if type(b) is not type(a):
            return
        m, k, n = a.rows, a.cols, b.cols
        self.madds += m * k * n
        zero_cols_a = [0] * k
        for idx, x in enumerate(a.entries):
            if not x:
                zero_cols_a[idx % k] += 1
        for j in range(k):
            za = zero_cols_a[j]
            zb = sum(1 for x in b.entries[j * n:(j + 1) * n] if not x)
            self.zero_madds += za * n + m * zb - za * zb

    # -- use ---------------------------------------------------------------------

    def install(self, counting: bool) -> None:
        """Install the counting wrappers, or else the timing spans."""
        self._rref_keys = set()
        for owner, attr, _, timed, counted in self._patches:
            setattr(owner, attr, counted if counting else timed)

    def uninstall(self) -> None:
        """Restore the original code.  Distinct rref inputs are counted per
        operation, since a memo only helps within the process a user's
        command runs in."""
        for owner, attr, orig, _, _ in reversed(self._patches):
            setattr(owner, attr, orig)
        self.rref_distinct += len(self._rref_keys)
        self._rref_keys = set()

    # -- results -------------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats[name].calls if name in self.stats else 0

    def seconds(self, name: str) -> float:
        return self.stats[name].incl if name in self.stats else 0.0

    def self_seconds(self, module: str) -> float:
        return sum(s.self_s for n, s in self.stats.items() if n.split(".")[0] == module)

    def table(self) -> list[str]:
        rows = [f"{'span':<40} {'calls':>9} {'incl_s':>10} {'self_s':>10}"]
        for name in sorted(self.stats, key=lambda n: (MODULES.index(n.split(".")[0]), n)):
            s = self.stats[name]
            if s.calls:
                rows.append(f"{name:<40} {s.calls:>9} {s.incl:>10.4f} {s.self_s:>10.4f}")
        return rows
