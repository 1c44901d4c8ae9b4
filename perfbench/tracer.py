"""Per-module call tracing of the squeeze package, applied from outside.

``Tracer.install()`` replaces every public function and method of the seven
squeeze modules with a timing wrapper, at every binding the package holds:
the defining module's attribute, each ``from .x import name`` copy in the
other modules and in the package namespace, module-level dicts that hold the
function (the CLI's command table), and the class attribute for methods.
``Tracer.uninstall()`` puts every original back.

Each call pushes a frame on a stack.  On return the frame's duration goes to
its key (``<module>.<function>``; methods drop the class name, so both
``boundary_distance_lower`` methods and the module-level wrapper of the same
name share one key) and its self time, the duration minus the time of the
wrapped calls it made, goes to the key and to the module.  A call made
directly by a call of the same key is passed through uncounted, so a
module-level wrapper and the method it delegates to count once.

Stage functions (``STAGES``) also record a span (key, start, end, parent
span, op label) in memory; hot functions are only counted and summed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

PACKAGE = "squeeze"
MODULES = ("domain", "metrics", "construct", "smooth", "estimate", "cli", "schema")

# Functions that run a handful of times per op: one span per call is cheap.
STAGES = frozenset({
    "cli.main", "cli.cmd_build", "cli.cmd_certify_smoothed", "cli.cmd_estimate",
    "cli.cmd_plotdata", "cli.cmd_all",
    "construct.build", "construct.verify_construction",
    "smooth.smooth", "smooth.levi_verify", "smooth.certify_smoothed",
    "estimate.kobayashi_upper_search", "estimate.caratheodory_lower_search",
    "estimate.monomial_disc_oracle",
    "domain.domain_from_doc", "domain.domain_to_doc",
    "metrics.squeezing_upper_at_breakpoint", "metrics.squeezing_lower_inclusion",
    "schema.validate_doc",
})


class KeyStats:
    """Calls, inclusive time, self time and raised calls of one key."""

    __slots__ = ("calls", "total", "self_time", "errors")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.errors = 0


class Tracer:
    def __init__(self):
        self.stats: dict[str, KeyStats] = {}
        self.spans: list[list] = []  # [key, start, end, parent span, op label]
        self.op_label = ""
        self._stack: list[list] = []  # [key, start, child_time, span_id]
        self._patches: list[tuple] = []  # (setter, original)
        self._last_error = None

    # ------------------------------------------------------------ recording
    def _wrap(self, key: str, fn):
        stats = self.stats.setdefault(key, KeyStats())
        stack = self._stack
        clock = time.perf_counter
        is_stage = key in STAGES
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == key:
                return fn(*args, **kwargs)
            span_id = len(tracer.spans) if is_stage else None
            if is_stage:
                parent = next((f[3] for f in reversed(stack) if f[3] is not None), None)
                tracer.spans.append([key, 0.0, 0.0, parent, tracer.op_label])
            frame = [key, clock(), 0.0, span_id]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                # count an exception once, in the innermost wrapped call it left
                if exc is not tracer._last_error:
                    tracer._last_error = exc
                    stats.errors += 1
                raise
            finally:
                end = clock()
                stack.pop()
                elapsed = end - frame[1]
                stats.calls += 1
                stats.total += elapsed
                stats.self_time += elapsed - frame[2]
                if stack:
                    stack[-1][2] += elapsed
                if is_stage:
                    tracer.spans[span_id][1:3] = [frame[1], end]

        return wrapper

    # ------------------------------------------------------------- patching
    def install(self) -> None:
        mods = {n: importlib.import_module(n) for n in (f"{PACKAGE}.{m}" for m in MODULES)}
        namespaces = [importlib.import_module(PACKAGE)] + list(mods.values())

        # module-level public functions, one wrapper per function object
        wrapped: dict[int, tuple] = {}  # id(function) -> (function, wrapper)
        for modname, mod in mods.items():
            short = modname.rsplit(".", 1)[-1]
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and callable(obj) and not inspect.isclass(obj)
                        and getattr(obj, "__module__", None) == modname):
                    wrapped[id(obj)] = (obj, self._wrap(f"{short}.{obj.__name__}", obj))
        # every binding of those functions: module attributes and dict values
        for ns in namespaces:
            for name, obj in list(vars(ns).items()):
                bindings = [(functools.partial(setattr, ns, name), obj)]
                if isinstance(obj, dict):
                    bindings = [(functools.partial(obj.__setitem__, k), v)
                                for k, v in obj.items()]
                for setter, value in bindings:
                    hit = wrapped.get(id(value))
                    if hit and hit[0] is value:
                        self._patch(setter, value, hit[1])
        # public methods of classes defined in the modules
        for modname, mod in mods.items():
            short = modname.rsplit(".", 1)[-1]
            for cls in vars(mod).values():
                if not inspect.isclass(cls) or cls.__module__ != modname:
                    continue
                for name, attr in list(vars(cls).items()):
                    if name.startswith("_"):
                        continue
                    key = f"{short}.{name}"
                    if isinstance(attr, (staticmethod, classmethod)):
                        new = type(attr)(self._wrap(key, attr.__func__))
                    elif inspect.isfunction(attr):
                        new = self._wrap(key, attr)
                    else:
                        continue
                    self._patch(functools.partial(setattr, cls, name), attr, new)

    def _patch(self, setter, original, replacement) -> None:
        setter(replacement)
        self._patches.append((setter, original))

    def uninstall(self) -> None:
        while self._patches:
            setter, original = self._patches.pop()
            setter(original)

    # -------------------------------------------------------------- summary
    def module_totals(self) -> dict[str, dict[str, float]]:
        out = {m: {"self_s": 0.0, "errors": 0} for m in MODULES}
        for key, st in self.stats.items():
            mod = key.split(".", 1)[0]
            out[mod]["self_s"] += st.self_time
            out[mod]["errors"] += st.errors
        return out
