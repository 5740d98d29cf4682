"""Per-layer spans recorded from outside the program by wrapping its functions.

The layers are conelab's modules, named without a leading underscore
(``_kernels`` is the layer ``kernels``). ``Tracer.install`` replaces every
public function of each layer module (and the public methods of
``OperatorMatrix`` and ``CrossSection``) with a timing wrapper, at every
place it is bound: modules bind each other's functions with from-imports,
so ``thomas_batch`` is patched in ``_kernels``, ``operators`` and
``heat_solver`` alike. ``rational`` is not wrapped: its arithmetic runs
millions of tiny calls, and its time counts as self time of the
``symbol_algebra`` or ``asymptotics`` call above it.

A span's self time is its duration minus the durations of the spans it
directly caused. Work counts are derived from call arguments (``rows`` is the
batch size, ``mode_steps`` is steps times modes) or from what a private
helper returns to its caller (contour ``nodes``, sector ``samples``).
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import defaultdict

LAYERS = ("cli", "cone_geometry", "symbol_algebra", "asymptotics", "mellin_sobolev",
          "heat_solver", "bessel", "operators", "_kernels", "tip_analysis",
          "power_calculus")
CLASSES = {"operators": ("OperatorMatrix",), "cone_geometry": ("CrossSection",)}


def _rows(args):
    # thomas_batch(dl, d, du, rhs) and solve_shifted_batch(self, lams, rhs):
    # the batch is the second argument
    return {"rows": len(args[1])}


def _row_steps(args):
    return {"row_steps": len(args[6]) * args[7]}   # evolve_theta(..., u0, n_steps, ...)


def _mode_steps(args):
    return {"mode_steps": args[2].n_steps * len(args[0].modes)}   # solve_heat(u0, f, cfg)


# own counts from the arguments of the wrapped call
COUNTS = {
    "kernels.thomas_batch": _rows,
    "kernels.evolve_theta": _row_steps,
    "operators.solve_shifted_batch": _rows,
    "heat_solver.solve_heat": _mode_steps,
}
# private helpers whose result is counted on the span that called them
PARENT_COUNTS = {
    "power_calculus._contour_nodes": lambda out: {"nodes": len(out[0])},
    "power_calculus._sector_samples": lambda out: {"samples": len(out)},
}


def _eig_dim(st, args, out):
    st["max_dim"] = max(st["max_dim"], args[0].dim)


def _fit_condition(st, args, out):
    st["max_condition"] = max(st["max_condition"], out.condition)


# maxima kept from arguments and results
RESULTS = {
    "operators.eigenvalues": _eig_dim,
    "tip_analysis.fit_tip_expansion": _fit_condition,
}


def _io_counters() -> tuple[int, int]:
    """Bytes this process has read and written through system calls (Linux)."""
    try:
        with open("/proc/self/io") as fh:
            fields = dict(line.split(": ") for line in fh.read().splitlines())
    except OSError:
        return 0, 0
    return int(fields["rchar"]), int(fields["wchar"])


def _span_name(module: str, attr: str) -> str:
    if module == "cli" and attr.startswith("cmd_"):
        attr = attr[4:]
    return f"{module.lstrip('_')}.{attr}"


class Tracer:
    """Span recorder; ``install`` patches the program, ``uninstall`` restores it."""

    def __init__(self):
        self.stack: list[list] = []        # [name, child seconds] per open span
        self.stats: dict = defaultdict(lambda: defaultdict(float))
        self._patches: list[tuple] = []
        self.modules = {m: importlib.import_module(f"conelab.{m}") for m in LAYERS}

    def reset(self):
        self.stats = defaultdict(lambda: defaultdict(float))

    # -- wrappers -------------------------------------------------------------

    def _span(self, name: str, fn):
        stack = self.stack
        count = COUNTS.get(name)
        result = RESULTS.get(name)
        rungs = name == "power_calculus.sectorial_probe"
        io = name == "cli.main"

        def wrapper(*args, **kwargs):
            st = self.stats[name]
            if count is not None:
                for key, v in count(args).items():
                    st[key] += v
            if rungs and stack and stack[-1][0] == "power_calculus.find_sectorial_shift":
                self.stats[stack[-1][0]]["rungs"] += 1
            if io:
                io0 = _io_counters()
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                st["calls"] += 1
                st["s"] += dt - frame[1]
                if io:
                    io1 = _io_counters()
                    st["bytes_read"] += io1[0] - io0[0]
                    st["bytes_written"] += io1[1] - io0[1]
            if result is not None:
                result(st, args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _parent_counter(self, name: str, fn):
        stack, derive = self.stack, PARENT_COUNTS[name]

        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            if stack:
                st = self.stats[stack[-1][0]]
                for key, v in derive(out).items():
                    st[key] += v
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ---------------------------------------------------------------

    def _targets(self):
        """Every module-level function to wrap -> (span name, wrapper factory)."""
        out = {}
        for short, mod in self.modules.items():
            for attr, val in vars(mod).items():
                if inspect.isfunction(val) and val.__module__ == mod.__name__:
                    name = f"{short}.{attr}"
                    if not attr.startswith("_"):
                        out[val] = (_span_name(short, attr), self._span)
                    elif name in PARENT_COUNTS:
                        out[val] = (name, self._parent_counter)
        return out

    def install(self):
        if self._patches:
            return
        targets = self._targets()
        wrappers = {fn: make(name, fn) for fn, (name, make) in targets.items()}
        pkg = importlib.import_module("conelab")
        for mod in (pkg, *self.modules.values()):
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, wrappers[val])
        for short, names in CLASSES.items():
            for cls_name in names:
                cls = getattr(self.modules[short], cls_name)
                for attr, raw in list(vars(cls).items()):
                    if attr.startswith("_"):
                        continue
                    if isinstance(raw, staticmethod):
                        w = staticmethod(self._span(_span_name(short, attr), raw.__func__))
                    elif inspect.isfunction(raw):
                        w = self._span(_span_name(short, attr), raw)
                    else:
                        continue           # properties and plain attributes
                    self._patches.append((cls, attr, raw))
                    setattr(cls, attr, w)

    def uninstall(self):
        for owner, attr, val in reversed(self._patches):
            setattr(owner, attr, val)
        self._patches.clear()

    # -- summaries ----------------------------------------------------------------

    def self_seconds(self) -> float:
        return sum(st["s"] for st in self.stats.values())

    def module_seconds(self, module: str) -> float:
        return sum(st["s"] for name, st in self.stats.items()
                   if name.split(".")[0] == module)

    def get(self, name: str, key: str) -> float:
        return self.stats[name][key] if name in self.stats else 0.0
