"""Per-module call tracing for the benchmark's traced run.

The tracer wraps every public function of each qmarkov module, the public
methods of the classes each module defines, and the AlgElement constructor.
Modules import each other's functions with ``from .x import f``, so a
wrapper is installed in every qmarkov module namespace that binds the
original.  Calls made through other references (the CLI handler table, the
props suite table, corpus fixture builders, closures) are not wrapped; their
time counts as self time of the nearest wrapped caller.

Spans are aggregated in memory per function: calls, self time and inclusive
time.  A function's self time is its span minus the spans of the wrapped
calls it makes directly, so the self times of one module's functions add up
to that module's spans minus their child spans in other modules.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = (
    "linalg", "algebra", "channel", "state", "bayes",
    "finstoch", "serialize", "cli", "corpus", "props",
)


class Tracer:
    """Installs timing wrappers into the imported qmarkov modules.

    stats maps "<layer>.<function>" (or "<layer>.<Class>.<method>", and
    "algebra.AlgElement" for the constructor) to [calls, self_s, total_s].
    """

    def __init__(self):
        self.stats: dict[str, list] = {}
        self.layer_of: dict[str, str] = {}
        self.pairs = 0              # d^2 summed over ae_deterministic calls
        self.linalg_entries = 0     # calls entering linalg from another module
        self.linalg_dim_sum = 0     # side lengths of the matrices they passed
        self.cached_calls = 0
        self.cached_hits = 0
        self.ops: list[dict] = []       # one span per timed operation
        self._stack: list[list] = []    # one [layer, child_s] per open span
        self._patches: list[tuple] = []
        self._installed = False
        self._origin = time.perf_counter()
        self._op_start: dict[str, float] = {}

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Swap the wrappers in; they are built on the first call."""
        if self._installed:
            raise RuntimeError("tracer is already installed")
        if not self._patches:
            self._patches = self._build_patches()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        self._installed = True

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)
        self._installed = False

    def _build_patches(self) -> list[tuple]:
        """(owner, attribute, original, wrapper) for every binding to wrap."""
        from qmarkov.algebra import AlgElement
        from qmarkov.channel import Channel

        patches = []
        by_id = {}
        for layer in LAYERS:
            mod = sys.modules[f"qmarkov.{layer}"]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    by_id[id(obj)] = (obj, self._wrapper(layer, f"{layer}.{name}", obj))
                elif inspect.isclass(obj):
                    for mname, meth in list(vars(obj).items()):
                        if mname.startswith("_") or not inspect.isfunction(meth):
                            continue
                        if obj is Channel and mname == "cached":
                            # counted, not timed: the verdict computation it
                            # runs stays in the calling check's self time
                            wrapper = self._counting_cached(meth)
                        else:
                            wrapper = self._wrapper(layer, f"{layer}.{name}.{mname}", meth)
                        patches.append((obj, mname, meth, wrapper))
        init = AlgElement.__init__
        patches.append((AlgElement, "__init__", init,
                        self._wrapper("algebra", "algebra.AlgElement", init)))

        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "qmarkov" or modname.startswith("qmarkov.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = by_id.get(id(value))
                if hit is not None and hit[0] is value:
                    patches.append((mod, attr, value, hit[1]))
        return patches

    # -- wrappers ---------------------------------------------------------

    def _wrapper(self, layer, key, fn):
        stat = self.stats.setdefault(key, [0, 0.0, 0.0])
        self.layer_of[key] = layer
        stack = self._stack
        clock = time.perf_counter
        if key == "state.ae_deterministic":
            before = self._count_pairs
        elif layer == "linalg":
            before = self._linalg_entry
        else:
            before = None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stat[0] += 1
                stat[1] += elapsed - frame[1]
                stat[2] += elapsed
                if stack:
                    stack[-1][1] += elapsed

        return traced

    def _count_pairs(self, args, kwargs) -> None:
        f = args[0] if args else kwargs["f"]
        self.pairs += f.domain.coord_dim ** 2

    def _linalg_entry(self, args, kwargs) -> None:
        if self._stack and self._stack[-1][0] == "linalg":
            return
        m = args[0] if args else kwargs["m"]
        shape = getattr(m, "shape", None) or (len(m), len(m[0]))
        self.linalg_entries += 1
        self.linalg_dim_sum += shape[0]

    def _counting_cached(self, cached):
        tracer = self

        @functools.wraps(cached)
        def counting(channel, key, compute):
            missed = []

            def computed():
                missed.append(True)
                return compute()

            result = cached(channel, key, computed)
            tracer.cached_calls += 1
            tracer.cached_hits += not missed
            return result

        return counting

    # -- read-out ---------------------------------------------------------

    def layer_self(self) -> dict[str, float]:
        """Self time per layer, summed over the layer's functions."""
        out = dict.fromkeys(LAYERS, 0.0)
        for key, (_, self_s, _) in self.stats.items():
            out[self.layer_of[key]] += self_s
        return out

    def op_started(self) -> None:
        self._op_start = self.layer_self()

    def op_finished(self, kind: str, wall_s: float) -> None:
        """Record the operation's span with its self time in each layer."""
        after = self.layer_self()
        self.ops.append({
            "kind": kind,
            "end_s": time.perf_counter() - self._origin,
            "wall_s": wall_s,
            "self_s": {k: after[k] - self._op_start[k] for k in LAYERS},
        })

    def layer_calls(self) -> dict[str, int]:
        out = dict.fromkeys(LAYERS, 0)
        for key, (calls, _, _) in self.stats.items():
            out[self.layer_of[key]] += calls
        return out
