"""Spans and counts at the boundaries of the package's modules, recorded
from outside the package.

:class:`Tracer` wraps every public function of each layer module (plus the
public methods of ``GeomStream`` and the ``PermWindow`` constructor) and
patches the wrapper into every namespace that holds the original: modules
bind names at import (``from .qseries import pochhammer_table``), so
patching only the defining module would miss most calls.  ``restore()``
puts every original back.

Spans are aggregated as they close, keyed by (span name, parent span name):
calls, inclusive seconds, self seconds (inclusive minus the time of direct
child spans), units (draws for ``GeomStream.uniforms``, else calls) and
calls that raised.  Keeping aggregates rather than one record per span keeps
memory flat on the scalar paths, which make ~10^5 stream calls per rep.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("streams", "qseries", "perm", "samplers", "dist", "oracle", "verify", "cli")

#: classes whose methods are traced (None: every public method): the
#: GeomStream methods are the streams layer's surface, the PermWindow
#: constructor is perm's window build
CLASSES = {"streams": ("GeomStream", None), "perm": ("PermWindow", ("__init__",))}

#: marks a wrapper so a restored tree can be checked for leftovers
MARK = "__perfbench_original__"


def _stream_draws(args, kwargs) -> int:
    return int(args[1] if len(args) > 1 else kwargs["n"])


class Tracer:
    def __init__(self) -> None:
        self.agg: dict[tuple[str, str | None], list] = {}
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------
    def wrap(self, name: str, fn, units=None):
        agg, stack = self.agg, self._stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            raised = True
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
                raised = False
                return out
            finally:
                dt = perf() - t0
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += dt
                key = (name, parent[0] if parent is not None else None)
                rec = agg.get(key)
                if rec is None:
                    rec = agg[key] = [0, 0.0, 0.0, 0, 0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
                rec[3] += 1 if units is None else units(args, kwargs)
                rec[4] += raised

        setattr(wrapper, MARK, fn)
        return wrapper

    def _geometric(self, fn):
        """Split scalar geometric draws by whether a ratio was passed: the
        batch kernel's letter top-ups use the default ratio, its diagram
        fallback passes q^j."""
        default = self.wrap("streams.GeomStream.geometric", fn)
        explicit = self.wrap("streams.GeomStream.geometric(ratio)", fn)

        @functools.wraps(fn)
        def geometric(*args, **kwargs):
            has_ratio = len(args) > 1 or kwargs.get("ratio") is not None
            return (explicit if has_ratio else default)(*args, **kwargs)

        setattr(geometric, MARK, fn)
        return geometric

    # -- patching ----------------------------------------------------------
    def install(self, modules: dict[str, object], namespaces: list[object]) -> None:
        """Wrap the public surface of each layer in ``modules`` (layer name
        -> module) and patch it into ``namespaces`` wherever it is bound."""
        targets: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    targets[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
            if layer in CLASSES:
                self._install_methods(layer, getattr(mod, CLASSES[layer][0]), CLASSES[layer][1])
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                wrapper = targets.get(id(obj))
                if wrapper is not None:
                    self._patches.append((ns, attr, obj))
                    setattr(ns, attr, wrapper)

    def _install_methods(self, layer: str, cls, methods) -> None:
        if methods is None:
            methods = [a for a, f in vars(cls).items()
                       if inspect.isfunction(f) and not a.startswith("_")]
        for attr in methods:
            fn = vars(cls)[attr]
            if attr == "geometric":
                wrapper = self._geometric(fn)
            else:
                units = _stream_draws if attr == "uniforms" else None
                wrapper = self.wrap(f"{layer}.{cls.__name__}.{attr}", fn, units)
            self._patches.append((cls, attr, fn))
            setattr(cls, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def package_modules() -> dict[str, object]:
    import mallows

    return {layer: sys.modules[f"{mallows.__name__}.{layer}"] for layer in LAYERS}


def leftover_wrappers(namespaces: list[object]) -> list[str]:
    """Names in ``namespaces`` (and the classes they hold) still bound to a
    wrapper; empty after a complete restore."""
    found = []
    for ns in namespaces:
        for attr, obj in vars(ns).items():
            if hasattr(obj, MARK):
                found.append(f"{getattr(ns, '__name__', ns)}.{attr}")
            elif inspect.isclass(obj):
                found += [f"{obj.__name__}.{a}" for a, f in vars(obj).items() if hasattr(f, MARK)]
    return found


# --------------------------------------------------------------------------
# per-layer metrics from the aggregates
# --------------------------------------------------------------------------

_SCALAR_DRAWS = ("uniform", "geometric", "geometric(ratio)", "truncated_geometric", "bernoulli")
_VECTOR_DRAWS = ("uniforms", "geometrics", "truncated_geometrics")
_BATCH = "samplers.batch_interlacing_windows"


def layer_metrics(agg: dict, reps: int, ops: int, counts: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics per rep (``ops`` and ``counts`` summed over the
    traced reps).  ``_self_s`` is self time, other ``_s`` inclusive time."""

    def total(col: int, name: str, parent=None, outermost_of: str | None = None) -> float:
        out = 0.0
        for (n, par), rec in agg.items():
            if n != name or (parent is not None and par != parent):
                continue
            if outermost_of is not None and par is not None and par.startswith(outermost_of):
                continue
            out += rec[col]
        return out

    calls = functools.partial(total, 0)
    incl = functools.partial(total, 1)
    self_s = functools.partial(total, 2)
    units = functools.partial(total, 3)
    raised = functools.partial(total, 4)
    stream = "streams.GeomStream."
    dist_names = {n for n, _ in agg if n.startswith("dist.")}
    per_rep = {
        "streams.vector_draw_s": sum(incl(stream + m, outermost_of="streams.") for m in _VECTOR_DRAWS),
        "streams.scalar_draws": calls(stream + "uniform"),
        "streams.scalar_draw_s": sum(incl(stream + m, outermost_of="streams.") for m in _SCALAR_DRAWS),
        "samplers.interlacing_batch_self_s": self_s(_BATCH),
        "samplers.inversion_batch_self_s": self_s("samplers.batch_inversion_position0"),
        "samplers.fallback_bernoullis": calls(stream + "bernoulli", parent=_BATCH),
        "samplers.topup_draws": calls(stream + "geometric", parent=_BATCH),
        "samplers.young_s": incl("samplers.sample_young_euler"),
        "samplers.shuffle_s": incl("samplers.q_shuffle_prefix"),
        "samplers.inversion_scalar_self_s": self_s("samplers.sample_two_sided_inversion"),
        "perm.reconstruct_ell_calls": calls("perm.reconstruct_ell"),
        "perm.reconstruct_ell_s": incl("perm.reconstruct_ell"),
        "perm.eliminate_s": incl("perm.eliminate_right") + incl("perm.eliminate_left"),
        "perm.window_s": incl("perm.PermWindow.__init__"),
        "qseries.table_calls": calls("qseries.pochhammer_table"),
        "qseries.table_s": incl("qseries.pochhammer_table"),
        "dist.displacement_s": incl("dist.displacement_pmf"),
        "dist.fdd_s": incl("dist.fdd_probability"),
        "dist.failed": sum(raised(n, outermost_of="dist.") for n in dist_names),
        "dist.vacuous_tail_bounds": counts.get("dist.vacuous_tail_bounds", 0),
        "oracle.enumerate_s": incl("oracle.oracle_enumerate"),
        "verify.suite_self_s": self_s("verify.run_suite"),
        "cli.self_s": self_s("cli.main"),
    }
    out = {k: v / reps for k, v in per_rep.items()}
    uniforms = units(stream + "uniform") + units(stream + "uniforms")
    out["streams.uniforms_per_row"] = uniforms / ops if ops else 0.0
    return out
