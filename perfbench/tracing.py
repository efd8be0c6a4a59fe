"""Per-layer tracing from outside the program.

``Tracer.install`` replaces the public functions listed in ``LAYERS`` with
wrappers wherever callers look them up: on the class for methods, and in every
``hallforge`` module that imported the function by name.  Each wrapped call
records a span (name, start, end, parent span, check id) in flat in-memory
arrays; the spans are written out once, when the round ends.  A layer's self
time is its spans' duration minus the part covered by its child spans.  The
harness opens one root span for set-up and one per check, so every second
inside them is attributed either to a layer or to ``other.self_s``.
"""
from __future__ import annotations

import gzip
import importlib
import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

# (module, attribute path, metric prefix).  Several attributes may share one
# prefix; their calls and self time add up.
LAYERS = (
    ("linalg", "rref", "linalg.rref"),
    ("linalg", "Mat.mul", "linalg.Mat.mul"),
    ("linalg", "kernel_basis", "linalg.kernel_basis"),
    ("linalg", "is_invertible", "linalg.is_invertible"),
    ("reps", "ClassRegistry.ensure_enumerated", "reps.ClassRegistry.ensure_enumerated"),
    ("reps", "is_isomorphic", "reps.is_isomorphic"),
    ("reps", "hom_dim", "reps.hom_dim"),
    ("reps", "ClassRegistry.aut_count", "reps.ClassRegistry.aut_count"),
    ("reps", "aut_count", "reps.aut_count"),
    ("hall", "hall_number", "hall.hall_number"),
    ("hall", "ext1_middle_count", "hall.ext1_middle_count"),
    ("hall", "gamma_coeff", "hall.gamma_coeff"),
    ("complexes", "enumerate_complex_classes", "complexes.enumerate_complex_classes"),
    ("complexes", "is_chain_isomorphic", "complexes.is_chain_isomorphic"),
    ("complexes", "dt_hom_with_cone_count", "complexes.dt_hom_with_cone_count"),
    ("complexes", "hom_dt_count", "complexes.hom_dt_count"),
    ("algebra", "DerivedHall.multiply_graded", "algebra.DerivedHall.multiply_graded"),
    ("algebra", "DerivedHall.lt_mul_odd", "algebra.DerivedHall.lt_mul_odd"),
    ("algebra", "DerivedHall.lt_mul_t0", "algebra.DerivedHall.lt_mul_t0"),
    ("algebra", "DerivedHall.multiply", "algebra.DerivedHall.multiply"),
    ("algebra", "HallVector.add", "algebra.HallVector.add"),
    ("algebra", "HallVector.scale", "algebra.HallVector.scale"),
    ("algebra", "DerivedHall.normalize_generator_word",
     "algebra.DerivedHall.normalize_generator_word"),
    ("algebra", "DerivedHall.rp_product_t1", "algebra.DerivedHall.rp_product_t1"),
    ("algebra", "DerivedHall.a_prime", "algebra.DerivedHall.a_prime"),
    ("scalars", "QSqrtScalar.__add__", "scalars.QSqrtScalar"),
    ("scalars", "QSqrtScalar.__mul__", "scalars.QSqrtScalar"),
    ("scalars", "QSqrtScalar.__truediv__", "scalars.QSqrtScalar"),
    ("cache", "load_cache", "cache.load_cache"),
    ("cache", "save_cache", "cache.save_cache"),
    ("cli", "dispatch", "cli.dispatch"),
)

ROOTS = ("bench.setup", "bench.check")
# The scalar layer's call count is reported as arithmetic operations.
COUNT_STAT = {"scalars.QSqrtScalar": "ops"}


def _file_size(path) -> int:
    try:
        return Path(path).stat().st_size
    except (OSError, TypeError):
        return 0


def _replace(targets, original, replacement) -> None:
    """Rebind every name in the targets' namespaces that refers to original."""
    for target in targets:
        for key, value in list(vars(target).items()):
            if value is original:
                setattr(target, key, replacement)


class Tracer:
    """Span recorder plus the counters that are measured at layer boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_s: list[float] = []
        # One entry per span.
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.check_of = array("q")
        # Open spans: index and time covered by finished children.
        self._open: list[int] = []
        self._child: list[float] = []
        self.check_id = -1
        self.counters: dict[str, float] = {}

    def _id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return self.ids[name]

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    # -- spans ----------------------------------------------------------------

    def open(self, nid: int, t0: float) -> None:
        self._open.append(len(self.start))
        self._child.append(0.0)
        self.name_of.append(nid)
        self.start.append(t0)
        self.end.append(t0)
        self.parent.append(self._open[-2] if len(self._open) > 1 else -1)
        self.check_of.append(self.check_id)

    def close(self, nid: int, t1: float) -> None:
        idx = self._open.pop()
        child = self._child.pop()
        self.end[idx] = t1
        dur = t1 - self.start[idx]
        self.self_s[nid] += dur - child
        self.calls[nid] += 1
        if self._child:
            self._child[-1] += dur

    @contextmanager
    def root(self, name: str, check_id: int = -1):
        """A harness root span: set-up, or one check."""
        self.check_id = check_id
        nid = self._id(name)
        self.open(nid, time.perf_counter())
        try:
            yield
        finally:
            self.close(nid, time.perf_counter())

    # -- wrapping -------------------------------------------------------------

    def wrap(self, fn, prefix: str):
        nid = self._id(prefix)
        hook = HOOKS.get(prefix)
        open_, close, clock = self.open, self.close, time.perf_counter

        if hook is None:
            def wrapper(*args, **kwargs):
                open_(nid, clock())
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(nid, clock())
        else:
            tracer = self
            before = PRE_HOOKS.get(prefix)

            def wrapper(*args, **kwargs):
                state = before(args) if before else None
                open_(nid, clock())
                result, exc = None, None
                try:
                    result = fn(*args, **kwargs)
                    return result
                except Exception as e:
                    exc = e
                    raise
                finally:
                    close(nid, clock())
                    hook(tracer, args, result, exc, state)
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", prefix)
        return wrapper

    def install(self) -> None:
        """Wrap every function in LAYERS in place, in all hallforge modules."""
        importlib.import_module("hallforge.cli")
        modules = [m for name, m in sys.modules.items()
                   if name == "hallforge" or name.startswith("hallforge.")]
        for mod_name, path, prefix in LAYERS:
            owner = importlib.import_module(f"hallforge.{mod_name}")
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapped = self.wrap(original, prefix)
            # Aliases such as QSqrtScalar.__radd__ = __add__ share the original.
            _replace([owner] if cls_path else modules, original, wrapped)
        self._wrap_generator("hall", "closed_subspace_tuples",
                             "hall.closed_subspace_tuples.yielded", modules)

    def _wrap_generator(self, mod_name: str, attr: str, counter: str, modules) -> None:
        """Count the items a generator yields; its time stays with the consumer."""
        original = getattr(importlib.import_module(f"hallforge.{mod_name}"), attr)
        counters = self.counters
        counters[counter] = 0

        def wrapper(*args, **kwargs):
            for item in original(*args, **kwargs):
                counters[counter] += 1
                yield item
        _replace(modules, original, wrapper)

    # -- results --------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        other = 0.0
        for nid, name in enumerate(self.names):
            if name in ROOTS:
                other += self.self_s[nid]
                continue
            out[f"{name}.{COUNT_STAT.get(name, 'calls')}"] = self.calls[nid]
            out[f"{name}.self_s"] = self.self_s[nid]
        out["other.self_s"] = other
        out["trace.self_sum_s"] = sum(self.self_s)
        out["trace.spans"] = len(self.start)
        out.update(self.counters)
        trues = out.pop("reps.is_isomorphic.true", 0)
        calls = out.get("reps.is_isomorphic.calls", 0)
        out["reps.is_isomorphic.true_ratio"] = trues / calls if calls else 0.0
        return out

    def write_spans(self, path: Path) -> None:
        """Spans as gzip'd CSV: name, start_s, end_s, parent index, check id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name,start_s,end_s,parent,check\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(f"{names[self.name_of[i]]},{self.start[i]:.9f},{self.end[i]:.9f},"
                         f"{self.parent[i]},{self.check_of[i]}\n")


# -- boundary hooks: counts derived from a call's inputs and outcome ------------
#
# A pre-hook reads, before the call, whether the key is already in the memo the
# function consults; "first_calls" are the calls that miss it.


def _hall_memo_hit(args) -> bool:
    reg, a, b, c = args[:4]
    return (a, b, c) in reg._memos.get("hall_number", {})


def _hall_number(tr: Tracer, args, result, exc, hit) -> None:
    reg, a, b, c = args[:4]
    if hit or tuple(x + y for x, y in zip(a.dims, b.dims)) != tuple(c.dims):
        return
    from hallforge.reps import _arrows_vertex_disjoint
    tr.count("hall.hall_number.first_calls")
    if c.index == 0:
        tr.count("hall.hall_number.route.split")
    elif _arrows_vertex_disjoint(reg.quiver):
        tr.count("hall.hall_number.route.rank_form")
    else:
        tr.count("hall.hall_number.route.generic")


def _already_enumerated(args) -> bool:
    return tuple(args[1]) in args[0]._classes


def _ensure_enumerated(tr: Tracer, args, result, exc, hit) -> None:
    reg, dims = args[0], tuple(args[1])
    if exc is not None or hit:
        return
    from hallforge.reps import _arrows_vertex_disjoint
    tr.count("reps.classes_found", len(reg._classes[dims]))
    if not _arrows_vertex_disjoint(reg.quiver):
        entries = sum(dims[a.target] * dims[a.source] for a in reg.quiver.arrows)
        tr.count("reps.tuples_swept", reg.p ** entries)


def _is_isomorphic(tr: Tracer, args, result, exc, hit) -> None:
    if result:
        tr.count("reps.is_isomorphic.true")


def _counts_misses(name: str):
    def hook(tr: Tracer, args, result, exc, hit) -> None:
        if not hit:
            tr.count(f"{name}.first_calls")
    return hook


def _load_cache(tr: Tracer, args, result, exc, hit) -> None:
    from hallforge.cache import cache_path
    from hallforge.errors import CacheInvalid
    if isinstance(exc, CacheInvalid):
        tr.count("cache.rejected")
    elif result:
        reg, t = args[0], args[1]
        tr.count("cache.bytes_read", _file_size(cache_path(reg.quiver, reg.p, t)))


def _save_cache(tr: Tracer, args, result, exc, hit) -> None:
    if result is not None:
        tr.count("cache.bytes_written", _file_size(result))


PRE_HOOKS = {
    "reps.ClassRegistry.ensure_enumerated": _already_enumerated,
    "hall.hall_number": _hall_memo_hit,
    "reps.ClassRegistry.aut_count": lambda args: args[1] in args[0]._aut,
    "algebra.DerivedHall.multiply_graded": lambda args: (args[1], args[2]) in args[0]._mul,
}

HOOKS = {
    "hall.hall_number": _hall_number,
    "reps.ClassRegistry.ensure_enumerated": _ensure_enumerated,
    "reps.is_isomorphic": _is_isomorphic,
    "reps.ClassRegistry.aut_count": _counts_misses("reps.ClassRegistry.aut_count"),
    "algebra.DerivedHall.multiply_graded": _counts_misses("algebra.DerivedHall.multiply_graded"),
    "cache.load_cache": _load_cache,
    "cache.save_cache": _save_cache,
}
