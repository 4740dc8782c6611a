"""Out-of-tree span tracer for syzlab's public functions.

The tracer wraps each target function at every ``syzlab.*`` module
binding that holds it (``koszul.rank`` and ``koszul.kernel_basis`` are
imported by name, so patching ``linalg.rank`` alone would miss them) and
restores the originals on exit.  Nothing inside ``src/`` is changed.

A span's self time is its duration minus the time covered by its child
spans.  Time the tracer spends on its own bookkeeping (counting nonzeros,
binding arguments) is kept out of every span and reported separately, so

    root span duration == sum of all self times + nested bookkeeping

holds up to clock resolution.  What tracing adds to a region is that
bookkeeping plus, for every span call, the fixed cost of the wrapper that
call_cost measures.
"""

from __future__ import annotations

import inspect
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

# Layers of the program, in ROADMAP order.
LAYERS = ("L0", "L1", "L2", "L3", "L4")


def _rref_probe(bound: inspect.BoundArguments, result) -> dict[str, float]:
    arr = np.asarray(bound.arguments["mat"])
    # nonzeros of the array as passed; every caller passes reduced residues
    return {"entries": arr.size, "nnz": int(np.count_nonzero(arr)), "max_entries": arr.size}


def _interpolation_probe(bound: inspect.BoundArguments, result) -> dict[str, float]:
    _, pts = result
    return {"rows": len(pts), "ambient": int(bound.arguments["ambient_dim"])}


@dataclass(frozen=True)
class Target:
    """One traced function: span name, where it is defined, its layer."""

    name: str
    module: str
    qualname: str
    layer: str
    probe: Optional[Callable[[inspect.BoundArguments, Any], dict]] = None


# The public functions of each layer.  Unlisted helpers (gfpoly, private
# functions) are not spans; their time is the self time of their caller.
# classify_theorem is defined in koszul but is the per-model pipeline that
# harness.analyze_model and harness.theorem_sweep run, so it counts as L4.
TARGETS: tuple[Target, ...] = (
    Target("linalg.rref", "syzlab.linalg", "rref", "L0", _rref_probe),
    Target("linalg.rank", "syzlab.linalg", "rank", "L0"),
    Target("linalg.kernel_basis", "syzlab.linalg", "kernel_basis", "L0"),
    Target("linalg.solve", "syzlab.linalg", "solve", "L0"),
    Target("linalg.Subspace.from_rows", "syzlab.linalg", "Subspace.from_rows", "L0"),
    Target("linalg.Subspace.reduce", "syzlab.linalg", "Subspace.reduce", "L0"),
    Target("linalg.Subspace.intersect", "syzlab.linalg", "Subspace.intersect", "L0"),
    Target("ring.product_table", "syzlab.ring", "GradedRing.product_table", "L1"),
    Target("ring.multiplication_matrix", "syzlab.ring", "GradedRing.multiplication_matrix", "L1"),
    Target("ring.ideal_piece", "syzlab.ring", "GradedRing.ideal_piece", "L1"),
    Target("ring.multiply", "syzlab.ring", "GradedRing.multiply", "L1"),
    Target("ring.evaluate", "syzlab.ring", "GradedRing.evaluate", "L1"),
    Target("ring.evaluate_monomials", "syzlab.ring", "GradedRing.evaluate_monomials", "L1"),
    Target("koszul.syzygy_kernel", "syzlab.koszul", "syzygy_kernel", "L2"),
    Target("koszul.linear_syzygies", "syzlab.koszul", "linear_syzygies", "L2"),
    Target("koszul.syz2_span", "syzlab.koszul", "syz2_span", "L2"),
    Target("koszul.koszul_dimension", "syzlab.koszul", "koszul_dimension", "L2"),
    Target("koszul.betti_table", "syzlab.koszul", "betti_table", "L2"),
    Target("scroll.fourgonal_curve", "syzlab.scroll", "fourgonal_curve", "L3"),
    Target("scroll.restriction_image", "syzlab.scroll", "restriction_image", "L3"),
    Target("scroll.scrollar_bidegrees", "syzlab.scroll", "scrollar_bidegrees", "L3"),
    Target("surfaces.bielliptic_curve", "syzlab.surfaces", "bielliptic_curve", "L3"),
    Target("surfaces.delpezzo_curve", "syzlab.surfaces", "delpezzo_curve", "L3"),
    Target("surfaces.genus5_intersection", "syzlab.surfaces", "genus5_intersection", "L3"),
    Target("surfaces.interpolation_kernel", "syzlab.surfaces", "interpolation_kernel", "L3",
           _interpolation_probe),
    Target("harness.theorem_sweep", "syzlab.harness", "theorem_sweep", "L4"),
    Target("harness.analyze_model", "syzlab.harness", "analyze_model", "L4"),
    Target("harness.construct_model", "syzlab.harness", "construct_model", "L4"),
    Target("harness.recovered_bidegrees", "syzlab.harness", "recovered_bidegrees", "L4"),
    Target("harness.classify_theorem", "syzlab.koszul", "classify_theorem", "L4"),
    Target("io.model_digest", "syzlab.io", "model_digest", "L4"),
)


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    errors: dict[str, int] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)

    def add_counters(self, extra: dict[str, float]) -> None:
        """Sum counters, except that ``max_*`` counters keep the maximum."""
        for k, v in extra.items():
            prev = self.counters.get(k, 0)
            self.counters[k] = max(prev, v) if k.startswith("max_") else prev + v


class Trace:
    """Aggregated spans of one traced region (set-up or one iteration)."""

    def __init__(self) -> None:
        self.spans: dict[str, SpanStats] = {}
        self.bookkeeping_s = 0.0

    def stats(self, name: str) -> SpanStats:
        return self.spans.get(name) or SpanStats()

    def layer_self_s(self, layer: str) -> float:
        return sum(
            s.self_s for t in TARGETS if t.layer == layer for s in [self.stats(t.name)]
        )

    def merged(self, other: "Trace") -> "Trace":
        out = Trace()
        out.bookkeeping_s = self.bookkeeping_s + other.bookkeeping_s
        for src in (self, other):
            for name, s in src.spans.items():
                acc = out.spans.setdefault(name, SpanStats())
                acc.calls += s.calls
                acc.total_s += s.total_s
                acc.self_s += s.self_s
                for k, v in s.errors.items():
                    acc.errors[k] = acc.errors.get(k, 0) + v
                acc.add_counters(s.counters)
        return out


def _resolve(target: Target):
    """(owner, attribute, raw descriptor) for a target, or None if absent."""
    mod = sys.modules.get(target.module)
    if mod is None:
        return None
    owner: Any = mod
    *path, attr = target.qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    raw = vars(owner).get(attr)
    if raw is None:
        return None
    return owner, attr, raw


class Tracer:
    """Context manager: installs span wrappers, yields a fresh Trace that
    collects every traced call made inside the block, restores on exit.

    Functions the target list names but the program no longer has are
    skipped and listed in ``missing``.
    """

    def __init__(self, targets: tuple[Target, ...] = TARGETS):
        self.targets = targets
        self.missing: list[str] = []
        self._patched: list[tuple[Any, str, Any]] = []
        self._stack: list[list[float]] = []
        self.trace = Trace()

    def __enter__(self) -> Trace:
        try:
            for target in self.targets:
                self._install(target)
        except BaseException:
            self.restore()
            raise
        return self.trace

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _install(self, target: Target) -> None:
        found = _resolve(target)
        if found is None:
            self.missing.append(target.name)
            return
        owner, attr, raw = found
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrap(target, raw.__func__))
        elif isinstance(raw, staticmethod):
            wrapped = staticmethod(self._wrap(target, raw.__func__))
        else:
            wrapped = self._wrap(target, raw)
        self._patched.append((owner, attr, raw))
        setattr(owner, attr, wrapped)
        if owner is sys.modules[target.module]:
            # plain function: also rebind every module that imported it by name
            for mod in syzlab_modules():
                for name, value in list(vars(mod).items()):
                    if value is raw:
                        self._patched.append((mod, name, raw))
                        setattr(mod, name, wrapped)

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        signature = inspect.signature(fn)
        clock, stack, trace = time.perf_counter, self._stack, self.trace
        name, probe = target.name, target.probe

        def span(*args, **kwargs):
            t_in = clock()
            bound = signature.bind(*args, **kwargs) if probe else None
            children = [0.0]
            stack.append(children)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                t1 = clock()
                stack.pop()
                stats = trace.spans.setdefault(name, SpanStats())
                kind = type(exc).__name__
                stats.errors[kind] = stats.errors.get(kind, 0) + 1
                self._close(stats, t_in, t0, t1, children[0], None)
                raise
            t1 = clock()
            stack.pop()
            stats = trace.spans.setdefault(name, SpanStats())
            self._close(stats, t_in, t0, t1, children[0],
                        probe(bound, result) if probe else None)
            return result

        span.__wrapped__ = fn
        span.__name__ = getattr(fn, "__name__", name)
        span.__qualname__ = getattr(fn, "__qualname__", name)
        span.__doc__ = fn.__doc__
        return span

    def _close(self, stats: SpanStats, t_in: float, t0: float, t1: float,
               children: float, extra: Optional[dict]) -> None:
        stats.calls += 1
        stats.total_s += t1 - t0
        stats.self_s += (t1 - t0) - children
        if extra:
            stats.add_counters(extra)
        t_out = time.perf_counter()
        self.trace.bookkeeping_s += (t0 - t_in) + (t_out - t1)
        if self._stack:
            self._stack[-1][0] += t_out - t_in


def call_cost(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds a span wrapper adds to one call beyond what it books as
    bookkeeping: the wrapper's own call, clock reads and stack updates.
    Measured on a no-op function without a probe; the best of ``repeats``
    loops is taken for both the wrapped and the bare function."""

    def noop() -> None:
        pass

    tracer = Tracer(targets=())
    wrapped = tracer._wrap(Target("noop", "", "noop", "L0"), noop)

    def best(fn: Callable) -> float:
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(calls):
                fn()
            times.append(time.perf_counter() - t0)
        return min(times)

    bare = best(noop)
    extra = best(wrapped) - bare
    booked = tracer.trace.bookkeeping_s / repeats
    return max(0.0, extra - booked) / calls


def overhead_s(trace: Trace, cost: float) -> float:
    """Time tracing adds to a traced region: the bookkeeping it measured
    plus ``cost`` (see call_cost) for every span call."""
    return trace.bookkeeping_s + cost * sum(s.calls for s in trace.spans.values())


def syzlab_modules() -> list:
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "syzlab" or name.startswith("syzlab."))
    ]


def snapshot() -> dict[tuple[str, str], int]:
    """id() of every attribute of every syzlab module and of its classes;
    equal snapshots before and after tracing mean nothing stayed patched."""
    out: dict[tuple[str, str], int] = {}
    for mod in syzlab_modules():
        for attr, value in vars(mod).items():
            out[(mod.__name__, attr)] = id(value)
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for member, raw in vars(value).items():
                    out[(mod.__name__, f"{attr}.{member}")] = id(raw)
    return out
