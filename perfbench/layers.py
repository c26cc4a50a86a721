"""Outside-in layer timers.

Each layer is measured by wrapping its public functions at the module
where the caller looks them up (``repro.synthesis.cover.minimize``, not
``repro.boolean.minimize.minimize``, because ``cover`` binds the name
at import).  A wrapper records calls, wall time, self time (its wall
time minus that of the wrapped calls it made) and calls that raised.
Spans nest per thread, so the serve daemon's worker and handler
threads are attributed correctly.

Installing fails loudly when a patched name is missing: a rename in
the program must break the benchmark, not zero a layer metric.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: layer metric -> the (module, attribute) sites its callers look up
SITES: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "boolean.minimize": (
        ("repro.synthesis.cover", "minimize"),),
    "boolean.generate_divisors": (
        ("repro.mapping.decompose", "generate_divisors"),),
    "synthesis.synthesize_all": (
        ("repro.pipeline.context", "synthesize_all"),
        ("repro.mapping.decompose", "synthesize_all")),
    "synthesis.synthesize_signal": (
        ("repro.synthesis.cover", "synthesize_signal"),
        ("repro.mapping.decompose", "synthesize_signal")),
    "synthesis.resynthesize_signal": (
        ("repro.synthesis.cover", "resynthesize_signal"),
        ("repro.mapping.decompose", "resynthesize_signal")),
    "mapping.map": (
        ("repro.mapping.decompose", "TechnologyMapper.map"),),
    "mapping.compute_insertion_sets": (
        ("repro.mapping.decompose", "compute_insertion_sets"),),
    "mapping.insert_signal": (
        ("repro.mapping.decompose", "insert_signal"),),
    "mapping.verify_insertion": (
        ("repro.mapping.insertion", "verify_insertion"),),
    "mapping.check_property_31": (
        ("repro.mapping.decompose", "check_property_31"),),
    "mapping.estimate_global_impact": (
        ("repro.mapping.decompose", "estimate_global_impact"),),
    "sg.check_speed_independence": (
        ("repro.sg.properties", "check_speed_independence"),
        ("repro.mapping.insertion", "check_speed_independence"),
        ("repro.pipeline.context", "check_speed_independence")),
    "sg.state_graph_of": (
        ("repro.sg.reachability", "state_graph_of"),
        ("repro.pipeline.context", "state_graph_of")),
    "stg.parse_g": (
        ("repro.bench_suite.circuits", "parse_g"),
        ("repro.pipeline.context", "parse_g"),
        ("repro.dist.jobs", "parse_g")),
    "stg.write_g": (
        ("repro.pipeline.context", "write_g"),
        ("repro.dist.jobs", "write_g")),
    "pipeline.run": (
        ("repro.pipeline.run", "Pipeline.run"),),
    "pipeline.store.get": (
        ("repro.pipeline.store", "DiskArtifactCache.get"),),
    "pipeline.store.put": (
        ("repro.pipeline.store", "DiskArtifactCache.put"),),
    "dist.envelope.decode": (
        ("repro.pipeline.store", "decode_entry"),),
    "dist.envelope.encode": (
        ("repro.pipeline.store", "encode_entry"),),
}


class WiringError(RuntimeError):
    """A wrapped name is missing from the program."""


class _Span:
    __slots__ = ("calls", "seconds", "self_seconds", "failed")

    def __init__(self) -> None:
        self.calls = 0
        self.seconds = 0.0
        self.self_seconds = 0.0
        self.failed = 0


class LayerTracer:
    """Per-layer call counters and timers fed by the wrappers."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.spans: Dict[str, _Span] = {name: _Span() for name in SITES}
        #: layer counters that are not spans (``mapping.map.ni`` ...)
        self.counts: Dict[str, float] = {}
        #: results kept for verification: (spec graph, mapping result)
        self.mappings: List[Tuple[Any, Any]] = []
        self.keep_mappings = False

    def add(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def peak(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] = max(self.counts.get(name, 0), value)

    def wrap(self, name: str, function: Callable,
             on_result: Optional[Callable] = None) -> Callable:
        """``function`` timed as layer ``name``; ``on_result(args,
        result, seconds)`` sees each successful call."""
        local = self._local
        span = self.spans.setdefault(name, _Span())
        lock = self._lock
        clock = time.perf_counter

        @functools.wraps(function)
        def timed(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            stack.append(0.0)
            start = clock()
            ok = False
            try:
                result = function(*args, **kwargs)
                ok = True
            finally:
                seconds = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += seconds
                with lock:
                    span.calls += 1
                    span.seconds += seconds
                    span.self_seconds += seconds - children
                    if not ok:
                        span.failed += 1
            if on_result is not None:
                on_result(args, result, seconds)
            return result

        timed.__wrapped_layer__ = name  # type: ignore[attr-defined]
        return timed

    # ------------------------------------------------------------------
    # Result hooks: the counters a return value carries
    # ------------------------------------------------------------------

    def _on_map(self, args, result, seconds) -> None:
        self.add("mapping.steps_accepted", len(result.steps))
        self.peak("sg.peak_states", len(result.sg))
        if not result.success:
            self.add("mapping.map.ni")
            self.add("mapping.map.ni_s", seconds)
        if self.keep_mappings:
            with self._lock:
                self.mappings.append((args[1], result))

    def _on_resynthesize(self, args, result, seconds) -> None:
        if result[1]:
            self.add("synthesis.resynthesize_signal.reused")

    def _on_state_graph(self, args, result, seconds) -> None:
        self.peak("sg.peak_states", len(result))

    def _on_insert(self, args, result, seconds) -> None:
        self.peak("sg.peak_states", len(result.sg))

    def install(self) -> None:
        """Patch every site in :data:`SITES`; raise :class:`WiringError`
        on the first name the program no longer has."""
        hooks = {"mapping.map": self._on_map,
                 "synthesis.resynthesize_signal": self._on_resynthesize,
                 "sg.state_graph_of": self._on_state_graph,
                 "mapping.insert_signal": self._on_insert}
        for name, sites in SITES.items():
            for module_name, attribute in sites:
                owner, leaf, original = _resolve(module_name, attribute)
                if getattr(original, "__wrapped_layer__", None):
                    raise WiringError(
                        f"{module_name}.{attribute} is wrapped twice")
                setattr(owner, leaf,
                        self.wrap(name, original, hooks.get(name)))

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Plain-data copy of every span and counter."""
        with self._lock:
            spans = {name: {"calls": span.calls,
                            "seconds": span.seconds,
                            "self_s": span.self_seconds,
                            "failed": span.failed}
                     for name, span in self.spans.items()}
            counts = dict(self.counts)
        return {"spans": spans, "counts": counts}


def _resolve(module_name: str, attribute: str):
    """``(owner, leaf name, current value)`` of a dotted attribute."""
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError as error:
        raise WiringError(f"cannot import {module_name}: {error}") \
            from error
    *path, leaf = attribute.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            raise WiringError(f"{module_name}.{part} is missing")
    original = owner.__dict__.get(leaf) if isinstance(owner, type) \
        else getattr(owner, leaf, None)
    if not callable(original):
        raise WiringError(
            f"{module_name}.{attribute} is missing or not callable; "
            "a layer metric would silently read 0")
    return owner, leaf, original


def merge(snapshots: List[Dict[str, Dict[str, float]]]
          ) -> Dict[str, Dict[str, float]]:
    """Sum several snapshots (peaks take the maximum)."""
    spans: Dict[str, Dict[str, float]] = {}
    counts: Dict[str, float] = {}
    for snap in snapshots:
        for name, span in snap["spans"].items():
            total = spans.setdefault(name, dict.fromkeys(span, 0))
            for key, value in span.items():
                total[key] += value
        for name, value in snap["counts"].items():
            if name == "sg.peak_states":
                counts[name] = max(counts.get(name, 0), value)
            else:
                counts[name] = counts.get(name, 0) + value
    return {"spans": spans, "counts": counts}
