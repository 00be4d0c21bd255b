"""Hooks on fftcond's layer entry points, installed from outside the package.

Each hook replaces a name in the module that *calls* it (``fftcond.cli``
calls ``solve`` and the geometry builders; ``fftcond.solvers`` calls the
spectral operators), so the package itself is untouched. The ``solvers``
hook always records each returned ``SolveResult`` for the correctness
gate; the other hooks, and the spans, are installed only when tracing.
"""

from __future__ import annotations

import importlib
import math
import time
from dataclasses import dataclass

# (layer, module whose global is replaced, name)
HOOKS = (
    ("cli", "fftcond.cli", "main"),
    ("geometry", "fftcond.cli", "build_square_array"),
    ("geometry", "fftcond.cli", "build_disk_array"),
    ("solvers", "fftcond.cli", "solve"),
    ("spectral_ops.fft", "fftcond.solvers", "_gamma1_arr"),
    ("spectral_ops.reduce", "fftcond.solvers", "_mean_vec"),
    ("spectral_ops.reduce", "fftcond.solvers", "_compensated_total"),
    ("spectral_ops.local_A", "fftcond.solvers", "_apply_A_arrays"),
)
LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in HOOKS))


def fft_flops(data) -> float:
    """Computed FLOPs of one projection: 4 FFTs of N = ny*nx points, 5 N log2 N each."""
    npix = data.shape[-1] * data.shape[-2]
    return 4 * 5 * npix * math.log2(npix)


@dataclass
class Solve:
    """What the gate and the per-layer metrics need from one scheme run."""

    scheme: str
    cfg: object  # fftcond.solvers.SolverConfig
    status: str | None  # None if the solve raised
    sigma_star: complex | None
    history: object | None  # fftcond.solvers.ConvergenceHistory
    error: str | None
    span: int | None  # index of its ``solvers`` span when tracing

    @property
    def iterations(self) -> int:
        return len(self.history) if self.history is not None else 0


@dataclass
class Span:
    layer: str
    start_ns: int
    end_ns: int
    parent: int  # index into the span list, -1 for a root


class Probe:
    """Context manager that installs the hooks and collects what they see."""

    def __init__(self, trace: bool):
        self.trace = trace
        self.spans: list[Span | None] = []
        self.solves: list[Solve] = []
        self.absent: list[str] = []
        self.fft_flops = 0.0
        self._stack: list[int] = []
        self._saved = []

    def __enter__(self):
        for layer, module_name, attr in HOOKS:
            if not self.trace and layer != "solvers":
                continue
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                # e.g. an operator moved by a refactor: its time stays in its caller
                self.absent.append(f"{module_name}.{attr}")
                continue
            wrapped = self._span(layer, fn) if self.trace else fn
            if layer == "solvers":
                wrapped = self._capture(wrapped)
            self._saved.append((module, attr, fn))
            setattr(module, attr, wrapped)
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _span(self, layer, fn):
        spans, stack = self.spans, self._stack
        count_flops = layer == "spectral_ops.fft"

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[index] = Span(layer, start, end, parent)
                if count_flops:
                    self.fft_flops += fft_flops(args[0])

        return traced

    def _capture(self, fn):
        def solve(pmap, cfg):
            first = len(self.spans) if self.trace else None
            try:
                result = fn(pmap, cfg)
            except Exception as exc:  # the gate counts it; the CLI decides what happens next
                self.solves.append(Solve(cfg.scheme.value, cfg, None, None, None, repr(exc), first))
                raise
            # keep scalars only, never the fields: they would inflate peak memory
            self.solves.append(
                Solve(cfg.scheme.value, cfg, result.status.value, result.sigma_star,
                      result.history, None, first)
            )
            return result

        return solve

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Calls and self seconds per layer.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly, so children never overlap.
        """
        totals = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_ns[span.parent] += span.end_ns - span.start_ns
        for span, children in zip(self.spans, child_ns):
            entry = totals[span.layer]
            entry["calls"] += 1
            entry["self_s"] += (span.end_ns - span.start_ns - children) * 1e-9
        return totals

    def span_seconds(self, index: int) -> float:
        span = self.spans[index]
        return (span.end_ns - span.start_ns) * 1e-9

    def dump_spans(self, path, pass_index: int):
        """Append the spans as CSV rows: pass, index, layer, start_ns, end_ns, parent."""
        with open(path, "a") as fh:
            for i, s in enumerate(self.spans):
                fh.write(f"{pass_index},{i},{s.layer},{s.start_ns},{s.end_ns},{s.parent}\n")
