"""Per-layer spans recorded from outside the program.

``Tracer`` wraps the public functions of each ctecs layer at the names its
callers look them up under (``from .x import y`` binds a second name, so
both bindings are patched), records one span per call with its parent,
and restores every original on exit.  Nothing under ``src/`` is changed.
Spans stay in memory; ``layer_metrics`` reduces one cycle's spans to the
per-layer numbers the benchmark prints.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    # the same name is already open further up the stack (EcsProduct
    # calls its factors' columns_bits); totals skip such spans
    nested: bool = False
    rows: int = 0
    width: float = 0.0
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


def _leading_rows(bits) -> int:
    shape = np.shape(bits)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


@dataclass
class Tracer:
    """Context manager that installs the wrappers while it is entered.

    While ``recording`` is off the wrappers call straight through; the
    benchmark switches it off for its untimed probe calls between cycles.
    """

    spans: list[Span] = field(default_factory=list)
    stats: list = field(default_factory=list)
    last_table: object = None
    recording: bool = True
    _stack: list[int] = field(default_factory=list)
    _patched: list = field(default_factory=list)

    # --- span bookkeeping -------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        nested = any(self.spans[i].name == name for i in self._stack)
        self.spans.append(Span(name, 0.0, parent=parent, nested=nested))
        index = len(self.spans) - 1
        self._stack.append(index)
        self.spans[index].start = time.perf_counter()
        return index

    def _close(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_s += span.duration
        return span

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        if not self.recording:
            yield
            return
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def reset(self) -> None:
        self.spans = []
        self.stats = []

    # --- wrappers -----------------------------------------------------------------

    def _wrap(self, owner, attr: str, name: str, after=None) -> None:
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return original(*args, **kwargs)
            index = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                span = tracer._close(index)
            if after is not None:
                after(span, args, kwargs, result)
            return result

        # keep the class's own entry (or its absence) so exit restores it
        had_own = isinstance(owner, type) and attr in owner.__dict__
        self._patched.append((owner, attr, original, had_own))
        setattr(owner, attr, wrapper)

    def __enter__(self) -> "Tracer":
        from ctecs import cli, ctstate, ecs, fourier, oracle, sampler

        def rows_in(span, args, kwargs, result):
            span.rows = _leading_rows(args[1])

        def rows_drawn(span, args, kwargs, result):
            span.rows = int(args[2] if len(args) > 2 else kwargs["size"])

        def columns(span, args, kwargs, result):
            betas = result[0]
            span.rows = int(betas.shape[0])
            span.width = float(betas.shape[1]) if betas.ndim > 1 else 1.0

        def estimator_stats(span, args, kwargs, result):
            self.stats.append(result)

        def keep_table(span, args, kwargs, result):
            self.last_table = result

        def walk(span, args, kwargs, result):
            self.last_table = args[0]
            span.rows = int(result.shape[0])

        self._wrap(fourier, "ecs_for", "ecs.ecs_for")
        self._wrap(fourier, "check_ecs_observable", "ecs.check")
        self._wrap(fourier, "estimate_expectation_detailed", "fourier.estimate",
                   estimator_stats)
        for module in (sampler, cli):
            self._wrap(module, "build_low_degree_table", "fourier.table",
                       keep_table)
        self._wrap(sampler, "attenuate", "fourier.attenuate")
        self._wrap(sampler, "sample_alg_batch", "sampler.walk", walk)
        self._wrap(cli, "enumerate_alg_distribution", "sampler.enumerate")
        self._wrap(oracle, "output_distribution", "oracle.output_distribution")
        self._wrap(oracle, "apply_depolarizing_exact", "oracle.depolarize")
        self._wrap(oracle, "walsh_hadamard", "oracle.walsh")
        self._wrap(ctstate.PhaseState, "amplitudes", "ctstate.amplitudes", rows_in)
        self._wrap(ctstate.PhaseState, "sample_bits", "ctstate.sample_bits",
                   rows_drawn)
        for cls in (ecs.SignedPauli, ecs.PauliCombination, ecs.LocalOperator,
                    ecs.EcsProduct):
            self._wrap(cls, "columns_bits", "ecs.columns_bits", columns)
        self._wrap(fourier.ExactCoefficients, "__init__", "fourier.exact_source")
        return self

    def __exit__(self, *exc) -> bool:
        for owner, attr, original, had_own in reversed(self._patched):
            if isinstance(owner, type) and not had_own:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patched = []
        return False


# --- reduction to per-layer metrics ---------------------------------------------------

def _total(spans: list[Span], name: str) -> float:
    return sum((s.duration for s in spans if s.name == name and not s.nested), 0.0)


def _count(spans: list[Span], name: str) -> int:
    return sum(1 for s in spans if s.name == name and not s.nested)


def _rows(spans: list[Span], name: str) -> int:
    return sum(s.rows for s in spans if s.name == name and not s.nested)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], stats: list, cycle_s: float,
                  call_fixed_s: float, masks: int, output_bytes: int) -> dict:
    """Per-layer numbers of one traced cycle.

    ``spans`` and ``stats`` hold that cycle only; a layer the workload
    never calls reports 0.  ``cycle_s`` is the traced wall time of the
    cycle, whose cli spans are the roots.
    """
    amp_s = _total(spans, "ctstate.amplitudes")
    amp_rows = _rows(spans, "ctstate.amplitudes")
    drawn = _rows(spans, "ctstate.sample_bits")
    col_rows = _rows(spans, "ecs.columns_bits")
    col_width = sum(s.rows * s.width for s in spans
                    if s.name == "ecs.columns_bits" and not s.nested)
    ecs_for_s = _total(spans, "ecs.ecs_for")
    estimates = _count(spans, "fourier.estimate")
    walk_s = _total(spans, "sampler.walk")
    walked = _rows(spans, "sampler.walk")
    cli_spans = [s for s in spans if s.name == "cli"]
    covered = sum(s.child_s for s in cli_spans)
    return {
        "ctstate.amplitudes_s": amp_s,
        "ctstate.amplitude_rows": amp_rows,
        "ctstate.amplitude_rows_per_s": _ratio(amp_rows, amp_s),
        "ctstate.sample_bits_s": _total(spans, "ctstate.sample_bits"),
        "ctstate.sampled_rows": drawn,
        "ecs.ecs_for_s": ecs_for_s,
        "ecs.ops_built": _count(spans, "ecs.ecs_for"),
        "ecs.check_s": _total(spans, "ecs.check"),
        "ecs.columns_bits_s": _total(spans, "ecs.columns_bits"),
        "ecs.column_rows": col_rows,
        "ecs.column_width_mean": _ratio(col_width, col_rows),
        "fourier.estimate_self_s": sum(
            (s.self_s for s in spans if s.name == "fourier.estimate"), 0.0),
        "fourier.ms_per_mask": 1e3 * _ratio(
            ecs_for_s + _total(spans, "fourier.estimate"), estimates),
        "fourier.distinct_row_ratio": _ratio(col_rows, drawn),
        "fourier.amplitude_rows_per_drawn_row": _ratio(amp_rows, drawn),
        "fourier.resampled_rows": sum(int(st.resampled) for st in stats),
        "fourier.second_moment_max": max(
            (float(st.second_moment) for st in stats), default=0.0),
        "fourier.table_s": _total(spans, "fourier.table"),
        "fourier.exact_source_s": _total(spans, "fourier.exact_source"),
        "fourier.attenuate_s": _total(spans, "fourier.attenuate"),
        "sampler.walk_s": walk_s,
        "sampler.walk_samples_per_s": _ratio(walked, walk_s),
        "sampler.call_fixed_s": call_fixed_s,
        "sampler.enumerate_s": _total(spans, "sampler.enumerate"),
        "sampler.masks": masks,
        "oracle.output_distribution_s": _total(spans, "oracle.output_distribution"),
        "oracle.output_distribution_calls": _count(
            spans, "oracle.output_distribution"),
        "oracle.depolarize_s": _total(spans, "oracle.depolarize"),
        "oracle.walsh_s": _total(spans, "oracle.walsh"),
        "cli.self_s": sum((s.self_s for s in cli_spans), 0.0),
        "cli.output_bytes": output_bytes,
        "trace.run_s": cycle_s,
        "trace.coverage": _ratio(covered, cycle_s),
        "trace.spans": len(spans),
    }


LAYER_UNITS = {
    "ctstate.amplitudes_s": "s",
    "ctstate.amplitude_rows": "count",
    "ctstate.amplitude_rows_per_s": "1/s",
    "ctstate.sample_bits_s": "s",
    "ctstate.sampled_rows": "count",
    "ecs.ecs_for_s": "s",
    "ecs.ops_built": "count",
    "ecs.check_s": "s",
    "ecs.columns_bits_s": "s",
    "ecs.column_rows": "count",
    "ecs.column_width_mean": "count",
    "fourier.estimate_self_s": "s",
    "fourier.ms_per_mask": "ms",
    "fourier.distinct_row_ratio": "ratio",
    "fourier.amplitude_rows_per_drawn_row": "ratio",
    "fourier.resampled_rows": "count",
    "fourier.second_moment_max": "ratio",
    "fourier.table_s": "s",
    "fourier.exact_source_s": "s",
    "fourier.attenuate_s": "s",
    "sampler.walk_s": "s",
    "sampler.walk_samples_per_s": "1/s",
    "sampler.call_fixed_s": "s",
    "sampler.enumerate_s": "s",
    "sampler.masks": "count",
    "oracle.output_distribution_s": "s",
    "oracle.output_distribution_calls": "count",
    "oracle.depolarize_s": "s",
    "oracle.walsh_s": "s",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.run_s": "s",
    "trace.coverage": "ratio",
    "trace.spans": "count",
    "check.coef_err_max": "expectation",
    "check.walk_marginal_l1": "l1",
    "check.l1_enum": "l1",
}
