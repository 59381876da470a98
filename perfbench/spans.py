"""Step clock and layer tracer that wrap reverb's entry points from outside.

Nothing under ``src/`` is edited: ``Tracer.install_layers`` and
``install_step_clock`` replace attributes of reverb's modules and classes
at run time and ``uninstall`` puts the originals back.  Every step of a
workload is one of four kinds:

``plain``   no recording beyond the step's own duration (the baseline
            that ``trace.overhead_frac`` compares against);
``traced``  spans and op counters recorded; per-layer times come only
            from these steps;
``calls``   ``sys.setprofile`` counts Python call events (the hook slows
            the step, so its times are not used);
``mem``     ``tracemalloc`` records peak allocation inside a few spans
            (it slows allocation, so its times are not used).

With tracing off every step is ``plain`` and only the step boundaries
are taken.  Spans live in memory as ``[name, start, end, parent, step]``
and are written out once, after the run.
"""

from __future__ import annotations

import contextlib
import json
import os
import statistics
import sys
import time
import tracemalloc

import numpy as np

import reverb.model
import reverb.nn.checkpoint
import reverb.nn.tensor
import reverb.transforms
from reverb.model import EncodedBatch, ReverbPredictor
from reverb.nn.optim import Adam
from reverb.nn.transformer import EncoderDecoder
from reverb.social import SocialEncoder

_GLOBALS = globals()

# (owner, attribute, span name).  Module-level functions are replaced in
# the module whose global the caller looks up: ``model.py`` imported
# ``preprocess`` and ``linear_fit`` by name, so those live in reverb.model.
LAYER_SPANS = [
    (ReverbPredictor, "encode", "model.encode"),
    (reverb.model, "preprocess", "data.preprocess"),
    (reverb.model, "linear_fit", "linear.linear_fit"),
    (reverb.transforms, "forward_values", "transforms.forward_values"),
    (SocialEncoder, "own_spectrum", "social.own_spectrum"),
    (SocialEncoder, "row_partitions", "social.row_partitions"),
    (ReverbPredictor, "loss", "model.loss"),
    (ReverbPredictor, "forward", "model.forward"),
    (ReverbPredictor, "_rehearse", "model.rehearse"),
    (ReverbPredictor, "_kernels", "model.kernel_heads"),
    (ReverbPredictor, "_social_rows", "social.pool"),
    (reverb.nn.tensor, "backward", "nn.tensor.backward"),
    (Adam, "step", "nn.optim.adam_step"),
    (EncodedBatch, "subset", "train.subset"),
]
TRANSFORMER_SPANS = ("nn.transformer.non", "nn.transformer.soc")
CHECKPOINT_SPAN = "nn.checkpoint.save"
STEP_SPANS = ("train.step", "model.predict")
SPAN_NAMES = tuple(
    [name for _, _, name in LAYER_SPANS] + list(TRANSFORMER_SPANS)
    + [CHECKPOINT_SPAN] + list(STEP_SPANS)
)
MEMORY_SPANS = ("model.rehearse", "nn.transformer.soc", "nn.tensor.backward")
TENSOR_OPS = (
    "add", "sub", "mul", "div", "neg", "matmul", "tanh", "relu", "exp", "sqrt",
    "sum_", "mean_", "softmax", "reshape", "transpose", "concat", "getitem",
    "index_select", "take_per_row", "segment_mean",
)


def step_kind(index: int, traced: bool) -> str:
    """Schedule: a plain first step (the warm-up), one ``calls`` step, one
    ``mem`` step, then traced and plain steps alternate so that both see
    the same drift of the machine."""
    if traced and index in (1, 2):
        return "calls" if index == 1 else "mem"
    return "traced" if traced and index > 2 and index % 2 else "plain"


def _matmul_flop(a, b) -> float:
    a_shape, b_shape = np.shape(getattr(a, "data", a)), np.shape(getattr(b, "data", b))
    stack = np.broadcast_shapes(a_shape[:-2], b_shape[:-2])
    return 2.0 * float(np.prod(stack)) * a_shape[-2] * a_shape[-1] * b_shape[-1]


class Tracer:
    """Records step durations always, and layer spans when ``traced``."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.steps = []          # [index, kind, start, end]
        self.spans = []          # [name, start, end, parent, step]
        self.counts = {}         # step index -> {"ops", "gflop", "calls"}
        self.peaks = {}          # span name -> peak MB inside the span
        self.checkpoint_bytes = 0
        self._kind = "plain"
        self._step = None
        self._stack = []
        self._phase = False
        self._patched = []
        self._tf_names = {}

    # ------------------------------------------------------------------
    # Step boundaries

    def begin_step(self, root: str):
        index = len(self.steps)
        kind = step_kind(index, self.traced)
        self._kind, self._step = kind, index
        self.counts[index] = {"ops": 0, "gflop": 0.0, "calls": 0}
        if kind == "mem":
            tracemalloc.start()
        if kind == "calls":
            sys.setprofile(self._count_call)
        start = time.perf_counter()
        self.steps.append([index, kind, start, None])
        if self._recording():
            self._open(root, start)

    def end_step(self):
        end = time.perf_counter()
        if self._recording():
            self._close(end)
        self.steps[-1][3] = end
        if self._kind == "calls":
            sys.setprofile(None)
        if self._kind == "mem":
            tracemalloc.stop()
        self._kind, self._step = "plain", None

    @contextlib.contextmanager
    def phase(self):
        """Record spans outside steps too (per-run layers such as encode)."""
        self._phase = True
        try:
            yield
        finally:
            self._phase = False

    def _count_call(self, frame, event, arg):
        if event == "call" and frame.f_globals is not _GLOBALS:
            self.counts[self._step]["calls"] += 1

    # ------------------------------------------------------------------
    # Spans

    def _recording(self) -> bool:
        if self._step is None:
            return self.traced and self._phase
        return self._kind in ("traced", "mem")

    def _open(self, name, start):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, start, None, parent, self._step])
        self._stack.append(len(self.spans) - 1)

    def _close(self, end):
        self.spans[self._stack.pop()][2] = end

    def _run_span(self, name, fn, args, kwargs):
        if not self._recording():
            return fn(*args, **kwargs)
        mem = self._kind == "mem" and name in MEMORY_SPANS
        if mem:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
        self._open(name, time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(time.perf_counter())
            if mem:
                peak = (tracemalloc.get_traced_memory()[1] - base) / 2**20
                self.peaks[name] = max(self.peaks.get(name, 0.0), peak)

    # ------------------------------------------------------------------
    # Installing the wrappers

    def _patch(self, owner, attr, replacement):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install_step_clock(self, root: str):
        """Step boundaries inside ``run_training``: a step opens when the
        loop takes its batch subset and closes when Adam has stepped.
        Call after ``install_layers`` so that the step's root span
        encloses the subset and Adam spans."""
        subset, adam_step = EncodedBatch.subset, Adam.step
        tracer = self

        def subset_wrapper(batch, indices):
            tracer.begin_step(root)
            return subset(batch, indices)

        def step_wrapper(adam):
            try:
                return adam_step(adam)
            finally:
                tracer.end_step()

        self._patch(EncodedBatch, "subset", subset_wrapper)
        self._patch(Adam, "step", step_wrapper)

    def install_layers(self):
        """Wrap every layer entry point, the transformers by instance, the
        checkpoint writer and the public tensor ops."""
        tracer = self
        for owner, attr, name in LAYER_SPANS:
            self._patch(owner, attr, self._span_wrapper(name, getattr(owner, attr)))

        init, call = ReverbPredictor.__init__, EncoderDecoder.__call__

        def init_wrapper(model, *args, **kwargs):
            init(model, *args, **kwargs)
            for branch in ("non", "soc"):
                tf = getattr(model, f"tf_{branch}", None)
                if tf is not None:
                    tracer._tf_names[id(tf)] = f"nn.transformer.{branch}"

        def call_wrapper(tf, *args, **kwargs):
            return tracer._run_span(tracer._tf_names[id(tf)], call, (tf,) + args, kwargs)

        self._patch(ReverbPredictor, "__init__", init_wrapper)
        self._patch(EncoderDecoder, "__call__", call_wrapper)

        save = reverb.nn.checkpoint.save

        def save_wrapper(path, *args, **kwargs):
            out = tracer._run_span(CHECKPOINT_SPAN, save, (path,) + args, kwargs)
            if tracer._recording():
                tracer.checkpoint_bytes += os.path.getsize(path)
            return out

        self._patch(reverb.nn.checkpoint, "save", save_wrapper)
        for op in TENSOR_OPS:
            self._patch(reverb.nn.tensor, op,
                        self._op_wrapper(op, getattr(reverb.nn.tensor, op)))

    def _span_wrapper(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            return tracer._run_span(name, fn, args, kwargs)

        return wrapper

    def _op_wrapper(self, op, fn):
        tracer = self
        is_matmul = op == "matmul"

        def wrapper(*args, **kwargs):
            if tracer._kind == "traced":
                counts = tracer.counts[tracer._step]
                counts["ops"] += 1
                if is_matmul:
                    counts["gflop"] += _matmul_flop(args[0], args[1]) / 1e9
            return fn(*args, **kwargs)

        return wrapper

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Results

    def durations_ms(self, kind: str) -> list:
        return [(e - s) * 1e3 for _, k, s, e in self.steps if k == kind]

    def self_times(self) -> list:
        """Self time (ms) of every span: its duration minus its children's."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [(end - start - child[i]) * 1e3
                for i, (_, start, end, _, _) in enumerate(self.spans)]

    def unaccounted_ms(self) -> float:
        """Largest gap, over traced steps, between the step's duration and
        the sum of the self times of the spans recorded in it."""
        selfs = self.self_times()
        total = {}
        for (_, _, _, _, step), s in zip(self.spans, selfs):
            if step is not None:
                total[step] = total.get(step, 0.0) + s
        worst = 0.0
        for index, kind, start, end in self.steps:
            if kind == "traced":
                worst = max(worst, abs((end - start) * 1e3 - total.get(index, 0.0)))
        return worst

    def layer_metrics(self) -> dict:
        """Per-layer numbers.  A span seen inside steps reports the median
        over traced steps of its per-step self time and call count; a span
        seen only outside steps (encode in train_*, checkpoint save)
        reports its totals over the run."""
        traced = [index for index, kind, _, _ in self.steps if kind == "traced"]
        per_step = {index: {} for index in traced}
        per_run = {}
        for (name, _, _, _, step), s in zip(self.spans, self.self_times()):
            if step is None:
                acc = per_run.setdefault(name, [0.0, 0])
            elif step in per_step:
                acc = per_step[step].setdefault(name, [0.0, 0])
            else:
                continue
            acc[0] += s
            acc[1] += 1
        out = {}
        for name in SPAN_NAMES:
            if traced and any(name in per_step[i] for i in traced):
                rows = [per_step[i].get(name, [0.0, 0]) for i in traced]
                out[f"{name}.self_ms"] = statistics.median(r[0] for r in rows)
                out[f"{name}.calls"] = statistics.median(r[1] for r in rows)
            else:
                total = per_run.get(name, [0.0, 0])
                out[f"{name}.self_ms"], out[f"{name}.calls"] = total[0], total[1]
        counts = [self.counts[i] for i in traced]
        out["nn.tensor.ops"] = statistics.median(c["ops"] for c in counts) if counts else 0
        out["nn.tensor.matmul_gflop"] = (
            statistics.median(c["gflop"] for c in counts) if counts else 0.0)
        calls = [c["calls"] for i, c in self.counts.items()
                 if self.steps[i][1] == "calls"]
        out["py.calls"] = statistics.median(calls) if calls else 0
        out[f"{CHECKPOINT_SPAN}.bytes"] = self.checkpoint_bytes
        for name in MEMORY_SPANS:
            out[f"{name}.peak_alloc_mb"] = self.peaks.get(name, 0.0)
        plain, traced_ms = self.durations_ms("plain"), self.durations_ms("traced")
        out["trace.overhead_frac"] = (
            statistics.median(traced_ms) / statistics.median(plain) - 1.0
            if plain and traced_ms else 0.0)
        return out

    def write_spans(self, path):
        """One JSON array per line: name, start, end, parent, step."""
        with open(path, "w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")
