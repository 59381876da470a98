"""Latency-curve analytics over inferred kernel pairs.

A curve answers: of the response arriving at future step ``t``, what
fraction is sourced from past step ``t_p``?  Values are the column-
normalized squares of the R kernel, optionally reweighted by one G
column ("altered" curves) or restricted to one angular partition
("soc" curves).  For every future step the values over ``t_p`` sum to
one, except where the whole column of squares is exactly zero; such
steps fall back to the uniform value 1/T_h and carry a degenerate flag
so exports stay plottable while the event remains visible.

Curves are arrays, never objects.  :func:`branch_curves` normalizes a
whole stack of one branch's kernels at once; a chunk of predictions
becomes one (N, C, T_f) values array and one (N, C, T_f) degenerate
array, whose C rows one label table of (kind, partition, generation,
t_p) describes for every window (:func:`curve_labels`).  Exports take
``predict_chunks``' slices of ``PREDICT_CHUNK`` (64) windows, each
encoded and run through one forward on its own, and stream the CSV one
window at a time; the mean is a running sum.

Steps and partitions are reported 1-based; future steps are absolute
(T_h+1 .. T_h+T_f), matching the row indices of the kernels, which for
paired transform kinds count spectrum rows rather than raw frames.
"""

from __future__ import annotations

import numpy as np

from .errors import InsufficientDataError, ShapeError
from .nn.checkpoint import atomic_write

BASELINE_LABELS = [("baseline", None, None, 0)]


def _normalized_square_columns(weights: np.ndarray):
    """Normalize ``weights**2`` over the keys axis of a (..., keys, T_f)
    stack; exactly-zero columns go uniform.  Returns the values and the
    (..., T_f) degenerate flags."""
    w = np.asarray(weights, dtype=np.float64) ** 2
    denom = w.sum(axis=-2)
    degenerate = denom == 0.0
    values = w / np.where(degenerate, 1.0, denom)[..., None, :]
    np.copyto(values, 1.0 / w.shape[-2], where=degenerate[..., None, :])
    return values, degenerate


def check_generations(generations, k_g: int) -> list:
    for k in generations:
        if not 1 <= k <= k_g:
            raise ShapeError(f"generation {k} outside 1..{k_g}")
    return list(generations)


def _generations(generations, k_g: int) -> list:
    """The 1-based generation ids to report (default all of 1..K_g)."""
    return check_generations(generations or range(1, k_g + 1), k_g)


def branch_curves(r, g=None, generations=(), partitions: int = 1):
    """Every curve of one branch's kernels, over a stack of windows.

    ``r`` is (..., partitions*T_h, T_f) and ``g`` (..., partitions*T_h,
    K_g), or None for the plain curves alone.  Returns values
    (..., partitions, 1+G, T_h, T_f) and degenerate flags
    (..., partitions, 1+G, T_f), G = len(generations): slot 0 holds the
    plain curves, slot j the curves reweighted by the G column of
    generation ``generations[j-1]`` (1-based).
    """
    r = np.asarray(r, dtype=np.float64)
    g = np.zeros((*r.shape[:-1], 0)) if g is None else np.asarray(g, dtype=np.float64)
    if r.ndim < 2 or g.ndim != r.ndim:
        raise ShapeError(f"R and G must be (..., rows, cols) stacks, got "
                         f"shapes {r.shape} and {g.shape}")
    rows = r.shape[-2]
    if g.shape[-2] != rows:
        raise ShapeError(f"R rows {rows} != G rows {g.shape[-2]}")
    if partitions < 1 or rows % partitions:
        raise ShapeError(f"{rows} rows do not split into {partitions} partitions")
    cols = [k - 1 for k in check_generations(generations, g.shape[-1])]
    t_h = rows // partitions
    lead = g.shape[:-2]
    picked = np.moveaxis(g[..., cols].reshape(*lead, partitions, t_h, len(cols)), -1, -2)
    factor = np.concatenate([np.ones((*lead, partitions, 1, t_h)), picked], axis=-2)
    r = r.reshape(*r.shape[:-2], partitions, 1, t_h, r.shape[-1])
    return _normalized_square_columns(r * factor[..., None])


def curve_labels(config, generations=None) -> list:
    """(kind, partition, generation, t_p) of each curve row, in export
    order: per branch and partition, the plain curves and then those of
    each generation, each over t_p = 1..T_h."""
    gens = _generations(generations, config.k_g)
    labels = []
    for name, parts in (("non", [None]), ("soc", range(1, config.n_theta + 1))):
        if not getattr(config, f"use_{name}"):
            continue
        for n in parts:
            for k in (None, *gens):
                kind = name if k is None else f"{name}_altered"
                labels.extend((kind, n, k, t_p) for t_p in range(1, config.hist_rows + 1))
    return labels


def _chunk_curves(preds, config, generations: list):
    """(N, C, T_f) values and degenerate flags of a chunk of predictions,
    rows in :func:`curve_labels` order (C = 0 for a linear-only model)."""
    values = [np.empty((len(preds), 0, config.fut_rows))]
    flags = [np.empty((len(preds), 0, config.fut_rows), dtype=bool)]
    for name, parts in (("non", 1), ("soc", config.n_theta)):
        if not getattr(config, f"use_{name}"):
            continue
        pairs = [getattr(p, f"kernels_{name}") for p in preds]
        v, d = branch_curves(np.stack([k.r for k in pairs]),
                             np.stack([k.g for k in pairs]), generations, parts)
        values.append(v.reshape(len(preds), -1, v.shape[-1]))
        flags.append(np.broadcast_to(d[..., None, :], v.shape).reshape(len(preds), -1, v.shape[-1]))
    return np.concatenate(values, axis=1), np.concatenate(flags, axis=1)


def _windows_then_mean(model, samples, generations: list):
    """Yields (prediction, values, degenerate) per window, predicted
    ``PREDICT_CHUNK`` windows at a time, and last (None, mean values,
    flags set by any window).  The mean is a running sum in window order
    divided by the count: the bytes of ``np.mean`` over the stack, since
    curve values are never -0.0 and ``0.0 + x`` is ``x``."""
    if len(samples) == 0:
        raise InsufficientDataError("cannot average curves over an empty split")
    total, flags = 0.0, False
    for preds in model.predict_chunks(samples):
        values, degenerate = _chunk_curves(preds, model.config, generations)
        for pred, v, d in zip(preds, values, degenerate):
            total = total + v
            flags = flags | d
            yield pred, v, d
    yield None, total / len(samples), flags


def average_curves(model, samples, generations=None):
    """Dataset-mean curves from a model's zero-noise predictions.

    Returns (labels, values, degenerate): the :func:`curve_labels` table
    and the (C, T_f) mean values and any-window degenerate flags.
    """
    gens = _generations(generations, model.config.k_g)
    for _, values, degenerate in _windows_then_mean(model, samples, gens):
        pass  # the last item is the mean
    return curve_labels(model.config, gens), values, degenerate


def export_curves(path, model, samples, generations=None, config_hash: str = "",
                  seed=None) -> int:
    """Write every window's curves, then their mean and the flat baseline
    (1/T_h at every step), to a CSV; returns the number of curves."""
    c = model.config
    gens = _generations(generations, c.k_g)
    labels = curve_labels(c, gens)

    def blocks():
        for pred, values, degenerate in _windows_then_mean(model, samples, gens):
            agent = "mean" if pred is None else (
                f"{pred.scene_id}/{pred.agent_id}@{pred.start_frame:g}")
            yield agent, labels, values, degenerate
        yield ("", BASELINE_LABELS, np.full((1, c.fut_rows), 1.0 / c.hist_rows),
               np.zeros((1, c.fut_rows), dtype=bool))

    write_curves_csv(path, blocks(), c.hist_rows + 1, config_hash, seed)
    return (len(samples) + 1) * len(labels) + 1


def write_curves_csv(path, blocks, t_start: int, config_hash: str = "", seed=None):
    """Stream ``blocks`` to ``path``, one row per (curve, future step).

    Each block is (agent, labels, values, degenerate): one (kind,
    partition, generation, t_p) label per row of the (C, T_f) arrays;
    future steps count from ``t_start``.  Absent keys are empty cells.
    """

    def pieces():
        yield f"# config_hash={config_hash} seed={'' if seed is None else seed}\n"
        yield "kind,agent,partition,generation,t_p,t,value,degenerate\n"
        shown = rows = None
        for agent, labels, values, degenerate in blocks:
            if labels is not shown:
                shown, steps = labels, range(t_start, t_start + values.shape[-1])
                rows = [f"{kind},%s,{'' if n is None else n},{'' if k is None else k},"
                        f"{t_p},{t},%.17g,%d\n"
                        for kind, n, k, t_p in labels for t in steps]
            yield "".join([row % (agent, v, d) for row, v, d in
                           zip(rows, values.ravel().tolist(), degenerate.ravel().tolist())])

    atomic_write(path, pieces())
