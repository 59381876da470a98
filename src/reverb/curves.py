"""Latency-curve analytics over inferred kernel pairs.

A curve answers: of the response arriving at future step ``t``, what
fraction is sourced from past step ``t_p``?  Values are the column-
normalized squares of the R kernel, optionally reweighted by one G
column ("altered" curves) or restricted to one angular partition
("soc" curves).  For every future step the values over ``t_p`` sum to
one, except where the whole column of squares is exactly zero; such
steps fall back to the uniform value 1/T_h and carry a degenerate flag
so exports stay plottable while the event remains visible.

Steps and partitions are reported 1-based; future steps are absolute
(T_h+1 .. T_h+T_f), matching the row indices of the kernels, which for
paired transform kinds count spectrum rows rather than raw frames.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, ShapeError
from .nn.checkpoint import atomic_write


@dataclass
class LatencyCurve:
    """One conditioning key's strengths over the future steps."""

    kind: str
    t_p: int
    values: np.ndarray
    degenerate: np.ndarray
    t_start: int
    partition: int | None = None
    generation: int | None = None
    agent: str = ""

    def steps(self) -> np.ndarray:
        """Absolute future step index per value."""
        return np.arange(self.t_start, self.t_start + len(self.values))


def _normalized_square_columns(weights: np.ndarray):
    """Column-normalize ``weights**2``; exactly-zero columns go uniform."""
    w = np.asarray(weights, dtype=np.float64) ** 2
    denom = w.sum(axis=0)
    degenerate = denom == 0.0
    safe = np.where(degenerate, 1.0, denom)
    values = w / safe[None, :]
    values[:, degenerate] = 1.0 / w.shape[0]
    return values, degenerate


def _check_kernel(r: np.ndarray, what: str) -> np.ndarray:
    r = np.asarray(r, dtype=np.float64)
    if r.ndim != 2:
        raise ShapeError(f"{what} must be 2-d, got shape {r.shape}")
    return r


def curve_non(r: np.ndarray, agent: str = "") -> list:
    """Per-past-step curves of an (T_h, T_f) kernel."""
    r = _check_kernel(r, "R")
    values, degenerate = _normalized_square_columns(r)
    t_start = r.shape[0] + 1
    return [
        LatencyCurve("non", t_p + 1, values[t_p], degenerate.copy(), t_start,
                     agent=agent)
        for t_p in range(r.shape[0])
    ]


def curve_non_altered(r: np.ndarray, g: np.ndarray, k: int, agent: str = "") -> list:
    """Curves reweighted by generation ``k`` (1-based) of the G kernel."""
    r = _check_kernel(r, "R")
    g = _check_kernel(g, "G")
    if g.shape[0] != r.shape[0]:
        raise ShapeError(f"R rows {r.shape[0]} != G rows {g.shape[0]}")
    if not 1 <= k <= g.shape[1]:
        raise ShapeError(f"generation {k} outside 1..{g.shape[1]}")
    values, degenerate = _normalized_square_columns(r * g[:, k - 1][:, None])
    t_start = r.shape[0] + 1
    return [
        LatencyCurve("non_altered", t_p + 1, values[t_p], degenerate.copy(),
                     t_start, generation=k, agent=agent)
        for t_p in range(r.shape[0])
    ]


def _partition_block(r_soc: np.ndarray, n: int, n_theta: int) -> np.ndarray:
    r_soc = _check_kernel(r_soc, "R_soc")
    if n_theta < 1 or r_soc.shape[0] % n_theta:
        raise ShapeError(
            f"{r_soc.shape[0]} rows do not split into {n_theta} partitions"
        )
    if not 1 <= n <= n_theta:
        raise ShapeError(f"partition {n} outside 1..{n_theta}")
    t_h = r_soc.shape[0] // n_theta
    return r_soc[(n - 1) * t_h : n * t_h]


def curve_soc(r_soc: np.ndarray, n: int, n_theta: int, agent: str = "") -> list:
    """Curves of one angular partition of a (N_theta*T_h, T_f) kernel."""
    block = _partition_block(r_soc, n, n_theta)
    out = curve_non(block, agent=agent)
    for c in out:
        c.kind = "soc"
        c.partition = n
    return out


def curve_soc_altered(r_soc: np.ndarray, g_soc: np.ndarray, n: int, k: int,
                      n_theta: int, agent: str = "") -> list:
    r_blk = _partition_block(r_soc, n, n_theta)
    g_blk = _partition_block(g_soc, n, n_theta)
    out = curve_non_altered(r_blk, g_blk, k, agent=agent)
    for c in out:
        c.kind = "soc_altered"
        c.partition = n
    return out


def baseline_curve(t_h: int, t_f: int) -> LatencyCurve:
    """The flat reference line: the average strength 1/T_h at every step."""
    return LatencyCurve(
        "baseline", 0, np.full(t_f, 1.0 / t_h), np.zeros(t_f, dtype=bool),
        t_start=t_h + 1,
    )


def curves_for_prediction(pred, n_theta: int, generations=None) -> list:
    """All available curve families for one agent's prediction.

    ``generations`` limits the altered families (1-based ids; default
    all columns of G).
    """
    out = []
    agent = getattr(pred, "agent_id", "")
    if pred.kernels_non is not None:
        r, g = pred.kernels_non.r, pred.kernels_non.g
        out.extend(curve_non(r, agent=agent))
        for k in generations or range(1, g.shape[1] + 1):
            out.extend(curve_non_altered(r, g, k, agent=agent))
    if pred.kernels_soc is not None:
        r, g = pred.kernels_soc.r, pred.kernels_soc.g
        for n in range(1, n_theta + 1):
            out.extend(curve_soc(r, n, n_theta, agent=agent))
            for k in generations or range(1, g.shape[1] + 1):
                out.extend(curve_soc_altered(r, g, n, k, n_theta, agent=agent))
    return out


def _curve_key(c: LatencyCurve) -> tuple:
    return (c.kind, c.partition, c.generation, c.t_p)


def mean_curves(groups: list) -> list:
    """Arithmetic mean over agents, keyed by (kind, partition, gen, t_p).

    Every group must supply the same keys.  A mean of normalized curves
    stays normalized; a step is flagged degenerate if any contributor
    flagged it.
    """
    if not groups:
        raise InsufficientDataError("no curves to average")
    keys = [_curve_key(c) for c in groups[0]]
    acc = {k: [] for k in keys}
    for curves in groups:
        got = {_curve_key(c): c for c in curves}
        if set(got) != set(acc):
            raise ShapeError("curve sets disagree across agents")
        for k, c in got.items():
            acc[k].append(c)
    out = []
    for k in keys:
        members = acc[k]
        first = members[0]
        out.append(
            LatencyCurve(
                kind=first.kind,
                t_p=first.t_p,
                values=np.mean([c.values for c in members], axis=0),
                degenerate=np.any([c.degenerate for c in members], axis=0),
                t_start=first.t_start,
                partition=first.partition,
                generation=first.generation,
                agent="mean",
            )
        )
    return out


def average_curves(model, samples, generations=None, noise=None) -> list:
    """Dataset-mean curves from a model's zero-noise predictions."""
    if len(samples) == 0:
        raise InsufficientDataError("cannot average curves over an empty split")
    preds = model.predict(samples, noise=noise)
    groups = [
        curves_for_prediction(p, model.config.n_theta, generations=generations)
        for p in preds
    ]
    return mean_curves(groups)


def write_curves_csv(path, curves, config_hash: str = "", seed=None):
    """One row per (curve, future step); empty cells for absent keys."""
    lines = [f"# config_hash={config_hash} seed={'' if seed is None else seed}"]
    lines.append("kind,agent,partition,generation,t_p,t,value,degenerate")
    for c in curves:
        part = "" if c.partition is None else str(c.partition)
        gen = "" if c.generation is None else str(c.generation)
        for t, v, dg in zip(c.steps(), c.values, c.degenerate):
            lines.append(
                f"{c.kind},{c.agent},{part},{gen},{c.t_p},{t},{v:.17g},{int(dg)}"
            )
    atomic_write(path, "\n".join(lines) + "\n")
