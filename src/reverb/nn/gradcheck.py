"""Central finite-difference verification of reverse-mode gradients."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ShapeError
from . import tensor as T
from .layers import ParameterStore


@dataclass
class GradCheckReport:
    max_rel_error: float = 0.0
    worst_param: str = ""
    worst_index: tuple = ()
    n_checked: int = 0

    def passed(self, tol: float) -> bool:
        return self.max_rel_error <= tol

    def summary(self) -> str:
        return (
            f"checked {self.n_checked} coordinates, max rel err "
            f"{self.max_rel_error:.3e} at {self.worst_param}{list(self.worst_index)}"
        )


def grad_check(fn, params, h_scale: float = 1e-5, floor: float = 1e-5,
               max_per_param: int | None = None, rng=None) -> GradCheckReport:
    """Compare analytic gradients of a scalar ``fn()`` against central
    finite differences.

    ``fn`` must be deterministic (draw any noise outside and close over
    it) and must read parameter values at call time.  ``params`` is a
    ParameterStore or a dict of named tensors.  Per coordinate the step
    is ``h_scale * max(1, |w|)`` and the error is
    ``|a - n| / max(|a|, |n|, floor)``.  ``max_per_param`` caps the number
    of coordinates checked per tensor (sampled without replacement).
    """
    named = dict(params.items()) if isinstance(params, ParameterStore) else dict(params)
    for p in named.values():
        if p.grad is not None:
            p.grad.fill(0.0)
    out = fn()
    if out.data.size != 1:
        raise ShapeError("grad_check needs a scalar-valued fn")
    T.backward(out)
    analytic = {
        name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
        for name, p in named.items()
    }
    if rng is None:
        rng = np.random.default_rng(0)

    report = GradCheckReport()
    for name, p in named.items():
        flat = p.data.reshape(-1)
        n = flat.size
        if max_per_param is not None and n > max_per_param:
            coords = np.sort(rng.choice(n, size=max_per_param, replace=False))
        else:
            coords = np.arange(n)
        ana_flat = analytic[name].reshape(-1)
        for i in coords:
            orig = flat[i]
            h = h_scale * max(1.0, abs(orig))
            with T.no_grad():  # the differences need values, not a tape
                flat[i] = orig + h
                f_plus = float(fn().data)
                flat[i] = orig - h
                f_minus = float(fn().data)
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * h)
            rel = abs(ana_flat[i] - numeric) / max(abs(ana_flat[i]), abs(numeric), floor)
            report.n_checked += 1
            if rel > report.max_rel_error:
                report.max_rel_error = rel
                report.worst_param = name
                report.worst_index = np.unravel_index(int(i), p.data.shape)
    return report
