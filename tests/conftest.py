"""Pin BLAS to one thread before numpy loads, as ``perfbench/run.py``
does: a multi-threaded BLAS stalls when another process holds a core,
which makes test wall times depend on load elsewhere on the machine."""

import functools
import os
import weakref

import pytest

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


class Made:
    """One cached rebuild that ``nn.tensor`` made: ``kind``, its build's
    qualified name (``attention.<locals>.probabilities`` and so on),
    ``builds``, the cache misses of the rebuild (calls of its build), and
    ``rebuild``, a weak reference to it."""

    def __init__(self, build):
        self.kind, self.builds, self.rebuild = build.__qualname__, 0, None

    def alive(self) -> bool:
        return self.rebuild() is not None


class Rebuilds(list):
    def of(self, rebuild) -> Made:
        """The record of ``rebuild``."""
        return next(m for m in self if m.rebuild() is rebuild)


@pytest.fixture
def rebuilds(monkeypatch):
    """Record each cached rebuild that ``nn.tensor`` makes; returns the
    records, a ``Rebuilds`` list of ``Made``.  The records hold no
    rebuild, so each still dies as it would untested."""
    from reverb.nn import tensor as T

    made = Rebuilds()

    def recording(build):
        record = Made(build)

        @functools.wraps(build)
        def counted():
            record.builds += 1
            return build()

        rebuild = functools.cache(counted)
        record.rebuild = weakref.ref(rebuild)
        made.append(record)
        return rebuild

    monkeypatch.setattr(T, "cache", recording)
    return made
