"""Pin BLAS to one thread before numpy loads, as ``perfbench/run.py``
does: a multi-threaded BLAS stalls when another process holds a core,
which makes test wall times depend on load elsewhere on the machine."""

import os

import pytest

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


@pytest.fixture
def rebuilds(monkeypatch):
    """Make ``T._Rebuild`` record each rebuild made; returns their list.
    Each has ``kind``, its build's qualified name (``attention.<locals>.
    probabilities`` and so on), and ``builds``, the calls of its build."""
    from reverb.nn import tensor as T

    made = []

    class Counted(T._Rebuild):
        __slots__ = ("kind", "builds")

        def __init__(self, build, sources=()):
            def counted():
                self.builds += 1
                return build()

            super().__init__(counted, sources)
            self.kind, self.builds = build.__qualname__, 0
            made.append(self)

    monkeypatch.setattr(T, "_Rebuild", Counted)
    return made
