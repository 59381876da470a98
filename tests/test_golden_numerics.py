"""The model's numerics against the committed golden file.

See ``make_golden_numerics.py`` for what the file holds and when it may
be regenerated.  Forward values (predictions and losses) must match at
rtol 1e-12, with an absolute floor of 1e-12 of the array's largest
magnitude: a prediction coordinate near zero is a cancellation of
terms of the array's scale and carries their rounding, not its own.
Gradient figures must match within 1e-12 of the largest gradient
figure of their case.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from make_golden_numerics import compute, read_golden

FORWARD_RTOL = 1e-12
GRAD_TOL = 1e-12
CASES = ("small.haar.", "small.dft.", "paper.")


@pytest.fixture(scope="module")
def golden():
    return read_golden(), compute()


def test_same_keys(golden):
    want, got = golden
    assert list(got) == list(want)


@pytest.mark.parametrize("case", CASES)
def test_forward(golden, case):
    want, got = golden
    keys = [k for k in want if k.startswith(case) and ".norm." not in k
            and ".proj." not in k]
    assert keys
    for key in keys:
        floor = FORWARD_RTOL * np.abs(want[key]).max()
        assert_allclose(got[key], want[key], rtol=FORWARD_RTOL, atol=floor, err_msg=key)


@pytest.mark.parametrize("case", CASES)
def test_gradients(golden, case):
    want, got = golden
    keys = [k for k in want if k.startswith(case) and (".norm." in k or ".proj." in k)]
    assert keys
    scale = max(float(want[k][0]) for k in keys if ".norm." in k)
    for key in keys:
        assert_allclose(got[key], want[key], rtol=0, atol=GRAD_TOL * scale, err_msg=key)
