import math

import numpy as np
import pytest

from htbif.errors import QuadratureError
from htbif.quadrature import adaptive_gauss, gauss_panel


def test_polynomial_is_exact():
    assert gauss_panel(lambda x: x ** 2, 0.0, 1.0) == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert adaptive_gauss(lambda x: x ** 7 - 2.0 * x, -1.0, 2.0) == pytest.approx(
        (2.0 ** 8 - 1.0) / 8.0 - (4.0 - 1.0), rel=1e-14
    )


def test_smooth_transcendental():
    assert adaptive_gauss(np.sin, 0.0, math.pi) == pytest.approx(2.0, rel=1e-13)
    assert adaptive_gauss(lambda x: np.exp(-x * x), 0.0, 10.0) == pytest.approx(
        0.5 * math.sqrt(math.pi), rel=1e-12
    )


def test_needs_panels_for_sharp_feature():
    # narrow bump: one panel is not enough, adaptivity resolves it
    val = adaptive_gauss(lambda x: 1.0 / (1e-4 + x * x), -1.0, 1.0)
    ref = 2.0 / math.sqrt(1e-4) * math.atan(1.0 / math.sqrt(1e-4))
    assert val == pytest.approx(ref, rel=1e-10)


def test_panel_budget_enforced():
    # about 3,200 jumps on [0, 1]: bisecting toward every one of them needs
    # more than the 2^14-panel budget
    with pytest.raises(QuadratureError, match="16384 panels"):
        adaptive_gauss(lambda x: np.sign(np.sin(1e4 * x)), 0.0, 1.0)
