import numpy as np
import pytest

from wavecast.errors import InvalidParameterError
from wavecast.grid import build_axis, build_grid2d
from wavecast.zolotarev import PmlSteps


def _steps():
    return PmlSteps(
        k=2,
        gamma=np.array([0.3, 0.5]),
        gamma_hat=np.array([0.2, 0.4]),
        roundtrip_error=0.0,
    )


def test_axis_counts_plain():
    ax = build_axis(8)
    assert len(ax.primary) == 9
    assert len(ax.dual) == 8
    assert ax.n_unknown == 7
    assert np.allclose(ax.steps_primary, 0.25)
    assert np.all(ax.primary.imag == 0.0)


def test_axis_counts_stretched():
    ax = build_axis(8, _steps())
    assert len(ax.primary) == 8 + 2 * 2 + 1
    assert len(ax.dual) == 8 + 2 * 2
    assert ax.n_unknown == 8 + 2 * 2 - 1


def test_axis_mirror_antisymmetry():
    ax = build_axis(6, _steps())
    assert np.allclose(ax.primary, -ax.primary[::-1])
    assert np.allclose(ax.dual, -ax.dual[::-1])


def test_axis_step_structure():
    ax = build_axis(8, _steps())
    h = 2.0 / 8
    w = ax.steps_primary
    dw = ax.steps_dual
    # rightmost primary steps are i*gamma
    assert np.allclose(w[-2:], 1j * np.array([0.3, 0.5]))
    # interface dual step combines half-cell and first dual magnitude
    k = 2
    j_interface = (8 + k) - 1  # steps_dual[j] belongs to primary[j+1]
    assert np.isclose(dw[j_interface], h / 2 + 0.2j)
    # deeper dual step is purely imaginary with the second magnitude
    assert np.isclose(dw[j_interface + 1], 0.4j)
    # interior dual steps are uniform h
    assert np.allclose(dw[k : k + 7], h)


def test_axis_validation():
    with pytest.raises(InvalidParameterError):
        build_axis(1)


def test_grid_indexing_roundtrip():
    g = build_grid2d(6, _steps())
    wx, wy = g.shape
    assert g.n_unknown == wx * wy == (6 + 4 - 1) ** 2
    flat = g.node_index(3, 5)
    assert flat == 3 * wy + 5
    with pytest.raises(InvalidParameterError):
        g.node_index(wx, 0)


def test_interior_mask_count():
    n = 6
    g = build_grid2d(n, _steps())
    assert g.interior_mask.sum() == (n - 1) ** 2
    # masked nodes are exactly the real, strictly interior ones
    xs = g.axis_x.unknown_coords
    inside = (xs.imag == 0) & (np.abs(xs.real) < 1.0 - 1e-12)
    assert inside.sum() == n - 1


def test_nearest_interior_node():
    g = build_grid2d(8, _steps())
    ix, iy, cx, cy = g.nearest_interior_node(0.0, 0.26)
    assert cx == 0.0
    assert abs(cy - 0.25) < 1e-12
    assert g.axis_x.unknown_coords[ix] == 0.0
    with pytest.raises(InvalidParameterError):
        g.nearest_interior_node(1.5, 0.0)
