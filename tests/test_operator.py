import numpy as np
import pytest

from wavecast.errors import InvalidParameterError, ValidationError
from wavecast.grid import build_grid2d
from wavecast.operator import MediumMap, WaveOperator, assemble_operator
from wavecast.zolotarev import (
    SpectralInterval,
    to_continued_fraction,
    zolotarev_approx,
)

from support import symmetry_defect, weighted


def _pml_steps(chi=25.0, k=2):
    imp = zolotarev_approx(SpectralInterval(-chi, -1.0), k)
    return to_continued_fraction(imp)


def _dense_reference(grid, medium):
    """Independent slow assembly: literal five-point stencil per node."""
    ax, ay = grid.axis_x, grid.axis_y
    wx, wy = grid.shape
    wpx, wpy = ax.steps_primary, ay.steps_primary
    dwx, dwy = ax.steps_dual, ay.steps_dual
    c = medium.values
    n = wx * wy
    a = np.zeros((n, n), dtype=complex)
    for ix in range(wx):
        for iy in range(wy):
            row = ix * wy + iy
            cc = c[ix, iy]
            wxm, wxp, dx = wpx[ix], wpx[ix + 1], dwx[ix]
            wym, wyp, dy = wpy[iy], wpy[iy + 1], dwy[iy]
            a[row, row] = (
                -(1.0 / wxm + 1.0 / wxp) / dx - (1.0 / wym + 1.0 / wyp) / dy
            ) / cc
            if ix + 1 < wx:
                a[row, row + wy] = 1.0 / (dx * wxp) / cc
            if ix - 1 >= 0:
                a[row, row - wy] = 1.0 / (dx * wxm) / cc
            if iy + 1 < wy:
                a[row, row + 1] = 1.0 / (dy * wyp) / cc
            if iy - 1 >= 0:
                a[row, row - 1] = 1.0 / (dy * wym) / cc
    return a


def test_assembly_matches_dense_reference():
    g = build_grid2d(5, _pml_steps())
    rng = np.random.default_rng(3)
    bump = rng.uniform(1.0, 3.0)

    med = MediumMap.from_function(
        g, lambda x, y: 1.0 + bump * np.exp(-8.0 * (x ** 2 + y ** 2))
    )
    op = assemble_operator(g, med)
    ref = _dense_reference(g, med)
    assert np.max(np.abs(op.a_mat.toarray() - ref)) < 1e-14 * np.abs(ref).max()


def test_plain_laplacian_spectrum():
    # k = 0, c = 1: full eigenvalue set of the Dirichlet Laplacian on
    # [-1,1]^2 is known in closed form
    n = 8
    g = build_grid2d(n)
    op = assemble_operator(g)
    h = 2.0 / n
    evals = np.linalg.eigvalsh(op.a_mat.toarray().real)
    j = np.arange(1, n)
    lam1d = -(4.0 / h ** 2) * np.sin(j * np.pi / (2 * n)) ** 2
    expected = np.sort((lam1d[:, None] + lam1d[None, :]).ravel())
    assert np.allclose(np.sort(evals), expected, rtol=0, atol=1e-10 / h ** 2)


def test_weighted_symmetry_with_pml_and_medium():
    g = build_grid2d(6, _pml_steps())
    med = MediumMap.from_function(
        g, lambda x, y: 1.0 + 2.0 * ((x ** 2 + y ** 2) < 0.25)
    )
    op = assemble_operator(g, med)
    assert symmetry_defect(op) <= 1e-12 * np.abs(weighted(op).data).max()


def test_spectrum_clears_branch_cut():
    # stretched spectrum must stay off the closed negative real axis
    g = build_grid2d(6, _pml_steps())
    op = assemble_operator(g)
    lam = np.linalg.eigvals(op.a_mat.toarray())
    dist = np.where(lam.real < 0.0, np.abs(lam.imag), np.abs(lam))
    assert np.min(dist) > 1e-4 * np.abs(lam).max()


def test_source_normalization():
    g = build_grid2d(8, _pml_steps())
    op = assemble_operator(g)
    amp = 2.5
    b, idx = op.sample_source(0.1, -0.2, amplitude=amp)
    # discrete delta: integral against dual areas recovers the amplitude
    dwx = g.axis_x.steps_dual
    dwy = g.axis_y.steps_dual
    areas = (dwx[:, None] * dwy[None, :]).ravel()
    assert abs((b * areas).sum() - amp) < 1e-14 * amp
    assert b[idx] != 0.0
    assert np.count_nonzero(b) == 1


def test_medium_validation():
    g = build_grid2d(6, _pml_steps())
    with pytest.raises(InvalidParameterError):
        MediumMap(values=np.full(g.shape, -1.0)).validate(g)
    bad = np.ones(g.shape)
    bad[0, 0] = 2.0  # stretched corner node
    with pytest.raises(ValidationError):
        MediumMap(values=bad).validate(g)
    # uniform c != 1 is also rejected: it leaks into the stretched region
    with pytest.raises(ValidationError):
        assemble_operator(g, MediumMap(values=np.full(g.shape, 4.0)))
