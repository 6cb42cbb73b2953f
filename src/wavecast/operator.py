"""Discrete wave operator on the stretched grid.

The second-order form is u_tt = A u - q(t) b with

    (A u)_ij = (1/c_ij) * five-point staggered Laplacian,

c the squared-slowness coefficient (relative permittivity), sampled on
primary nodes.  A is complex non-Hermitian in the stretched region but
complex symmetric under the weight

    M = diag(dual_step_x * dual_step_y * c),

i.e. M A = (M A)^T exactly up to roundoff; the short recurrence of the
field evaluator relies on this.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, ValidationError


@dataclass(frozen=True)
class MediumMap:
    """Coefficient c >= some positive floor on the unknown nodes.

    c must equal 1 everywhere except strictly inside (-1, 1)^2: the
    stretched region is derived for a homogeneous exterior, so a
    contrast touching the boundary breaks absorption.
    """

    values: np.ndarray

    @staticmethod
    def from_function(grid, fn):
        """Sample fn(x, y) on strictly interior nodes; 1 elsewhere."""
        mask = grid.interior_mask
        vals = np.ones(grid.shape)
        xs = grid.axis_x.unknown_coords.real
        ys = grid.axis_y.unknown_coords.real
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        sampled = np.asarray(fn(gx, gy), dtype=float)
        if sampled.shape != grid.shape:
            raise InvalidParameterError(
                "medium function must broadcast to the grid shape"
            )
        vals[mask] = sampled[mask]
        return MediumMap(values=vals)

    def validate(self, grid):
        if self.values.shape != grid.shape:
            raise InvalidParameterError("medium shape does not match grid")
        if not np.all(self.values > 0.0):
            raise InvalidParameterError("medium coefficient must be positive")
        off = ~grid.interior_mask
        if not np.all(self.values[off] == 1.0):
            raise ValidationError(
                "medium must be homogeneous (c = 1) outside the strict "
                "interior; contrasts may not touch the absorbing region"
            )


@dataclass(frozen=True)
class WaveOperator:
    """The five-point operator A, as its stencil factors, with its
    symmetrizing weight.

    Row (ix, iy) of A couples the unknowns (ix -+ 1, iy) by cxm[ix],
    cxp[ix] and (ix, iy -+ 1) by cym[iy], cyp[iy], each times
    inv_c[ix, iy], with the centre (-(cxm + cxp)[ix] - (cym + cyp)[iy])
    * inv_c[ix, iy]; a neighbour on the Dirichlet boundary drops out.
    The recursion applies A from these factors (krylov module).
    """

    grid: object
    cxm: np.ndarray
    cxp: np.ndarray
    cym: np.ndarray
    cyp: np.ndarray
    inv_c: np.ndarray  # (wx, wy)
    m_diag: np.ndarray

    @property
    def n(self):
        return self.inv_c.size

    @functools.cached_property
    def a_mat(self):
        """A as a CSR matrix, built on first use: an oracle of the tests,
        and the nnz count of the bench.  It needs scipy (the `test`
        extra), imported here only: no stage of a run needs the matrix,
        and the package depends on numpy alone.  It can leave the
        package once the bench counts nnz from the stencil factors."""
        import scipy.sparse

        cxm, cxp, cym, cyp, inv_c = (self.cxm, self.cxp, self.cym, self.cyp,
                                     self.inv_c)
        wx, wy = inv_c.shape
        center = -(cxm + cxp)[:, None] - (cym + cyp)[None, :]
        center = center * inv_c
        east = np.broadcast_to(cxp[:, None], (wx, wy)) * inv_c
        west = np.broadcast_to(cxm[:, None], (wx, wy)) * inv_c
        north = np.broadcast_to(cyp[None, :], (wx, wy)) * inv_c
        south = np.broadcast_to(cym[None, :], (wx, wy)) * inv_c

        north = north.copy()
        south = south.copy()
        north[:, -1] = 0.0  # Dirichlet neighbours drop out
        south[:, 0] = 0.0

        n = wx * wy
        return scipy.sparse.diags(
            [
                center.ravel(),
                east[:-1, :].ravel(),
                west[1:, :].ravel(),
                north.ravel()[:-1],
                south.ravel()[1:],
            ],
            [0, wy, -wy, 1, -1],
            shape=(n, n),
            format="csr",
            dtype=complex,
        )

    def sample_source(self, x, y, amplitude=1.0):
        """Point source: discrete delta at the nearest interior node.

        Returns (b, flat_index); b integrates to `amplitude` against
        the dual cell areas.
        """
        ix, iy, _, _ = self.grid.nearest_interior_node(x, y)
        area = (
            self.grid.axis_x.steps_dual[ix] * self.grid.axis_y.steps_dual[iy]
        )
        b = np.zeros(self.n)
        b[self.grid.node_index(ix, iy)] = amplitude / area.real
        return b, self.grid.node_index(ix, iy)


def assemble_operator(grid, medium=None):
    """Stencil factors of A, and M, for a grid and medium (uniform
    c = 1 by default)."""
    if medium is None:
        medium = MediumMap(values=np.ones(grid.shape))
    medium.validate(grid)
    ax, ay = grid.axis_x, grid.axis_y
    wx, wy = grid.shape
    c = medium.values

    # per-unknown step views: wm/wp the primary steps left/right of the
    # node, dw the dual step at the node
    wxm = ax.steps_primary[:wx]
    wxp = ax.steps_primary[1 : wx + 1]
    dwx = ax.steps_dual
    wym = ay.steps_primary[:wy]
    wyp = ay.steps_primary[1 : wy + 1]
    dwy = ay.steps_dual

    m_diag = (dwx[:, None] * dwy[None, :] * c).ravel().astype(complex)
    return WaveOperator(
        grid=grid,
        cxm=1.0 / (dwx * wxm),
        cxp=1.0 / (dwx * wxp),
        cym=1.0 / (dwy * wym),
        cyp=1.0 / (dwy * wyp),
        inv_c=1.0 / c,
        m_diag=m_diag,
    )
