"""Staggered 2D grid with complex-stretched absorbing layers.

The computational domain is the square [-1, 1]^2 discretized by n_int
uniform cells per direction.  Outside each edge, k additional primary
nodes continue the axis along purely imaginary steps i*gamma_l, with
dual nodes interleaved along i*gamma_hat_l; homogeneous Dirichlet
conditions sit on the outermost primary nodes.  Unknowns live on all
remaining primary nodes, (n_int + 2k - 1) per direction.

Axis layout (right half; the left mirrors with negated coordinates):

    primary: ..., 1 - h, 1, 1 + i g1, 1 + i (g1+g2), ...
    dual:    ..., 1 - h/2, 1 + i gh1, 1 + i (gh1+gh2), ...

so the dual step at the interface node is h/2 + i*gh1 and deeper layer
nodes use steps i*gh_l, i*g_l alone.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError


@dataclass(frozen=True)
class Axis1D:
    """One stretched coordinate axis.

    primary has n_int + 2k + 1 nodes (both ends carry the Dirichlet
    condition); dual has one node per primary interval.  steps_primary
    are the primary intervals; steps_dual are the dual intervals,
    aligned so steps_dual[j] belongs to the interior primary node
    primary[j + 1].
    """

    n_int: int
    k: int
    primary: np.ndarray
    dual: np.ndarray

    @property
    def n_unknown(self):
        return self.n_int + 2 * self.k - 1

    @property
    def steps_primary(self):
        return np.diff(self.primary)

    @property
    def steps_dual(self):
        return np.diff(self.dual)

    @property
    def unknown_coords(self):
        return self.primary[1:-1]


def build_axis(n_int, steps=None):
    """Stretched axis for n_int interior cells and optional PML steps.

    steps is a PmlSteps instance (or None for a plain Dirichlet box);
    its gamma / gamma_hat magnitudes become the imaginary primary and
    dual increments.
    """
    if n_int < 2:
        raise InvalidParameterError(f"need n_int >= 2, got {n_int}")
    if n_int > np.iinfo(np.intp).max // 16:  # numpy's size limit
        raise MemoryError(f"n_int = {n_int} is too large for an array")
    h = 2.0 / n_int
    interior = np.linspace(-1.0, 1.0, n_int + 1).astype(complex)
    mid = 0.5 * (interior[:-1] + interior[1:])
    if steps is None:
        return Axis1D(n_int=n_int, k=0, primary=interior, dual=mid)
    tail_p = 1.0 + 1j * np.cumsum(steps.gamma)
    tail_d = 1.0 + 1j * np.cumsum(steps.gamma_hat)
    primary = np.concatenate([-tail_p[::-1], interior, tail_p])
    dual = np.concatenate([-tail_d[::-1], mid, tail_d])
    return Axis1D(n_int=n_int, k=steps.k, primary=primary, dual=dual)


def _strictly_inside(axis):
    """Mask of the unknown nodes of axis strictly inside (-1, 1): real,
    neither the interface nodes at +-1 nor stretched ones."""
    c = axis.unknown_coords
    return (np.abs(c.imag) == 0.0) & (np.abs(c.real) < 1.0 - 1e-12)


@dataclass(frozen=True)
class Grid2D:
    """Tensor grid of two stretched axes; unknowns in row-major order
    (x index varies slowest)."""

    axis_x: Axis1D
    axis_y: Axis1D

    @property
    def shape(self):
        return (self.axis_x.n_unknown, self.axis_y.n_unknown)

    @property
    def n_unknown(self):
        return self.axis_x.n_unknown * self.axis_y.n_unknown

    def node_index(self, ix, iy):
        """Flat index of unknown (ix, iy), 0-based per-axis unknown
        numbering."""
        wx, wy = self.shape
        if not (0 <= ix < wx and 0 <= iy < wy):
            raise InvalidParameterError(f"node ({ix}, {iy}) out of range")
        return ix * wy + iy

    def node_coords(self, ix, iy):
        return (
            self.axis_x.unknown_coords[ix],
            self.axis_y.unknown_coords[iy],
        )

    @property
    def interior_mask(self):
        """Boolean (wx, wy) mask of nodes strictly inside (-1, 1)^2.

        The medium may vary only where this mask is True.
        """
        return (_strictly_inside(self.axis_x)[:, None]
                & _strictly_inside(self.axis_y)[None, :])

    def nearest_interior_node(self, x, y):
        """Unknown indices of the interior primary node closest to
        (x, y), plus its actual coordinates."""
        out = []
        for axis, coord in ((self.axis_x, x), (self.axis_y, y)):
            if not (-1.0 < coord < 1.0):
                raise InvalidParameterError(
                    f"point coordinate {coord} not strictly inside (-1, 1)"
                )
            idx = np.where(_strictly_inside(axis))[0]
            c = axis.unknown_coords.real[idx]
            out.append(idx[np.argmin(np.abs(c - coord))])
        ix, iy = out
        cx, cy = self.node_coords(ix, iy)
        return ix, iy, float(cx.real), float(cy.real)


def build_grid2d(n_int, steps=None):
    """Square tensor grid: identical stretched axes in x and y."""
    axis = build_axis(n_int, steps)
    return Grid2D(axis_x=axis, axis_y=axis)
