"""Scalar fields on a truncated box standing in for R^N.

Cell-centered grid on [-L, L]^dim with a choice of boundary closure for the
discrete Laplacian.  All integrals are plain Riemann sums weighted by the
cell measure, so the L^p norms, superlevel-set measures, and truncation
tails used by the diagnostics are mutually consistent by construction.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

BOUNDARIES = ("dirichlet0", "neumann0", "periodic")


@dataclass(frozen=True)
class Grid:
    dim: int = 1
    half_width: float = 32.0
    n: int = 1024
    boundary: str = "dirichlet0"

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError("dim must be 1 or 2")
        if self.n < 3:
            raise ValueError("need at least 3 points per axis")
        if not self.half_width > 0:  # NaN fails too
            raise ValueError("half_width must be positive")
        if self.boundary not in BOUNDARIES:
            raise ValueError(f"boundary must be one of {BOUNDARIES}")

    @property
    def spacing(self):
        return 2.0 * self.half_width / self.n

    @cached_property  # the records read it per row and step; frozen fields keep it valid
    def cell_measure(self):
        return self.spacing**self.dim

    @property
    def shape(self):
        return (self.n,) * self.dim

    def axis_coords(self):
        h = self.spacing
        return -self.half_width + (np.arange(self.n) + 0.5) * h

    def coords(self):
        """Cell-center coordinates; shape (n,) in 1-D, (n, n, 2) in 2-D."""
        x = self.axis_coords()
        if self.dim == 1:
            return x
        return np.stack(np.meshgrid(x, x, indexing="ij"), axis=-1)


class ScalarField:
    """Grid sample of a real function; finite values only."""

    __slots__ = ("grid", "values")

    def __init__(self, grid, values):
        values = np.asarray(values, dtype=np.float64)
        if values.shape != grid.shape:
            raise ValueError(f"values shape {values.shape} != grid shape {grid.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("field contains non-finite values")
        self.grid = grid
        self.values = values

    @classmethod
    def zeros(cls, grid):
        return cls(grid, np.zeros(grid.shape))


def _axis_second_diff(v, axis, boundary):
    if boundary == "periodic":
        return np.roll(v, 1, axis=axis) + np.roll(v, -1, axis=axis) - 2.0 * v
    pad = [(0, 0)] * v.ndim
    pad[axis] = (1, 1)
    mode = "constant" if boundary == "dirichlet0" else "edge"
    vp = np.pad(v, pad, mode=mode)
    lo = [slice(None)] * v.ndim
    hi = [slice(None)] * v.ndim
    lo[axis] = slice(0, -2)
    hi[axis] = slice(2, None)
    return vp[tuple(lo)] + vp[tuple(hi)] - 2.0 * v


def laplacian_values(values, grid):
    """Second-order central Laplacian on raw values (hot path helper)."""
    h2 = grid.spacing**2
    out = _axis_second_diff(values, 0, grid.boundary)
    if grid.dim == 2:
        out = out + _axis_second_diff(values, 1, grid.boundary)
    return out / h2


def row_dots(values):
    """x . x for each row x of `values` flattened after its leading axis.

    A stacked `np.matmul` of (1, n) by (n, 1) rows calls the same BLAS
    `ddot` as `np.dot` does on one row, so each entry is bitwise the row's
    own `np.dot` (`tests/test_fields.py` pins it, as it rests on numpy's
    dispatch); `einsum` sums in another order.  Each call is one row long:
    OpenBLAS splits a `ddot` longer than 10,000 values over its threads,
    which in the forked workers of `cli --threads` ran 25 times slower.
    """
    rows = len(values)
    return np.matmul(values.reshape(rows, 1, -1), values.reshape(rows, -1, 1))[:, 0, 0]


def l2_sq(values, grid):
    """Squared L2 norm of raw values, a float; with a leading row axis, one per row."""
    if values.ndim == grid.dim:  # a single field is a batch of one row
        return float(l2_sq(values[None], grid)[0])
    return row_dots(values) * grid.cell_measure


def lp_p(values, grid, p):
    """Integral of |f|^p (no root), on raw values; with a leading row axis, one per row.

    A single field is a batch of one row.  Each row is bitwise `np.dot(v2, v2) * h`
    of its squares v2 for p = 4 (the row dots of `l2_sq`), `np.sum(|v|^p) * h` otherwise.
    """
    if values.ndim == grid.dim:
        return float(lp_p(values[None], grid, p)[0])
    if p == 4:
        return row_dots(values * values) * grid.cell_measure
    return np.array([np.sum(row) for row in np.abs(values) ** p]) * grid.cell_measure


def superlevel_measure(f, M):
    """Measure of the set {|f| >= M}."""
    if M <= 0:
        raise ValueError("M must be positive")
    return float(np.count_nonzero(np.abs(f.values) >= M) * f.grid.cell_measure)


def tail_integrals(f, M_values, p):
    """Integral of |f|^p over {|f| >= M} for each M of `M_values` (M = 0 allowed).

    All are read from one cumulative sum of |f|^p from the largest value
    down, so they never rise with M, bitwise.
    """
    M = np.asarray(M_values, dtype=float)
    if np.any(M < 0):
        raise ValueError("M must be nonnegative")
    if p < 1:
        raise ValueError("p must be >= 1")
    a = np.sort(np.abs(f.values), axis=None)
    sums = np.concatenate(([0.0], np.cumsum(a[::-1] ** p)))
    return (sums[a.size - np.searchsorted(a, M)] * f.grid.cell_measure).tolist()


def open_new(path):
    """Open `path` for writing text as a new file, unlinking an old one first.

    A rerun into the same directory then writes new files rather than
    truncating the old ones in place, which on ext4 (`auto_da_alloc`) can
    wait for the old pages' writeback; a hard link to the old file keeps
    its bytes.
    """
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass
    return open(path, "w")


SNAPSHOT_MAGIC = "FHNFIELD"


def write_snapshot(f, path, time):
    """Text snapshot: `FHNFIELD v2 dim n L boundary time`, one value per line."""
    g = f.grid
    with open_new(path) as fh:
        fh.write(f"{SNAPSHOT_MAGIC} v2 {g.dim} {g.n} {g.half_width:.17g} {g.boundary} {time:.17g}\n")
        for v in f.values.ravel():
            fh.write(f"{v:.17g}\n")


def read_snapshot(path):
    """Returns (ScalarField, time) of a v2 snapshot.

    v1 snapshots are rejected: they do not record the boundary closure.
    """
    with open(path) as fh:
        header = fh.readline().split()
        if header[:2] == [SNAPSHOT_MAGIC, "v1"]:
            raise ValueError(f"{path}: a v1 snapshot, which does not record its boundary closure")
        if len(header) != 7 or header[:2] != [SNAPSHOT_MAGIC, "v2"]:
            raise ValueError(f"{path}: not a field snapshot")
        dim, n = int(header[2]), int(header[3])
        half_width, boundary, time = float(header[4]), header[5], float(header[6])
        values = np.loadtxt(fh).reshape((n,) * dim)
    grid = Grid(dim=dim, half_width=half_width, n=n, boundary=boundary)
    return ScalarField(grid, values), time


def bump(x, center=0.0, width=1.0):
    """Smooth compactly supported profile, max 1 at the center."""
    r2 = ((np.asarray(x, dtype=float) - center) / width) ** 2
    out = np.zeros_like(r2)
    inside = r2 < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - r2[inside]))
    return out


def bump_field(grid, center=0.0, width=1.0, amplitude=1.0):
    if grid.dim == 1:
        return ScalarField(grid, amplitude * bump(grid.coords(), center, width))
    c = grid.coords()
    vals = amplitude * bump(c[..., 0], center, width) * bump(c[..., 1], center, width)
    return ScalarField(grid, vals)
