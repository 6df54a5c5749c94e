import math

import numpy as np
import pytest

from fhnrds.fields import (
    Grid,
    ScalarField,
    bump,
    bump_field,
    l2_sq,
    laplacian_values,
    lp_p,
    norm_sums,
    read_snapshot,
    superlevel_measure,
    tail_integrals,
    write_snapshot,
)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(dim=3)
    with pytest.raises(ValueError):
        Grid(n=2)
    with pytest.raises(ValueError):
        Grid(half_width=0.0)
    with pytest.raises(ValueError):
        Grid(boundary="absorbing")


def test_grid_geometry():
    g = Grid(dim=1, half_width=2.0, n=8)
    assert g.spacing == 0.5
    assert g.cell_measure == 0.5
    x = g.axis_coords()
    assert x[0] == -1.75 and x[-1] == 1.75
    g2 = Grid(dim=2, half_width=2.0, n=8)
    assert g2.cell_measure == 0.25
    assert g2.coords().shape == (8, 8, 2)


def test_scalar_field_validation():
    g = Grid(n=8, half_width=1.0)
    with pytest.raises(ValueError):
        ScalarField(g, np.zeros(7))
    with pytest.raises(ValueError):
        ScalarField(g, np.full(8, np.nan))


def test_laplacian_periodic_eigenfunction():
    g = Grid(dim=1, half_width=np.pi, n=256, boundary="periodic")
    k = 3
    f = ScalarField(g, np.sin(k * g.coords()))
    lap = laplacian_values(f.values, g)
    np.testing.assert_allclose(lap, -(k**2) * f.values, atol=2e-2)


def test_laplacian_constant_field():
    for bc in ("periodic", "neumann0"):
        g = Grid(n=16, half_width=1.0, boundary=bc)
        lap = laplacian_values(np.ones(16), g)
        np.testing.assert_array_equal(lap, np.zeros(16))
    g = Grid(n=16, half_width=1.0, boundary="dirichlet0")
    lap = laplacian_values(np.ones(16), g)
    assert lap[0] != 0.0 and np.all(lap[1:-1] == 0.0)


def test_laplacian_2d_additivity():
    g = Grid(dim=2, half_width=1.0, n=16, boundary="periodic")
    rng = np.random.default_rng(0)
    v = rng.standard_normal((16, 16))
    lap = laplacian_values(v, g)
    g1 = Grid(dim=1, half_width=1.0, n=16, boundary="periodic")
    rows = np.stack([laplacian_values(v[i], g1) for i in range(16)])
    cols = np.stack([laplacian_values(v[:, j], g1) for j in range(16)], axis=1)
    np.testing.assert_allclose(lap, rows + cols, rtol=1e-12)


def test_norms_consistent():
    g = Grid(n=64, half_width=4.0)
    rng = np.random.default_rng(1)
    v = rng.standard_normal(64)
    assert l2_sq(v, g) == pytest.approx(np.sum(v**2) * g.cell_measure, rel=1e-14)
    assert lp_p(v, g, 4) == pytest.approx(np.sum(v**4) * g.cell_measure, rel=1e-12)
    assert lp_p(v, g, 3.5) == pytest.approx(np.sum(np.abs(v) ** 3.5) * g.cell_measure, rel=1e-12)


def point_order_sum(products, h):
    """The sum of `products` added in order, from the first, times h."""
    return float(np.add.accumulate(products)[-1] * h)


def powers(x, p):
    """|x|^p of each value as the kernel forms it: (x*x)*(x*x) for p = 4, the
    product of p factors |x| in order for another integer p, libm's pow else."""
    a = np.abs(x)
    if p == 4:
        return (x * x) * (x * x)
    if p == int(p):
        y = a
        for _ in range(int(p) - 1):
            y = y * a
        return y
    return np.array([math.pow(v, p) for v in a])


@pytest.mark.parametrize("dim, rows, n", [
    (1, 1, 1024), (1, 7, 1000), (1, 20, 1024), (1, 40, 1024), (1, 70, 128), (2, 3, 64),
    (1, None, 64), (1, None, 128), (1, None, 1024), (2, None, 64),
], ids=["1x1024", "7x1000", "20x1024", "40x1024", "70x128", "2d-3x64x64",
        "field-64", "field-128", "field-1024", "field-2d-64x64"])
@pytest.mark.parametrize("p", [4, 3, 5.5, 3.5])
def test_row_axis_norms_are_the_per_row_calls_bitwise(dim, rows, n, p):
    # l2_sq and lp_p take one path, the kernel's `fhn_norms`, which
    # model.solve_batch's records call too; the diagnostics' single fields
    # (rows None) are a batch of one row.  Each value must stay bitwise its
    # row's products added in point order, from the first, so that a
    # batched run is its solo solve and the records do not depend on BLAS
    g = Grid(dim=dim, n=n, half_width=32.0)
    h = g.cell_measure
    shape = g.shape if rows is None else (rows,) + g.shape
    values = np.random.default_rng((rows or 1) * n).standard_normal(shape)

    def l2_ref(v):
        v = v.ravel()
        return point_order_sum(v * v, h)

    def lp_ref(v):
        return point_order_sum(powers(v.ravel(), p), h)

    if rows is None:
        got_l2, got_lp = l2_sq(values, g), lp_p(values, g, p)
        assert type(got_l2) is type(got_lp) is float
        assert got_l2 == l2_ref(values) and got_lp == lp_ref(values)
        return
    # row-major, and interleaved as a 1-D step's buffers are, whose
    # consecutive rows the kernel sums side by side as the lanes of a loop
    for x in (values, np.ascontiguousarray(values.T).T):
        got_l2, got_lp = l2_sq(x, g), lp_p(x, g, p)
        assert got_l2.shape == got_lp.shape == (rows,)
        assert got_l2.tolist() == [l2_ref(row) for row in values]
        assert got_lp.tolist() == [lp_ref(row) for row in values]


@pytest.mark.parametrize("p", [4, 3, 3.5])
def test_each_kernel_build_sums_norms_in_point_order(kernel_build, p):
    # conftest's `kernel_build`: the row-axis pins above, on the lanes and
    # the one-row path, in each build without clones (baseline and x86-64-v3)
    for dim, rows, n in ((1, 1, 1024), (1, 7, 1000), (1, 40, 1024), (1, 70, 128), (2, 3, 64),
                         (1, None, 1024), (2, None, 64)):
        test_row_axis_norms_are_the_per_row_calls_bitwise(dim, rows, n, p)


def test_norm_sums_read_any_rows_of_any_layout():
    # the rows of an index list, in any order and repeated, or a run of
    # consecutive rows from the middle, of the interleaved (n, B) layout of
    # a 1-D step, of a row-major copy and of a view with its points
    # reversed, are each row's sums alone; a row outside is refused
    rng = np.random.default_rng(3)
    n, B, p = 50, 9, 4
    interleaved = rng.standard_normal((n, B))
    for rows in (np.array([7, 0, 3, 3, 8, 1]), np.arange(2, 7)):
        for points in (interleaved, interleaved[::-1]):
            for x in (points.T, np.ascontiguousarray(points.T)):
                got = norm_sums(x, rows, p)
                assert got.shape == (2, rows.size)
                for r, b in enumerate(rows):
                    row = points[:, b]
                    assert got[:, r].tolist() == [point_order_sum(row * row, 1.0),
                                                  point_order_sum(powers(row, p), 1.0)]
    assert norm_sums(interleaved.T, np.arange(0)).shape == (1, 0)
    for bad in ([0, B], [-1]):
        with pytest.raises(IndexError):
            norm_sums(interleaved.T, np.array(bad))


def test_superlevel_and_tails():
    g = Grid(n=8, half_width=4.0)  # unit cells
    f = ScalarField(g, np.array([0.0, 0.5, -1.0, 2.0, -3.0, 0.1, 1.0, 0.0]))
    assert superlevel_measure(f, 1.0) == 4.0
    assert superlevel_measure(f, 2.5) == 1.0
    with pytest.raises(ValueError):
        superlevel_measure(f, 0.0)
    assert tail_integrals(f, [0.0, 2.5], 2) == [pytest.approx(np.sum(f.values**2)), 9.0]
    # monotone non-increasing in M
    tails = tail_integrals(f, [0.5, 1.0, 2.0, 3.0, 4.0], 4)
    assert all(a >= b for a, b in zip(tails, tails[1:]))


def test_tails_never_rise_with_M():
    # smooth bumps have many cells just above 0; summing each superlevel set
    # on its own can round the tail of a larger M up by an ulp
    g = Grid(n=1024, half_width=32.0)
    rng = np.random.default_rng(5)
    Ms = np.geomspace(1e-7, 1e-2, 50)
    for _ in range(10):
        f = bump_field(g, center=rng.uniform(-8, 8), width=rng.uniform(4, 16),
                       amplitude=rng.uniform(0.5, 2))
        tails = tail_integrals(f, Ms, 4)
        assert np.all(np.diff(tails) <= 0.0)
        assert tails == [tail_integrals(f, [M], 4)[0] for M in Ms]
        assert tails[0] == pytest.approx(np.sum(f.values**4) * g.cell_measure, rel=1e-12)


@pytest.mark.parametrize("boundary", ["dirichlet0", "neumann0", "periodic"])
@pytest.mark.parametrize("dim", [1, 2])
def test_snapshot_roundtrip_exact(tmp_path, dim, boundary):
    g = Grid(dim=dim, n=32, half_width=8.0, boundary=boundary)
    rng = np.random.default_rng(5)
    f = ScalarField(g, rng.standard_normal(g.shape))
    p = tmp_path / "snap.txt"
    write_snapshot(f, p, time=1.25)
    f2, t = read_snapshot(p)
    assert t == 1.25
    np.testing.assert_array_equal(f.values, f2.values)
    assert f2.grid == g


def test_snapshot_rewrite_leaves_a_hard_link_its_old_bytes(tmp_path):
    # a rewrite makes a new file instead of truncating the old one in place
    g = Grid(n=16, half_width=8.0)
    p, link = tmp_path / "snap.txt", tmp_path / "old.txt"
    write_snapshot(ScalarField.zeros(g), p, time=0.0)
    old = p.read_bytes()
    link.hardlink_to(p)
    write_snapshot(bump_field(g), p, time=1.0)
    assert link.read_bytes() == old
    assert read_snapshot(p)[1] == 1.0


def test_snapshot_rejects_garbage(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("not a snapshot\n")
    with pytest.raises(ValueError):
        read_snapshot(p)
    # a v1 header does not record the boundary closure
    p.write_text("FHNFIELD v1 1 3 8 0\n0\n0\n0\n")
    with pytest.raises(ValueError, match="v1 snapshot"):
        read_snapshot(p)


def test_bump_profile():
    x = np.linspace(-3, 3, 601)
    b = bump(x, center=0.0, width=1.0)
    assert b.max() == pytest.approx(1.0, abs=1e-12)
    assert np.all(b[np.abs(x) >= 1.0] == 0.0)
    assert np.all(b >= 0.0)


def test_bump_field_compact_support():
    g = Grid(n=128, half_width=16.0)
    f = bump_field(g, center=2.0, width=4.0, amplitude=3.0)
    x = g.coords()
    assert np.all(f.values[np.abs(x - 2.0) >= 4.0] == 0.0)
    assert f.values.max() == pytest.approx(3.0, rel=1e-2)
