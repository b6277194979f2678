import csv
import dataclasses
import io
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse.linalg import LinearOperator, gmres

from deltashell.coupling import (build_kv, effective_coupling,
                                 lambda_electrostatic)
from deltashell.dirac_algebra import (
    ALPHA,
    BETA,
    I4,
    SpectralParameter,
    alpha_dot,
    phi_a,
)
from deltashell.geometry import build_mesh, ellipsoid, sphere
from deltashell.potential import factorize, is_delta_eta_small, square_well
from deltashell.shell_ops import (
    DegenerateQuadrature,
    NearCriticalCoupling,
    PointTooCloseToSurface,
    SingularBoundaryInverse,
    _disk_moments,
    a_eps_apply,
    assemble_family,
    b_eps_apply,
    b_limit_apply,
    ball_grid,
    bprime_apply,
    c_eps_apply,
    cauchy_sigma,
    cauchy_sigma_apply,
    default_volume_density,
    grid_norm,
    layer_potential,
    make_operator_grid,
    plemelj_check,
    shell_resolvent_apply,
    strong_convergence_experiment,
)

RNG = np.random.default_rng(23)

# closed-form trace of the unit-sphere single layer with constant density,
# a = i, m = 1 (branch w = sqrt(2)); frozen before the build
TRACE_I1 = 0.33265635349274736
TRACE_JPV = 0.30310348021176925

SP = SpectralParameter(1j, 1.0)
E1 = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)


@pytest.fixture(scope="module")
def mesh320():
    return build_mesh(sphere(1.0), 256)


@pytest.fixture(scope="module")
def mesh1280():
    return build_mesh(sphere(1.0), 512)


# triaxial: curvatures and coarea factors differ from node to node, which
# a sphere cannot show
ELLIPSOID = ellipsoid(1.3, 1.0, 0.8)


@pytest.fixture(scope="module")
def ellipsoid320():
    return build_mesh(ELLIPSOID, 256)


@pytest.fixture(scope="module")
def grid_m3(mesh320):
    uv = factorize(square_well(0.4, 0.25))
    return make_operator_grid(mesh320, uv, m_nodes=3)


@pytest.fixture(scope="module")
def ellipsoid_grid_m3(ellipsoid320):
    uv = factorize(square_well(0.4, 0.25))
    return make_operator_grid(ellipsoid320, uv, m_nodes=3)


@pytest.fixture(scope="module")
def grid80_m8():
    uv = factorize(square_well(0.4, 0.25))
    return make_operator_grid(build_mesh(sphere(1.0), 80), uv, m_nodes=8)


def constant_density(mesh, spinor=E1):
    return np.tile(spinor, (len(mesh), 1))


def smooth_density(mesh):
    phase = np.exp(1j * mesh.nodes @ np.array([0.3, -0.2, 0.5]))
    spinor = np.array([1.0, 0.4, -0.2j, 0.1], dtype=complex)
    return phase[:, None] * spinor[None, :]


def sphere_trace_reference(sp, mesh, spinor=E1):
    even = (sp.a * I4 + sp.m * BETA) @ spinor
    xhat = mesh.nodes / np.linalg.norm(mesh.nodes, axis=1)[:, None]
    odd = 1j * np.einsum("kab,b->ka", alpha_dot(xhat), spinor)
    return TRACE_I1 * even[None, :] + TRACE_JPV * odd


def bprime_direct(grid):
    """Dense B' assembled entry by entry from the sign kernel."""
    n, m = grid.n_nodes, grid.n_transverse
    out = np.zeros((4 * n * m, 4 * n * m), dtype=complex)
    for k in range(n):
        an = alpha_dot(grid.mesh.normals[k])
        for p in range(m):
            for q in range(m):
                val = (0.5j * grid.kv.u_vals[p]
                       * np.sign(grid.kv.nodes[p] - grid.kv.nodes[q])
                       * grid.kv.v_vals[q] * grid.kv.weights[q])
                r0 = (k * m + p) * 4
                c0 = (k * m + q) * 4
                out[r0:r0 + 4, c0:c0 + 4] = val * an
    return out


def cell_block_at_height(sp, mesh, rows, shift, height):
    """The cell rule of ``_cell_block`` with one far-sum pass per height.

    Its (rows, 4, 4) blocks layer (a + m beta) + i alpha.(v - d) are
    composed from dense 4x4 stacks; the one-pass rule over all heights
    of a sheet must match it.  Its far sums are the same matmuls against
    four node columns, whose bits do not depend on the rows of a call.
    """
    from deltashell.shell_ops import _kernel_blocks

    det = mesh.coarea(shift)
    src, wts = mesh.sheet(shift)
    nu = mesh.normals
    curv = (-mesh.lam1 / (1.0 - shift * mesh.lam1)
            - mesh.lam2 / (1.0 - shift * mesh.lam2))
    pts = src[rows] + height * nu[rows]
    v_far = np.empty((rows.size, 3), dtype=complex)
    d_far = np.empty((rows.size, 3), dtype=complex)
    nu_cols = np.column_stack([nu * wts[:, None], wts])

    def add(lo, hi, diff, fields, _):  # its own distances, not the loop's
        pref, odd = fields
        ndot = pts[lo:hi] @ nu.T - np.sum(src * nu, axis=1)
        r = np.sqrt(diff[..., 0] ** 2 + diff[..., 1] ** 2 + diff[..., 2] ** 2)
        base = 1.0 / (4.0 * np.pi * r**3)
        base[np.arange(hi - lo), rows[lo:hi]] = 0.0
        v_far[lo:hi] = (((curv * pref + ndot * odd) @ nu_cols)[:, :3]
                        - ((ndot * base) @ nu_cols)[:, 3:] * nu[rows[lo:hi]])
        mom = odd @ np.column_stack([wts, src * wts[:, None]])
        d_far[lo:hi] = mom[:, :1] * pts[lo:hi] - mom[:, 1:]

    _kernel_blocks(sp, pts, src, add, (rows, np.arange(len(mesh))))
    rho = np.sqrt(mesh.weights[rows] / np.pi)
    layer, axial = _disk_moments(sp.branch, rho, height)
    _, axial_flat = _disk_moments(0.0, rho, height)
    layer = det[rows] * layer
    anchor = 0.5 * (np.sign(height) - 1.0)
    v = v_far + (curv[rows] * layer + 0.5 * det[rows] * (axial - axial_flat)
                 + anchor)[:, None] * nu[rows]
    return (layer[:, None, None] * (sp.a * I4 + sp.m * BETA)
            + 1j * alpha_dot(v - d_far))


# ---------------------------------------------------------------------------
# volume quadrature


def test_ball_grid_volume_and_moment():
    vol = ball_grid(0.7, nr=6, ntheta=6, nphi=10)
    assert np.sum(vol.weights) == pytest.approx(4.0 * np.pi * 0.7**3 / 3.0,
                                                rel=1e-12)
    r2 = np.sum(vol.points**2, axis=1)
    exact = 4.0 * np.pi * 0.7**5 / 5.0
    assert np.sum(vol.weights * r2) == pytest.approx(exact, rel=1e-12)


def test_ball_grid_guards():
    with pytest.raises(ValueError):
        ball_grid(0.0)
    with pytest.raises(ValueError):
        ball_grid(-1.0)


# ---------------------------------------------------------------------------
# layer potential


def test_layer_potential_zero_density(mesh320):
    out = layer_potential(SP, mesh320, np.array([0.0, 0.0, 3.0]),
                          np.zeros((len(mesh320), 4)))
    assert np.all(out == 0.0)


def test_layer_potential_matches_finer_mesh(mesh320, mesh1280):
    x = np.array([0.0, 0.0, 3.0])
    coarse = layer_potential(SP, mesh320, x, constant_density(mesh320))
    fine = layer_potential(SP, mesh1280, x, constant_density(mesh1280))
    rel = np.linalg.norm(fine - coarse) / np.linalg.norm(fine)
    assert rel < 1e-4


def test_layer_potential_exponential_decay(mesh320):
    g = constant_density(mesh320)
    near = layer_potential(SP, mesh320, np.array([0.0, 0.0, 2.0]), g)
    far = layer_potential(SP, mesh320, np.array([0.0, 0.0, 10.0]), g)
    assert np.linalg.norm(far) < 1e-3 * np.linalg.norm(near)


def test_layer_potential_rejects_near_surface_point(mesh320):
    with pytest.raises(PointTooCloseToSurface):
        layer_potential(SP, mesh320, 1.01 * mesh320.nodes[0],
                        constant_density(mesh320))


def test_layer_potential_volume_part_matches_direct_sum(mesh320):
    vol = ball_grid(0.3, nr=4, ntheta=4, nphi=6)
    fv = np.exp(-np.sum(vol.points**2, axis=1))[:, None] * E1[None, :]
    x = np.array([0.0, 0.0, 2.5])
    out = layer_potential(SP, mesh320, x, volume=vol, volume_values=fv)
    blocks = phi_a(SP, x[None, :] - vol.points)
    direct = np.einsum("jab,jb->a", blocks, fv * vol.weights[:, None])
    assert np.linalg.norm(out - direct) < 1e-13


# ---------------------------------------------------------------------------
# kernel sums: the scalar-field contraction against explicit phi_a blocks


def phi_block_sum(op, g):
    """``op`` applied to ``g`` as an explicit sum of phi_a blocks."""
    nx, ny = op.x.shape[0], op.y.shape[0]
    diff = op.x[:, None, :] - op.y[None, :, :]
    keep = np.ones((nx, ny), dtype=bool)
    if op.cells is not None:
        owner, cell = op.cells
        p, q = cell.shape[1:3]  # x groups of p points over y cells of q
        keep = np.repeat(owner, p)[:, None] != np.arange(ny)[None, :] // q
    blocks = np.zeros((nx, ny, 4, 4), dtype=complex)
    blocks[keep] = phi_a(op.sp, diff[keep])
    out = np.einsum("ijab,jb->ia", blocks, g * op.col[:, None])
    if op.cells is not None:
        for k, c in enumerate(owner):
            out[k * p:(k + 1) * p] += np.einsum(
                "pqab,qb->pa", cell[k], g[c * q:(c + 1) * q])
    return out if op.row is None else out * op.row[:, None]


@pytest.mark.parametrize("chunk_bytes", [None, 2e4])
@pytest.mark.parametrize("which", ["trace", "b_eps", "a_eps"])
def test_kernel_sum_matches_phi_block_sum(which, chunk_bytes, grid80_m8,
                                          ellipsoid320, monkeypatch):
    from deltashell import shell_ops

    if chunk_bytes is not None:  # many chunks, cut across cells
        monkeypatch.setattr(shell_ops, "CHUNK_BYTES", chunk_bytes)
    sp = SpectralParameter(0.3 + 0.4j, 1.0)
    if which == "trace":  # cells read at three heights, on a subset of rows
        op = shell_ops._trace_op(sp, ellipsoid320, np.arange(3, 256, 5),
                                 [0.05, -0.05, 0.0])
    elif which == "b_eps":  # cells and a row factor
        op = shell_ops._b_eps_op(grid80_m8, sp, 0.05)
    else:
        op = shell_ops._KernelSum(
            sp, np.array([[0.2, 0.1, 0.0], [1.5, -1.0, 0.5]]),
            *shell_ops._collar(grid80_m8, 0.05, False))
    g = RNG.normal(size=(op.y.shape[0], 4)) + 1j * RNG.normal(
        size=(op.y.shape[0], 4))
    got = op.apply(g)  # its passes finish the cells phi_block_sum reads
    want = phi_block_sum(op, g)
    scale = np.max(np.abs(want))
    assert np.max(np.abs(got - want)) <= 1e-12 * scale
    dense = (op.matrix() @ g.ravel()).reshape(-1, 4)
    assert np.max(np.abs(dense - want)) <= 1e-12 * scale


def test_operators_do_not_depend_on_the_chunk_layout(ellipsoid320, grid80_m8,
                                                     monkeypatch):
    from deltashell import shell_ops

    # the cell rule's far sums and the apply are matmuls of a block of
    # rows against four or eight columns.  OpenBLAS 0.3.31 (one thread)
    # gives a row the same bits in any block of up to about 1.2e5 pairs
    # (rows x nodes) against eight real columns and 2.5e5 against four,
    # and complex products in every block measured (up to 2,560 rows by
    # 2,560 nodes); past that, a row's bits depend on its block.  These
    # layouts stay within 3.2e4 pairs a block: up to 390 rows by 80 nodes
    # in a sheet's pass, 97 by 320 in the trace's.  The kept apply reads
    # each sheet's columns of the whole arrays in the blocks of a pass
    # against all of y (48 rows by 80 nodes here), inside the same range,
    # and the row stride does not change the bits.  The kernel fields are
    # real at a = i, and at a complex branch (a = 0.3 + 0.4i) formed from
    # real products
    gc = RNG.normal(size=(len(ellipsoid320), 4)) + 0.5j
    gb = RNG.normal(size=(grid80_m8.n_nodes * grid80_m8.n_transverse, 4)) - 0.5j
    for sp in (SP, SpectralParameter(0.3 + 0.4j, 1.0)):
        runs = []
        for chunk_bytes in (4e6, 1.3e6, 3.7e5):
            monkeypatch.setattr(shell_ops, "CHUNK_BYTES", chunk_bytes)
            trace = shell_ops._trace_op(sp, ellipsoid320)
            b_eps = shell_ops._b_eps_op(grid80_m8, sp, 0.05)
            # the applies' passes finish the cells
            runs.append([trace.apply(gc), trace.cells[1],
                         b_eps.apply(gb), b_eps.cells[1]])
            # the cached apply replays the streamed one's matmuls
            assert np.array_equal(trace.apply(gc, trace.fields()), runs[-1][0])
            assert np.array_equal(b_eps.apply(gb, b_eps.fields()), runs[-1][2])
        for run in runs[1:]:
            for got, want in zip(run, runs[0]):
                assert np.array_equal(got, want)


@pytest.mark.parametrize("a", [1j, 0.3 + 0.4j])
@pytest.mark.parametrize("which", ["trace", "b_eps"])
def test_adjoint_from_cached_fields_matches_the_matrix(which, a, ellipsoid320,
                                                      grid80_m8):
    from deltashell import shell_ops

    # B_eps carries cells and a row factor; C_sigma cells only
    sp = SpectralParameter(a, 1.0)
    op = (shell_ops._trace_op(sp, ellipsoid320) if which == "trace"
          else shell_ops._b_eps_op(grid80_m8, sp, 0.05))
    y = RNG.normal(size=(op.x.shape[0], 4)) + 1j * RNG.normal(
        size=(op.x.shape[0], 4))
    want = (op.matrix().conj().T @ y.ravel()).reshape(-1, 4)
    got = op.adjoint(y, op.fields())
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("which", ["trace", "b_eps"])
def test_matrix_reads_the_same_passes_before_and_after_an_apply(
        which, ellipsoid320, grid80_m8):
    from deltashell import shell_ops

    # the oracle writes phi_a from the sheet passes: the cell rule's on a
    # fresh operator, the plain ones once an apply has finished the cells
    sp = SpectralParameter(0.3 + 0.4j, 1.0)

    def build():
        return (shell_ops._trace_op(sp, ellipsoid320) if which == "trace"
                else shell_ops._b_eps_op(grid80_m8, sp, 0.05))

    fresh = build().matrix()
    op = build()
    op.apply(np.ones((op.y.shape[0], 4), dtype=complex))
    assert np.array_equal(op.matrix(), fresh)


@pytest.mark.parametrize("owned", [False, True])
def test_kernel_blocks_hand_out_contiguous_planes(owned, monkeypatch):
    from deltashell import shell_ops

    # every component of diff is one contiguous plane, with the bits of
    # the interleaved difference, and r is its length, with the bits
    # kernel_fields forms; cell pairs have zero fields
    monkeypatch.setattr(shell_ops, "CHUNK_BYTES", 2e5)  # several blocks
    rng = np.random.default_rng(5)
    x, y = rng.normal(size=(300, 3)), rng.normal(size=(200, 3))
    owners = (rng.integers(0, 20, 300), np.arange(200) // 10) if owned else None
    blocks = []

    def use(lo, hi, diff, kernel, r):
        cell = (owners[0][lo:hi, None] == owners[1][None, :] if owned
                else np.zeros((hi - lo, 200), dtype=bool))
        for c in range(3):
            assert diff[..., c].flags.c_contiguous
            want = x[lo:hi, None, c] - y[None, :, c]
            assert np.array_equal(diff[..., c][~cell], want[~cell])
        want = np.sqrt(diff[..., 0] ** 2 + diff[..., 1] ** 2 + diff[..., 2] ** 2)
        assert np.array_equal(r, want)
        for f in kernel:
            assert np.all(f[cell] == 0.0)
        blocks.append((lo, hi, np.count_nonzero(cell)))

    shell_ops._kernel_blocks(SpectralParameter(0.3 + 0.4j, 1.0), x, y, use, owners)
    assert len(blocks) > 1 and blocks[0][0] == 0 and blocks[-1][1] == 300
    assert (sum(b[2] for b in blocks) > 0) == owned


@pytest.mark.parametrize("a, pair_bytes", [(1j, 32), (0.3 + 0.4j, 64)])
def test_kept_fields_are_row_views_of_four_arrays(a, pair_bytes, grid80_m8):
    # one (nx, ny) array per field, not four arrays per block of rows
    b = assemble_family(grid80_m8, SpectralParameter(a, 1.0), 0.05)["B"]
    n = grid80_m8.n_nodes * grid80_m8.n_transverse
    whole = [f.base for f in b.fields[0][2]]
    assert len(b.fields) > 1 and len({id(w) for w in whole}) == 4
    assert all(w is not None and w.shape == (n, n) for w in whole)
    assert sum(w.nbytes for w in whole) == pair_bytes * n * n
    for lo, hi, stack in b.fields:
        for f, w in zip(stack, whole):
            assert f.base is w and f.shape == (hi - lo, n)
            assert f.ctypes.data == w[lo:hi].ctypes.data


# ---------------------------------------------------------------------------
# boundary trace operator


def test_trace_requires_enough_nodes():
    tiny = build_mesh(sphere(1.0), 80)
    with pytest.raises(ValueError):
        cauchy_sigma_apply(SP, tiny, constant_density(tiny))
    with pytest.raises(ValueError):
        cauchy_sigma(SP, tiny)


def test_trace_dense_cap():
    big = build_mesh(sphere(1.0), 5120)
    with pytest.raises(ValueError):
        cauchy_sigma(SP, big)


def test_trace_sphere_closed_form(mesh320, mesh1280):
    sups = {}
    for mesh in (mesh320, mesh1280):
        got = cauchy_sigma_apply(SP, mesh, constant_density(mesh))
        ref = sphere_trace_reference(SP, mesh)
        rel = (np.linalg.norm(got - ref, axis=1)
               / np.linalg.norm(ref, axis=1))
        sups[len(mesh)] = float(np.max(rel))
    assert sups[320] < 2.5e-2
    assert sups[1280] < 1.2e-2
    assert sups[1280] < sups[320]


def test_trace_massless_riesz_value(mesh320):
    sp0 = SpectralParameter(0.0, 0.0)
    got = cauchy_sigma_apply(sp0, mesh320, constant_density(mesh320))
    xhat = mesh320.nodes / np.linalg.norm(mesh320.nodes, axis=1)[:, None]
    ref = 0.5j * np.einsum("kab,b->ka", alpha_dot(xhat), E1)
    rel = np.linalg.norm(got - ref, axis=1) / np.linalg.norm(ref, axis=1)
    assert np.max(rel) < 2.5e-2


def test_trace_massless_pure_odd_blocks(mesh320):
    sp0 = SpectralParameter(0.0, 0.0)
    mat = cauchy_sigma(sp0, mesh320).matrix
    n = len(mesh320)
    blocks = mat.reshape(n, 4, n, 4).transpose(0, 2, 1, 3)
    # alpha matrices are block off-diagonal in 2x2 partition; no I or beta
    assert np.max(np.abs(blocks[:, :, :2, :2])) < 1e-14
    assert np.max(np.abs(blocks[:, :, 2:, 2:])) < 1e-14


@pytest.mark.parametrize("mesh", ["sphere", "ellipsoid"])
def test_trace_dense_matches_matrix_free(mesh, request):
    mesh = request.getfixturevalue(
        {"sphere": "mesh320", "ellipsoid": "ellipsoid320"}[mesh])
    g = RNG.normal(size=(len(mesh), 4)) + 1j * RNG.normal(
        size=(len(mesh), 4))
    dense = cauchy_sigma(SP, mesh).matrix @ g.ravel()
    free = cauchy_sigma_apply(SP, mesh, g)
    assert np.max(np.abs(dense.reshape(-1, 4) - free)) < 1e-12


def test_trace_rows_read_at_height(ellipsoid320):
    from deltashell.shell_ops import _cell_block, _mesh_resolution, _trace_op

    mesh = ellipsoid320
    n = len(mesh)
    g = RNG.normal(size=(n, 4)) + 1j * RNG.normal(size=(n, 4))
    idx = np.array([0, 57, 160, n - 1])
    heights = 1.5 * _mesh_resolution(mesh) * np.array([1.0, -1.0])
    # row 2 i + k is node idx[i] read at heights[k]
    got = _trace_op(SP, mesh, idx, heights).apply(g).reshape(idx.size, 2, 4)
    cell = _cell_block(SP, mesh, idx, 0.0, heights)
    assert cell.shape == (idx.size, 2, 4, 4)
    for k, height in enumerate(heights):
        for i, o in enumerate(idx):
            # the kernel over the other nodes, plus node o's own cell
            far = np.arange(n) != o
            x = mesh.nodes[o] + height * mesh.normals[o]
            want = np.einsum("jab,jb->a", phi_a(SP, x - mesh.nodes[far]),
                             g[far] * mesh.weights[far, None])
            want += cell[i, k] @ g[o]
            assert np.max(np.abs(got[i, k] - want)) < 1e-12 * np.max(np.abs(want))
    full, part = _trace_op(SP, mesh), _trace_op(SP, mesh, idx)
    scale = np.max(np.abs(full.apply(g)))
    assert np.max(np.abs(part.apply(g) - full.apply(g)[idx])) < 1e-12 * scale
    rows = full.matrix().reshape(n, 4, -1)[idx].reshape(-1, 4 * n)
    assert np.max(np.abs(part.matrix() - rows)) < 1e-12 * np.max(np.abs(rows))


@pytest.mark.parametrize("a", [1j, 0.3 + 0.4j])
@pytest.mark.parametrize("shift", [0.0, 0.03, -0.03])
def test_cell_block_matches_the_per_height_rule(ellipsoid320, shift, a):
    from deltashell.shell_ops import _cell_block

    # one far-sum pass over all heights gives the blocks of one pass per
    # height, up to the rounding of the matmuls' row blocking
    sp = SpectralParameter(a, 1.0)
    rows = np.arange(len(ellipsoid320))
    heights = np.array([0.07, 0.025, 0.0, -0.01, -0.06])
    got = _cell_block(sp, ellipsoid320, rows, shift, heights)
    assert got.shape == (rows.size, heights.size, 4, 4)
    for k, height in enumerate(heights):
        want = cell_block_at_height(sp, ellipsoid320, rows, shift, height)
        assert np.max(np.abs(got[:, k] - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("a", [1j, 0.3 + 0.4j])
def test_trace_readings_are_the_sum_plus_standalone_cells(ellipsoid320, a):
    from deltashell.shell_ops import _cell_block, _mesh_resolution, _trace_op

    # the cells ride the trace's own pass; with the cells of a standalone
    # _cell_block call put in first, the pass sums the kernel alone
    sp = SpectralParameter(a, 1.0)
    mesh = ellipsoid320
    g = RNG.normal(size=(len(mesh), 4)) + 1j * RNG.normal(size=(len(mesh), 4))
    h = 1.5 * _mesh_resolution(mesh)
    reads = [(np.arange(len(mesh)), [0.0]),
             (np.array([0, 57, 160, 255]), [h, -h, 0.0])]
    for rows, heights in reads:
        fused = _trace_op(sp, mesh, rows, heights)
        got = fused.apply(g)
        apart = _trace_op(sp, mesh, rows, heights)
        apart.finished.append(_cell_block(sp, mesh, rows, 0.0, heights)[:, :, None])
        assert np.array_equal(fused.cells[1], apart.cells[1])
        assert np.array_equal(got, apart.apply(g))
    assert np.array_equal(cauchy_sigma_apply(sp, mesh, g),
                          _trace_op(sp, mesh).apply(g))


@pytest.mark.parametrize("a", [1j, 0.3 + 0.4j])
def test_b_eps_streamed_and_kept_applies_agree_bit_for_bit(grid80_m8, a):
    sp = SpectralParameter(a, 1.0)
    shape = (grid80_m8.n_nodes * grid80_m8.n_transverse, 4)
    g = RNG.normal(size=shape) + 1j * RNG.normal(size=shape)
    kept = assemble_family(grid80_m8, sp, 0.05)["B"].apply(g)
    streamed = b_eps_apply(grid80_m8, sp, 0.05, g)
    assert np.array_equal(kept, streamed.reshape(-1, 4))


def test_cell_rule_makes_one_pass_per_sheet(grid80_m8, mesh320, resolvent_setup,
                                            monkeypatch):
    from deltashell import shell_ops

    # every kernel pass, and those of them that also run the far sums
    passes, far = [], []
    blocks, cell_block = shell_ops._kernel_blocks, shell_ops._cell_block

    def counted(*args, **kwargs):
        passes.append(1)
        return blocks(*args, **kwargs)

    def counted_cells(*args, **kwargs):
        far.append(1)
        return cell_block(*args, **kwargs)

    monkeypatch.setattr(shell_ops, "_kernel_blocks", counted)
    monkeypatch.setattr(shell_ops, "_cell_block", counted_cells)

    def counts(read):
        passes.clear()
        far.clear()
        read()
        return len(passes), len(far)

    g = smooth_density(mesh320)
    gb = np.ones((grid80_m8.n_nodes * grid80_m8.n_transverse, 4), dtype=complex)
    # M = 8 sheets: one pass each, the cells riding them
    assert counts(lambda: b_eps_apply(grid80_m8, SP, 0.05, gb)) == (8, 8)
    family = []
    assert counts(lambda: family.append(
        assemble_family(grid80_m8, SP, 0.05)["B"])) == (8, 8)
    assert counts(lambda: family[0].norm()) == (0, 0)
    # the trace is one sheet, its rows at every height one pass
    assert counts(lambda: cauchy_sigma_apply(SP, mesh320, g)) == (1, 1)
    report = []
    assert counts(lambda: report.append(
        plemelj_check(SP, mesh320, g, max_eval_nodes=16))) == (1, 1)
    assert len(report[0].offsets) == 5

    # the resolvent's trace: one pass per GMRES matvec, far sums in the first
    applies = []
    apply = shell_ops._KernelSum.apply

    def counted_apply(op, *args, **kwargs):
        before = len(passes), len(far)
        out = apply(op, *args, **kwargs)
        if op.sheets is not None:
            applies.append((len(passes) - before[0], len(far) - before[1]))
        return out

    monkeypatch.setattr(shell_ops._KernelSum, "apply", counted_apply)
    mesh, vol, fv = resolvent_setup
    shell_resolvent_apply(SP, mesh, 0.5, "electrostatic", vol, fv,
                          np.array([[1.4, 0.3, 0.1]]))
    assert len(applies) > 10
    assert applies == [(1, 1)] + [(1, 0)] * (len(applies) - 1)


def gemvs(mat):
    """B and B^H applied through a dense matrix, for ``weighted_norm``."""
    return (lambda x: mat @ x), (lambda y: np.conj(np.conj(y) @ mat))


def test_norm_of_a_zero_operator_is_zero(monkeypatch):
    from scipy.sparse.linalg import ArpackError

    from deltashell import shell_ops

    def fails(*args, **kwargs):
        raise ArpackError(-9999)

    # a zero well squeezes to B_eps = 0, which maps the start vector to
    # exactly zero: its norm is 0 without ARPACK
    monkeypatch.setattr(shell_ops, "eigsh", fails)
    grid = make_operator_grid(build_mesh(sphere(1.0), 80),
                              factorize(square_well(0.0, 0.25)), m_nodes=3)
    zero = assemble_family(grid, SP, 0.05)["B"]
    assert not np.any(zero.matrix)
    assert zero.norm() == 0.0
    # any ARPACK failure raises
    with pytest.raises(ArpackError):
        shell_ops.weighted_norm(*gemvs(np.eye(40, dtype=complex)), np.ones(10))


@pytest.mark.parametrize("sign", [-1, 1])
def test_norm_keeps_every_digit_at_any_scale(dense_operators, sign):
    from deltashell.shell_ops import weighted_norm

    # the Gram operator squares the scale of B, so unscaled it underflows
    # below about 1e-154 and overflows above 1e+154
    op = dense_operators["C_sigma"]
    power = 2.0 ** (530 * sign)  # about 1e-160 or 1e+160, an exact scaling
    assert weighted_norm(*gemvs(power * op.matrix), op.weights) == (
        power * weighted_norm(*gemvs(op.matrix), op.weights))
    scale = 10.0 ** (300 * sign)
    ident = weighted_norm(*gemvs(scale * np.eye(40, dtype=complex)), np.ones(10))
    assert ident / scale == pytest.approx(1.0, rel=1e-12)


def test_trace_norm_is_reproducible(mesh320, grid80_m8):
    # the eigensolver behind norm() starts from a seeded vector, so
    # repeated calls agree to the bit, for C_sigma and B_eps alike
    for op in (cauchy_sigma(SP, mesh320), assemble_family(grid80_m8, SP, 0.05)["B"]):
        assert len({op.norm() for _ in range(3)}) == 1


@pytest.fixture(scope="module")
def dense_operators():
    """Dense B_eps on 80 nodes x M=3 (960 dofs) and C_sigma on 128 nodes."""
    uv = factorize(square_well(0.4, 0.25))
    grid = make_operator_grid(build_mesh(sphere(1.0), 80), uv, m_nodes=3)
    return {"B_eps": assemble_family(grid, SP, 0.0625)["B"],
            "C_sigma": cauchy_sigma(SP, build_mesh(sphere(1.0), 128))}


@pytest.mark.parametrize("name", ["B_eps", "C_sigma"])
def test_norm_matches_full_svd_of_scaled_matrix(dense_operators, name):
    op = dense_operators[name]
    sw = np.sqrt(np.repeat(op.weights, 4))
    scaled = op.matrix * (sw[:, None] / sw[None, :])
    want = np.linalg.svd(scaled, compute_uv=False)[0]
    assert abs(op.norm() - want) <= 1e-12 * want


def test_norm_copies_no_matrix(dense_operators):
    # a scaled copy or a conjugate transpose of the matrix would each
    # take matrix.nbytes; the norm's own vectors and ARPACK's basis are
    # a few percent of it.  The bound holds because the operator's
    # fields are evaluated when it is built, not inside norm(): they
    # alone are an eighth of matrix.nbytes (a quarter at a complex
    # branch).  op.matrix is read after tracemalloc stops, so the
    # matrix is never inside the measured peak
    op = dense_operators["B_eps"]
    tracemalloc.start()
    try:
        op.norm()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < op.matrix.nbytes / 10


def test_trace_refinement_rate(mesh320, mesh1280):
    probe = np.array([0.3, -1.0, 0.7j, 0.2], dtype=complex)
    vals = []
    for mesh in (mesh320, mesh1280, build_mesh(sphere(1.0), 2048)):
        got = cauchy_sigma_apply(SP, mesh, smooth_density(mesh))
        vals.append(np.sum(mesh.weights * (got @ probe)))
    diffs = [abs(vals[1] - vals[0]), abs(vals[2] - vals[1])]
    # node count quadruples per level, so the mesh size h halves
    rate = np.log2(diffs[0] / diffs[1])
    assert rate >= 0.95


# ---------------------------------------------------------------------------
# Plemelj jump relations


def test_plemelj_report_within_bounds(mesh320):
    rep = plemelj_check(SP, mesh320, smooth_density(mesh320))
    assert rep.max_rel_error < 5e-2
    assert rep.l2_rel_plus < 5e-2
    assert rep.l2_rel_minus < 5e-2
    assert rep.jump_identity_rel < 5e-2
    assert rep.average_identity_rel < 5e-2


def test_plemelj_jump_and_sum_identities(mesh1280):
    rep = plemelj_check(SP, mesh1280, smooth_density(mesh1280))
    # C+ - C- = -i (alpha.nu) g, independent of the trace term
    assert rep.jump_identity_rel < 1e-2
    # C+ + C- = 2 C_sigma g
    assert rep.average_identity_rel < 1e-2


def test_plemelj_eigenvector_density(mesh320):
    nus = alpha_dot(mesh320.normals)
    seed = np.array([0.7, -0.2, 0.4, 0.3j], dtype=complex)
    g = 0.5 * (seed[None, :] + np.einsum("kab,b->ka", nus, seed))
    jumped = np.einsum("kab,kb->ka", nus, g)
    # g sits in the +1 eigenspace of alpha.nu, so the jump equals g itself
    assert np.max(np.abs(jumped - g)) < 1e-13
    rep = plemelj_check(SP, mesh320, g)
    assert rep.jump_identity_rel < 5e-2


def test_plemelj_offset_window_guards(mesh320):
    g = constant_density(mesh320)
    res = float(np.sqrt(np.sum(mesh320.weights) / len(mesh320)))
    with pytest.raises(ValueError):
        plemelj_check(SP, mesh320, g, offsets=[0.5 * res])
    with pytest.raises(ValueError):
        plemelj_check(SP, mesh320, g, offsets=[0.4], eta=0.3)
    with pytest.raises(ValueError):
        plemelj_check(SP, mesh320, g, eta=1.01 * res)


def test_plemelj_default_offsets_stay_within_injectivity_budget(ellipsoid320):
    # the 320-node (1.3, 1, 0.8) ellipsoid: resolution 0.204 against a
    # budget of 0.197, so no default offset lies in (1.05 res, budget]
    budget = ELLIPSOID.injectivity_budget()
    res = float(np.sqrt(np.sum(ellipsoid320.weights) / len(ellipsoid320)))
    assert 1.05 * res > budget
    with pytest.raises(ValueError, match=f"injectivity budget {budget:.3e}.*"
                                         f"resolution {res:.3e}"):
        plemelj_check(SP, ellipsoid320, smooth_density(ellipsoid320))
    # a finer mesh finds its window below the budget
    fine = build_mesh(ELLIPSOID, 1280)
    rep = plemelj_check(SP, fine, smooth_density(fine), max_eval_nodes=16)
    assert max(rep.offsets) <= budget


# ---------------------------------------------------------------------------
# collar grid and squeezed family


def test_operator_grid_needs_two_transverse_nodes(mesh320):
    uv = factorize(square_well(0.4, 0.25))
    with pytest.raises(ValueError):
        make_operator_grid(mesh320, uv, m_nodes=1)


def test_grid_total_weight_is_twice_area(grid_m3):
    assert np.sum(grid_m3.scalar_weights()) == pytest.approx(
        2.0 * 4.0 * np.pi, rel=1e-11)


def test_coarea_weights_on_unit_sphere(grid_m3):
    det = grid_m3.mesh.coarea(0.3 * grid_m3.kv.nodes)
    expect = (1.0 + 0.3 * grid_m3.kv.nodes[None, :]) ** 2
    assert np.max(np.abs(det - expect)) < 1e-13


def test_b_eps_zero_potential_gives_zero(mesh320):
    uv = factorize(square_well(0.0, 0.25))
    grid = make_operator_grid(mesh320, uv, m_nodes=3)
    g = RNG.normal(size=(grid.n_nodes, 3, 4))
    assert np.all(b_eps_apply(grid, SP, 0.05, g) == 0.0)
    assert np.all(b_limit_apply(grid, SP, g) == 0.0)


@pytest.mark.parametrize("grid", ["sphere", "ellipsoid"])
def test_b_eps_dense_matches_matrix_free(grid, request):
    grid = request.getfixturevalue(
        {"sphere": "grid_m3", "ellipsoid": "ellipsoid_grid_m3"}[grid])
    g = RNG.normal(size=(grid.n_nodes, 3, 4)) * (1.0 + 0.5j)
    fam = assemble_family(grid, SP, 0.05)
    dense = (fam["B"].matrix @ g.ravel()).reshape(g.shape)
    free = b_eps_apply(grid, SP, 0.05, g)
    assert np.max(np.abs(dense - free)) < 1e-12


def test_b_limit_dense_matches_matrix_free(grid_m3):
    g = RNG.normal(size=(grid_m3.n_nodes, 3, 4)) * (1.0 - 0.3j)
    n = grid_m3.n_nodes
    # B_0 = u(t) C_sigma int v(s) . ds, composed from the dense trace
    trace = cauchy_sigma(SP, grid_m3.mesh).matrix.reshape(n, 4, n, 4)
    uv = np.outer(grid_m3.kv.u_vals, grid_m3.kv.v_vals * grid_m3.kv.weights)
    b0 = np.einsum("kalb,pq->kpalqb", trace, uv).reshape(
        4 * grid_m3.n_nodes * grid_m3.n_transverse, -1)
    dense = (b0 @ g.ravel()
             + bprime_direct(grid_m3) @ g.ravel()).reshape(g.shape)
    free = b_limit_apply(grid_m3, SP, g)
    assert np.max(np.abs(dense - free)) < 1e-12


def test_b_eps_tends_to_limit(grid_m3):
    from deltashell.shell_ops import default_separable_density

    g = default_separable_density(grid_m3)
    ref = b_limit_apply(grid_m3, SP, g)
    dists = [grid_norm(grid_m3, b_eps_apply(grid_m3, SP, e, g) - ref)
             for e in (0.05, 0.025, 0.0125)]
    assert dists[0] > dists[1] > dists[2]
    assert dists[0] / dists[1] > 1.5
    assert dists[1] / dists[2] > 1.5


def test_cell_moments_converge_on_ellipsoid(ellipsoid_grid_m3):
    from deltashell.shell_ops import default_separable_density

    # the cell moments use each node's own shifted curvatures and coarea
    # factors, so only a non-uniform surface tests them; the Plemelj half
    # starts at 1,280 nodes, as at 320 the default offsets find no window
    # inside the injectivity budget
    errs = []
    for n in (1280, 5120):
        mesh = build_mesh(ELLIPSOID, n)
        rep = plemelj_check(SP, mesh, smooth_density(mesh), max_eval_nodes=128)
        errs.append(rep.max_rel_error)
    assert errs[1] < errs[0] < 5e-2
    g = default_separable_density(ellipsoid_grid_m3)
    ref = b_limit_apply(ellipsoid_grid_m3, SP, g)
    dists = np.array([
        grid_norm(ellipsoid_grid_m3,
                  b_eps_apply(ellipsoid_grid_m3, SP, e, g) - ref)
        for e in (0.1, 0.05, 0.025, 0.0125)])
    assert np.all(dists[:-1] / dists[1:] >= 1.5)


def test_b_eps_norm_bound_for_small_well(grid80_m8):
    well = square_well(0.4, 0.25)
    assert is_delta_eta_small(well, 0.05)
    norms = [assemble_family(grid80_m8, SP, 0.25 / 2**k)["B"].norm()
             for k in (0, 3, 6)]
    assert max(norms) <= 1.0 / 3.0
    assert max(norms) <= 2.0 * norms[0]


def test_positive_eps_required(grid_m3):
    g = np.zeros((grid_m3.n_nodes, 3, 4))
    with pytest.raises(ValueError):
        b_eps_apply(grid_m3, SP, 0.0, g)
    with pytest.raises(ValueError):
        assemble_family(grid_m3, SP, -0.1)


def test_dense_dof_cap(mesh1280):
    uv = factorize(square_well(0.4, 0.25))
    grid = make_operator_grid(mesh1280, uv, m_nodes=8)
    with pytest.raises(ValueError):
        assemble_family(grid, SP, 0.05)


def test_kept_operator_cap_is_checked_once_before_any_field(
        grid80_m8, mesh320, monkeypatch):
    # ShellOperator holds the one check for both kept operators: the
    # error names the dofs and the cap, and no field is evaluated first
    from deltashell import shell_ops

    def evaluated(self):
        raise AssertionError("a field was evaluated")

    monkeypatch.setattr(shell_ops._KernelSum, "fields", evaluated)
    monkeypatch.setattr(shell_ops, "DENSE_DOF_CAP", 2556)
    with pytest.raises(ValueError, match="needs 2560 dofs, DENSE_DOF_CAP is 2556"):
        assemble_family(grid80_m8, SP, 0.05)
    monkeypatch.setattr(shell_ops, "DENSE_DOF_CAP", 1276)
    with pytest.raises(ValueError, match="needs 1280 dofs, DENSE_DOF_CAP is 1276"):
        cauchy_sigma(SP, mesh320)
    # at the cap the operator is built: its fields are evaluated
    monkeypatch.setattr(shell_ops, "DENSE_DOF_CAP", 1280)
    with pytest.raises(AssertionError, match="a field was evaluated"):
        cauchy_sigma(SP, mesh320)


def test_degenerate_shift_guard(grid80_m8):
    # node 1 moved to 5e-11 from node 0, with node 0's normal: every
    # collar point of node 1 then (nearly) coincides with one of node 0
    mesh = grid80_m8.mesh
    nodes, normals = mesh.nodes.copy(), mesh.normals.copy()
    nodes[1] = nodes[0] + 5e-11 * normals[0]
    normals[1] = normals[0]
    grid = dataclasses.replace(grid80_m8, mesh=dataclasses.replace(
        mesh, nodes=nodes, normals=normals))
    g = np.zeros((grid.n_nodes, grid.n_transverse, 4))
    with pytest.raises(DegenerateQuadrature, match="separated by"):
        b_eps_apply(grid, SP, 0.05, g)
    # the other collar readings sum no kernel between collar points
    a_eps_apply(grid, SP, 0.05, g, np.array([[0.0, 0.0, 3.0]]))


def test_disk_patch_odd_part_vanishes_on_surface():
    # the odd part is the axial factor times (i/2) alpha.nu: it must
    # vanish at zero height, whichever way the normal points, and flip
    # sign with the height
    rho = RNG.uniform(0.05, 1.5, size=5)
    for w in (SP.branch, 0.0):
        _, axial = _disk_moments(w, rho, 0.0)
        assert np.max(np.abs(axial)) < 1e-15
        _, up = _disk_moments(w, rho, 0.3)
        _, down = _disk_moments(w, rho, -0.3)
        assert np.max(np.abs(up + down)) < 1e-15
        assert np.min(np.abs(up)) > 0.0


# ---------------------------------------------------------------------------
# the sharp transverse operator B'


def test_bprime_routes_agree(grid80_m8):
    g = RNG.normal(size=(grid80_m8.n_nodes, 8, 4)) * (0.4 + 1j)
    free = bprime_apply(grid80_m8, g)
    dense = (bprime_direct(grid80_m8) @ g.ravel()).reshape(g.shape)
    assert np.max(np.abs(dense - free)) < 1e-13


def test_bprime_parity_for_even_profile(grid80_m8):
    # square well: u and v even, so B' of a t-constant density is odd in t
    # and its v-weighted transverse average vanishes
    g = np.broadcast_to(
        np.array([1.0, 0.2, -0.1, 0.5j], dtype=complex),
        (grid80_m8.n_nodes, 8, 4)).copy()
    out = bprime_apply(grid80_m8, g)
    flipped = out[:, ::-1, :]
    assert np.max(np.abs(out + flipped)) < 1e-14
    vavg = np.einsum("q,kqa->ka",
                     grid80_m8.kv.v_vals * grid80_m8.kv.weights, out)
    assert np.max(np.abs(vavg)) < 1e-14


def bprime_transverse_kernel(grid):
    sign = np.sign(grid.kv.nodes[:, None] - grid.kv.nodes[None, :])
    return 0.5j * (grid.kv.u_vals[:, None] * sign
                   * grid.kv.v_vals[None, :] * grid.kv.weights[None, :])


def test_bprime_eigenvalues_match_kv_singular_values(grid80_m8):
    kmat = bprime_transverse_kernel(grid80_m8)
    an = alpha_dot(grid80_m8.mesh.normals[0])
    ev = np.linalg.eigvals(np.kron(kmat, an))
    assert np.max(np.abs(ev.imag)) < 1e-12
    ev = np.sort(ev.real)
    assert np.max(np.abs(ev + ev[::-1])) < 1e-12
    # weighted singular values of the grid K_V
    sw = np.sqrt(grid80_m8.kv.weights)
    sig = np.linalg.svd(kmat.imag * (sw[:, None] / sw[None, :]),
                        compute_uv=False)
    top = np.max(np.abs(ev))
    assert top == pytest.approx(np.max(sig), rel=1e-10)
    # and the module-level K_V operator agrees on the top singular value
    kv = build_kv(factorize(square_well(0.4, 0.25)), 128)
    swc = np.sqrt(kv.weights)
    sig_mod = np.linalg.svd(kv.matrix * (swc[:, None] / swc[None, :]),
                            compute_uv=False)
    assert np.max(sig) == pytest.approx(np.max(sig_mod), rel=5e-2)


def test_uv_reduction_recovers_coupling_scalar(grid80_m8):
    kmat = bprime_transverse_kernel(grid80_m8)
    m = grid80_m8.n_transverse
    an = alpha_dot(grid80_m8.mesh.normals[0])
    blk = np.kron(kmat, an)
    uhat = np.kron(grid80_m8.kv.u_vals[:, None], np.eye(4))
    vhat = np.kron((grid80_m8.kv.v_vals * grid80_m8.kv.weights)[None, :],
                   np.eye(4))
    sandwich = vhat @ np.linalg.solve(np.eye(4 * m) + blk, uhat)
    x = np.linalg.solve(np.eye(m) - kmat @ kmat,
                        grid80_m8.kv.u_vals.astype(complex))
    s0 = np.sum(grid80_m8.kv.v_vals * grid80_m8.kv.weights * x)
    s1 = np.sum(grid80_m8.kv.v_vals * grid80_m8.kv.weights * (kmat @ x))
    expect = s0 * np.eye(4) - s1 * an
    assert np.max(np.abs(sandwich - expect)) < 1e-10
    # s0 is the coupling integral; tan closed form for the square well
    assert abs(s0.imag) < 1e-12
    assert s0.real == pytest.approx(2.0 * np.tan(0.05), abs=1e-3)


# ---------------------------------------------------------------------------
# ambient families A and C


def far_ring():
    return np.array([[2.0, 0.0, 0.0], [0.0, -2.0, 0.0], [0.0, 1.5, 1.5],
                     [-1.8, 0.4, 0.9]])


def test_a_eps_far_field_first_order(grid_m3):
    from deltashell.shell_ops import default_separable_density

    g = default_separable_density(grid_m3)
    pts = far_ring()
    ref = a_eps_apply(grid_m3, SP, 0.0, g, pts)
    eps = np.array([0.1, 0.05, 0.025, 0.0125])
    errs = np.array([np.linalg.norm(a_eps_apply(grid_m3, SP, e, g, pts) - ref)
                     for e in eps])
    slope = np.polyfit(np.log(eps), np.log(errs), 1)[0]
    assert slope >= 0.8


def test_negative_collar_width_is_refused(grid_m3):
    # eps = 0 is the limit; below it the points and the source weights
    # would disagree on the width
    g = RNG.normal(size=(grid_m3.n_nodes, 3, 4)) + 0j
    vol = ball_grid(0.3, nr=4, ntheta=4, nphi=6)
    fv = RNG.normal(size=(len(vol), 4)) + 0j
    with pytest.raises(ValueError, match="negative"):
        a_eps_apply(grid_m3, SP, -0.05, g, far_ring())
    with pytest.raises(ValueError, match="negative"):
        c_eps_apply(grid_m3, SP, -0.05, vol, fv)


# ---------------------------------------------------------------------------
# strong convergence experiment


def test_strong_convergence_zero_density(grid_m3, monkeypatch):
    from deltashell import shell_ops

    monkeypatch.setattr(shell_ops, "default_separable_density",
                        lambda grid: np.zeros((grid.n_nodes, 3, 4)))
    monkeypatch.setattr(shell_ops, "default_volume_density",
                        lambda volume: np.zeros((len(volume), 4)))
    table = strong_convergence_experiment(grid_m3, SP, [0.1, 0.05])
    for row in table.rows:
        assert row.norm_b == 0.0
        assert row.norm_a == 0.0
        assert row.norm_c == 0.0
        assert row.floor_flag


def test_strong_convergence_halving_ratios(grid_m3):
    table = strong_convergence_experiment(
        grid_m3, SP, [0.1, 0.05, 0.025, 0.0125])
    norms = np.array([[r.norm_b, r.norm_a, r.norm_c] for r in table.rows])
    ratios = norms[:-1] / norms[1:]
    assert np.all(ratios >= 1.5)
    assert not any(r.floor_flag for r in table.rows)


def test_convergence_table_csv_format(grid_m3):
    table = strong_convergence_experiment(grid_m3, SP, [0.1, 0.05])
    text = table.csv()
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["epsilon", "norm_B", "norm_A", "norm_C", "floor_flag"]
    assert len(rows) == 3
    assert float(rows[1][0]) == 0.1
    assert rows[1][4] in ("0", "1")


def test_strong_convergence_rejects_bad_eps(grid_m3):
    with pytest.raises(ValueError):
        strong_convergence_experiment(grid_m3, SP, [0.1, -0.05])
    with pytest.raises(ValueError, match="positive"):
        strong_convergence_experiment(grid_m3, SP, [])
    with pytest.raises(ValueError, match="distinct"):
        strong_convergence_experiment(grid_m3, SP, [0.1, 0.1])


def test_budget_is_checked_before_the_limits(grid_m3, monkeypatch):
    from deltashell import shell_ops

    def no_limit(*args):
        raise AssertionError("an eps -> 0 limit was built before the budget check")

    monkeypatch.setattr(shell_ops, "b_limit_apply", no_limit)
    wide = 1.01 * grid_m3.mesh.surface.injectivity_budget()
    with pytest.raises(ValueError, match="injectivity budget"):
        strong_convergence_experiment(grid_m3, SP, [0.05, wide])


def test_collar_past_the_injectivity_budget_is_rejected(ellipsoid_grid_m3):
    from deltashell.shell_ops import default_separable_density

    # 0.4 / max|curvature| = 0.197 on the (1.3, 1, 0.8) ellipsoid
    grid = ellipsoid_grid_m3
    eps = 1.01 * grid.mesh.surface.injectivity_budget()
    g = default_separable_density(grid)
    with pytest.raises(ValueError, match="injectivity budget"):
        b_eps_apply(grid, SP, eps, g)
    with pytest.raises(ValueError, match="injectivity budget"):
        assemble_family(grid, SP, eps)


# run under ``python -O``, where a bare assert would be stripped
GROWING_B_EPS = """
from deltashell import CheckFailed, shell_ops as so
from deltashell.dirac_algebra import SpectralParameter
from deltashell.geometry import build_mesh, sphere
from deltashell.potential import factorize, square_well

if __debug__:
    raise SystemExit("asserts are live; expected python -O")
grid = so.make_operator_grid(build_mesh(sphere(1.0), 80),
                             factorize(square_well(0.4, 0.25)), 2)
sp = SpectralParameter(1j, 1.0)
limit = so.b_limit_apply
# a B_eps that moves away from its limit as eps shrinks
so.b_eps_apply = lambda grid, sp, eps, g: limit(grid, sp, g) + 1.0 / eps
try:
    so.strong_convergence_experiment(grid, sp, [0.1, 0.05])
except CheckFailed as exc:
    print("CheckFailed:", exc)
"""


def test_convergence_check_survives_optimized_python():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, "-O", "-c", GROWING_B_EPS],
                          capture_output=True, text=True, env=env,
                          timeout=600)
    assert done.returncode == 0, done.stderr
    assert "CheckFailed: norm column 0 increased before the floor" in done.stdout


# ---------------------------------------------------------------------------
# resolvent of the shell Hamiltonian


@pytest.fixture(scope="module")
def resolvent_setup(mesh320):
    vol = ball_grid(0.3, nr=8, ntheta=8, nphi=12)
    spinor = np.array([0.8, -0.2, 0.1j, 0.5], dtype=complex)
    fv = np.exp(-np.sum(vol.points**2, axis=1) / 0.08)[:, None] * spinor
    return mesh320, vol, fv


def test_resolvent_zero_coupling_is_free(resolvent_setup):
    mesh, vol, fv = resolvent_setup
    pts = np.array([[0.55, 0.1, -0.2], [1.4, 0.3, 0.1]])
    out = shell_resolvent_apply(SP, mesh, 0.0, "electrostatic", vol, fv, pts)
    blocks = phi_a(SP, (pts[:, None, :] - vol.points[None, :, :]).reshape(-1, 3))
    blocks = blocks.reshape(len(pts), len(vol), 4, 4)
    free = np.einsum("ijab,jb->ia", blocks, fv * vol.weights[:, None])
    assert np.max(np.abs(out - free)) < 1e-13


def test_resolvent_finite_difference_defect(resolvent_setup):
    mesh, vol, fv = resolvent_setup
    x0 = np.array([0.55, 0.1, -0.2])
    h = 1e-3
    pts = [x0]
    for i in range(3):
        for s in (1.0, -1.0):
            step = np.zeros(3)
            step[i] = s * h
            pts.append(x0 + step)
    for lam, kind in ((0.5, "electrostatic"), (0.8, "scalar")):
        u = shell_resolvent_apply(SP, mesh, lam, kind, vol, fv, np.array(pts))
        grad = [(u[1 + 2 * i] - u[2 + 2 * i]) / (2.0 * h) for i in range(3)]
        hu = -1j * sum(ALPHA[i] @ grad[i] for i in range(3))
        hu = hu + SP.m * (BETA @ u[0])
        defect = hu - SP.a * u[0]
        scale = np.linalg.norm(hu) + np.linalg.norm(SP.a * u[0])
        assert np.linalg.norm(defect) / scale < 1e-2


def test_resolvent_kinds_converge_at_weak_coupling(resolvent_setup):
    mesh, vol, fv = resolvent_setup
    pts = np.array([[0.55, 0.1, -0.2], [1.4, 0.3, 0.1]])
    lams = np.array([0.4, 0.2, 0.1])
    diffs = []
    for lam in lams:
        re = shell_resolvent_apply(SP, mesh, lam, "electrostatic", vol, fv, pts)
        rs = shell_resolvent_apply(SP, mesh, lam, "scalar", vol, fv, pts)
        diffs.append(np.linalg.norm(re - rs))
    diffs = np.array(diffs)
    assert diffs[0] > diffs[1] > diffs[2]
    slope = np.polyfit(np.log(lams), np.log(diffs), 1)[0]
    assert slope >= 0.9


def test_resolvent_near_critical_coupling(resolvent_setup):
    mesh, vol, fv = resolvent_setup
    pts = np.array([[1.4, 0.3, 0.1]])
    for lam in (1.96, -2.04):
        with pytest.raises(NearCriticalCoupling):
            shell_resolvent_apply(SP, mesh, lam, "electrostatic", vol, fv, pts)
    # the scalar shell has no critical window there
    shell_resolvent_apply(SP, mesh, 1.96, "scalar", vol, fv, pts)


def test_eps_to_zero_limit_is_the_shell_at_the_grids_coupling(mesh320):
    # R_0 F = Phi F - A_0 (I + B_0 + B')^-1 C_0 F.  Since (alpha.nu)^2 = 1,
    # Woodbury's identity makes it the shell resolvent at
    # lam_M = sum v w (I + J_M^2)^-1 u, with J_M[p, q] =
    # u_p sign(t_p - t_q) v_q w_q / 2 the grid's own transverse rule, read
    # by the 1D coupling engine
    sp = SpectralParameter(0.5j, 1.0)
    uv = factorize(square_well(4.0, 0.25))
    grid = make_operator_grid(mesh320, uv, 4)
    # J_M written out by hand: the grid's J is pinned to it, so the
    # identity below does not rest on the program's own J
    t, w = np.polynomial.legendre.leggauss(4)
    u, v = uv.u(t), uv.v(t)
    jm = 0.5 * u[:, None] * np.sign(t[:, None] - t[None, :]) * (v * w)[None, :]
    assert np.max(np.abs(grid.kv.matrix - jm)) <= 1e-15 * np.max(np.abs(jm))
    lam_m = lambda_electrostatic(grid.kv).lambda_e
    assert lam_m == pytest.approx(1.0841014762, abs=1e-10)

    volume = ball_grid(0.5, nr=6, ntheta=6, nphi=10)
    f_vals = default_volume_density(volume)
    dirs = np.array([[1.0, 0.2, -0.3], [-0.4, 1.0, 0.5], [0.3, -0.6, 1.0],
                     [-1.0, -0.5, 0.2], [0.6, 0.7, -0.8], [-0.2, 0.3, -1.0]])
    # radii clear of the mesh resolution, 0.198, on both sides of the shell
    pts = (np.array([0.22, 0.45, 0.7, 1.5, 2.0, 2.5])[:, None]
           * dirs / np.linalg.norm(dirs, axis=1)[:, None])
    rhs = c_eps_apply(grid, sp, 0.0, volume, f_vals).ravel()
    system = LinearOperator((rhs.size, rhs.size), dtype=complex, matvec=lambda x:
                            x + b_limit_apply(grid, sp, x).ravel())
    x, info = gmres(system, rhs, rtol=1e-12, atol=0.0, restart=200, maxiter=1)
    assert info == 0
    vhat = np.einsum("q,kqa->ka", v * w, x.reshape(grid.n_nodes, -1, 4))
    r_0 = layer_potential(sp, mesh320, pts, -vhat, volume, f_vals)

    def shell(lam):
        return shell_resolvent_apply(sp, mesh320, lam, "electrostatic",
                                     volume, f_vals, pts)

    effective = shell(effective_coupling(1.0, "electrostatic"))
    scale = np.linalg.norm(
        effective - layer_potential(sp, mesh320, pts, None, volume, f_vals))
    assert np.linalg.norm(r_0 - shell(lam_m)) <= 1e-10 * scale
    # 2 tan(1/2) is the limit of lam_M in M, not lam_M: a Woodbury step
    # that lost the grid's rule would read this gap
    assert 1e-2 < np.linalg.norm(r_0 - effective) / scale < 1.5e-2


def phi_sum(sp, x, y, coeff):
    """sum_j phi_a(x_i - y_j) coeff_j by explicit 4x4 blocks, 32 rows at a time."""
    return np.concatenate([np.einsum("ijab,jb->ia", phi_a(
        sp, (x[lo:lo + 32, None] - y[None]).reshape(-1, 3)).reshape(
            -1, len(y), 4, 4), coeff) for lo in range(0, len(x), 32)])


@pytest.mark.parametrize("kind", ["electrostatic", "scalar"])
def test_resolvent_matches_dense_oracle(resolvent_setup, kind):
    # the oracle: the dense trace matrix solved directly, and every sum
    # over phi_a blocks; the resolvent solves by GMRES on the apply
    lam = {"electrostatic": 2.0 * np.tan(0.5), "scalar": 2.0 * np.tanh(-0.5)}[kind]
    mesh, vol, fv = resolvent_setup
    n = len(mesh)
    pts = np.array([[0.55, 0.1, -0.2], [1.4, 0.3, 0.1], [0.0, -1.6, 0.5]])
    coeff = fv * vol.weights[:, None]
    trace = phi_sum(SP, mesh.nodes, vol.points, coeff)
    carrier = (np.eye(4 * n) if kind == "electrostatic"
               else np.kron(np.eye(n), BETA))
    density = np.linalg.solve(carrier + lam * cauchy_sigma(SP, mesh).matrix,
                              trace.ravel()).reshape(n, 4)
    want = (phi_sum(SP, pts, vol.points, coeff) - lam * phi_sum(
        SP, pts, mesh.nodes, density * mesh.weights[:, None]))
    got = shell_resolvent_apply(SP, mesh, lam, kind, vol, fv, pts)
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


def test_resolvent_unreachable_tolerance_hits_guard(resolvent_setup,
                                                    monkeypatch):
    import deltashell.shell_ops as so

    mesh, vol, fv = resolvent_setup
    pts = np.array([[1.4, 0.3, 0.1]])
    # no residual in double precision reaches 1e-30: GMRES takes every
    # step it is allowed and stops short
    monkeypatch.setattr(so, "RESOLVENT_RTOL", 1e-30)
    with pytest.raises(SingularBoundaryInverse,
                       match=r"after 200 of 200 steps at relative residual "
                             r"\d\.\d{3}e-\d+, above its tolerance "
                             r"RESOLVENT_RTOL = 1e-30"):
        shell_resolvent_apply(SP, mesh, 0.5, "electrostatic", vol, fv, pts)


def test_resolvent_exactly_singular_system_hits_guard(resolvent_setup,
                                                       monkeypatch):
    import deltashell.shell_ops as so

    mesh, vol, fv = resolvent_setup
    pts = np.array([[1.4, 0.3, 0.1]])

    class MinusIdentity:
        def apply(self, g):
            return -np.asarray(g, dtype=complex).reshape(-1, 4)

    # lam = 1 against C = -I: the system I + lam C is exactly 0
    monkeypatch.setattr(so, "_trace_op", lambda sp, mesh: MinusIdentity())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularBoundaryInverse,
                           match="after 1 of 200 steps at relative residual "
                                 "1.000e[+]00"):
            shell_resolvent_apply(SP, mesh, 1.0, "electrostatic", vol, fv, pts)


def test_resolvent_rejects_near_surface_point(resolvent_setup, monkeypatch):
    import deltashell.shell_ops as so

    mesh, vol, fv = resolvent_setup
    # one point clear of the shell, one just outside a mesh node
    pts = np.array([[1.4, 0.3, 0.1], 1.01 * mesh.nodes[0]])

    def no_boundary_system(*args):
        raise AssertionError("boundary system built before the point guard")

    monkeypatch.setattr(so, "_trace_op", no_boundary_system)
    for lam in (0.0, 0.5):
        with pytest.raises(PointTooCloseToSurface):
            shell_resolvent_apply(SP, mesh, lam, "electrostatic", vol, fv, pts)


def test_resolvent_kind_validation(resolvent_setup):
    mesh, vol, fv = resolvent_setup
    with pytest.raises(ValueError):
        shell_resolvent_apply(SP, mesh, 0.5, "magnetic", vol, fv,
                              np.array([[1.4, 0.3, 0.1]]))


@pytest.mark.parametrize("lam", [np.nan, np.inf])
def test_resolvent_refuses_a_non_finite_coupling(resolvent_setup, monkeypatch,
                                                 lam):
    import deltashell.shell_ops as so

    mesh, vol, fv = resolvent_setup

    def no_boundary_system(*args):
        raise AssertionError("boundary system built before the coupling check")

    monkeypatch.setattr(so, "_trace_op", no_boundary_system)
    for kind in ("electrostatic", "scalar"):
        with pytest.raises(ValueError, match="lam must be finite"):
            shell_resolvent_apply(SP, mesh, lam, kind, vol, fv,
                                  np.array([[1.4, 0.3, 0.1]]))
