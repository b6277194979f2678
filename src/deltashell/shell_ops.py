"""Singular boundary operators for delta-shell interactions.

Discretizes the layer potential, the boundary trace operator, and the
squeezed operator family on a tubular collar around a closed surface.
Everything is built on top of the fundamental solution in
:mod:`deltashell.dirac_algebra` and the surface quadrature in
:mod:`deltashell.geometry`.

Grid functions live on the tensor grid (surface node) x (transverse
Gauss node) x (spinor component) and are stored as complex arrays of
shape ``(N, M, 4)``.  All operator norms are taken in the weighted L2
sense induced by the quadrature weights.

Each operator is defined once, as a ``_KernelSum``: its points, weights
and, for the trace and the squeezed family, the parallel sheets its
sources lie on, with the closed-form cells under them.  The program
reads it by the apply, which sums the kernel's two scalar fields by
matmuls; the dense matrix of its 4x4 blocks is only an oracle, written
from the same passes.  One chunk loop, ``_kernel_blocks``, evaluates
the kernel's fields for every reading, in blocks of rows of about
``CHUNK_BYTES``; it hands out the pair differences as three contiguous
planes, one per component, and their lengths, formed once.  An apply
streams the fields and keeps nothing; a ``ShellOperator``, whose ARPACK
norm applies the operator and its adjoint 21 to 31 times, keeps them,
evaluated once, in four whole arrays, and also reads the adjoint from
them.  The singular cells use
an analytically integrated flat-disk model: each surface node owns a
disk of equal area, and the odd (Riesz) part of the kernel integrates
to zero over the disk at zero offset, which is the principal-value
convention.  ``_cell_block`` gives that cell over one sheet, from any
number of heights, corrected by punctured far sums over the same pairs
as the operator's own sums on that sheet.  So a reading makes one
kernel pass per sheet, which serves both: the trace's sources are one
sheet, the squeezed family's M, and the first reading of an operator
finishes its cells, which later readings reuse.  A cell need
not sit under its own source points: one trace ``_trace_op`` reads any
rows at any heights over them, and at +-h it gives the one-sided limits
of the Plemelj check.  ``spinor_blocks`` writes every Dirac block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Sequence

import numpy as np
from scipy.sparse.linalg import LinearOperator, eigsh, gmres
from scipy.spatial import cKDTree

from . import CheckFailed
from .coupling import KVOperator, gauss_kv, require_kind
from .dirac_algebra import (ALPHA, BETA, I4, SpectralParameter, alpha_dot,
                            kernel_fields, phi_a, spinor_blocks)
from .geometry import SurfaceMesh
from .potential import UVFactorization

CRITICAL_WINDOW = 0.05
#: relative residual the shell resolvent's boundary solve must reach
RESOLVENT_RTOL = 1e-12
#: relative tolerance on sigma^2 in ``weighted_norm``; it bounds
#: sigma to about half of it
NORM_TOL = 1e-12
#: dofs up to which a ``ShellOperator`` is built: its kept fields take 32
#: or 64 bytes a pair of points (0.54 or 1.07 GB at the cap), its dense
#: oracle, built only when read, from the operator's own passes, 256
#: bytes a pair (4.3 GB)
DENSE_DOF_CAP = 16384
COINCIDENCE_TOL = 1e-10
MIN_TRACE_NODES = 128


class PointTooCloseToSurface(ValueError):
    """Evaluation point is inside the quadrature resolution of the mesh."""


class DegenerateQuadrature(ValueError):
    """Two shifted quadrature points (nearly) coincide."""


class NearCriticalCoupling(ValueError):
    """Electrostatic coupling too close to the critical values +2 or -2."""


class SingularBoundaryInverse(ValueError):
    """Boundary system is numerically singular."""


# ---------------------------------------------------------------------------
# volume quadrature


@dataclass(frozen=True)
class VolumeGrid:
    """Quadrature rule for a compactly supported ambient density."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        wts = np.asarray(self.weights, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3 or wts.shape != (pts.shape[0],):
            raise ValueError("points must be (Q, 3) with matching weights")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", wts)

    def __len__(self) -> int:
        return self.points.shape[0]


def ball_grid(radius: float, nr: int = 8, ntheta: int = 8, nphi: int = 16,
              center: Sequence[float] = (0.0, 0.0, 0.0)) -> VolumeGrid:
    """Gauss quadrature on a solid ball in spherical coordinates.

    Radial and polar directions use Gauss-Legendre nodes, the azimuth a
    uniform (trapezoidal) rule, which is exact for trigonometric
    polynomials.  Smooth integrands converge spectrally.
    """
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    xr, wr = np.polynomial.legendre.leggauss(nr)
    r = 0.5 * radius * (xr + 1.0)
    wr = 0.5 * radius * wr
    xc, wc = np.polynomial.legendre.leggauss(ntheta)
    phi = 2.0 * np.pi * np.arange(nphi) / nphi
    wphi = 2.0 * np.pi / nphi
    sin_t = np.sqrt(1.0 - xc ** 2)
    x = r[:, None, None] * sin_t[None, :, None] * np.cos(phi)[None, None, :]
    y = r[:, None, None] * sin_t[None, :, None] * np.sin(phi)[None, None, :]
    z = r[:, None, None] * xc[None, :, None] * np.ones_like(phi)[None, None, :]
    pts = np.stack([x.ravel(), y.ravel(), z.ravel()], axis=1) + np.asarray(center, dtype=float)
    wts = (r[:, None, None] ** 2 * wr[:, None, None]
           * wc[None, :, None] * wphi * np.ones_like(phi)[None, None, :]).ravel()
    return VolumeGrid(pts, wts)


# ---------------------------------------------------------------------------
# kernel sums


#: transient bytes per chunk of a kernel sum: small enough that a chunk's
#: arrays stay in cache and reuse the memory the previous chunk freed
CHUNK_BYTES = 4e6


def _kernel_blocks(sp: SpectralParameter, x: np.ndarray, y: np.ndarray,
                   use, owners: tuple | None = None) -> None:
    """Pass the kernel to ``use`` one block of rows of ``x`` at a time.

    Calls ``use(lo, hi, diff, kernel, r)`` for the rows lo..hi, with
    ``diff[i, j] = x_i - y_j`` of shape (hi - lo, ny, 3): a transposed
    view of three contiguous (hi - lo, ny) planes, so each component
    ``diff[..., c]`` is contiguous, and ``r = |diff|``, formed once per
    block for the kernel and for the flat kernel of the cell rule's far
    sums.  The kernel is evaluated once per block, as the pair of scalar
    fields ``(pref, odd)`` of :func:`kernel_fields`, each (hi - lo, ny):
    phi_a(x_i - y_j) = pref_ij (a + m beta) + odd_ij i alpha.diff_ij, so
    a sum over phi_a is two scalar sums, with no 4x4 block.  With
    ``owners = (x_owner, y_owner)``, a pair whose owners match has x over
    the surface cell of y: its fields are zero and its ``diff`` and ``r``
    are arbitrary, for the caller to fill with the cell's closed form.
    Only :meth:`_KernelSum.fields` keeps anything of a block.  A block's
    rows are sized at 128 bytes a pair, about ``CHUNK_BYTES``; of that,
    ``diff`` takes 24 bytes a pair, ``r`` 8 and the two fields 16 (32 at
    a complex branch).
    """
    nx, ny = x.shape[0], y.shape[0]
    rows = max(1, int(CHUNK_BYTES // (max(ny, 1) * 128)))
    xt, yt = np.ascontiguousarray(x.T), np.ascontiguousarray(y.T)
    for lo in range(0, nx, rows):
        hi = min(lo + rows, nx)
        planes = xt[:, lo:hi, None] - yt[:, None, :]
        if owners is not None:
            cell = owners[0][lo:hi, None] == owners[1][None, :]
            # any point off the singularity: zeroed below
            np.copyto(planes, 1.0, where=cell)
        diff = planes.transpose(1, 2, 0)
        r = np.sqrt(planes[0] ** 2 + planes[1] ** 2 + planes[2] ** 2)
        kernel = kernel_fields(sp, diff, r)
        if owners is not None:
            for part in kernel:
                part[cell] = 0.0
        use(lo, hi, diff, kernel, r)
        del planes, diff, kernel, r  # freed before the next block is built


def _field_stack(diff: np.ndarray, kernel: tuple):
    """The four fields pref, odd (x - y)_0, odd (x - y)_1, odd (x - y)_2.

    A generator, so a streamed sum holds one of them at a time; each
    product reads a contiguous plane of ``diff``.
    """
    pref, odd = kernel
    yield pref
    for c in range(3):
        yield odd * diff[..., c]


@dataclass(frozen=True)
class _KernelSum:
    """One shell operator: g -> row_i sum_j phi_a(x_i - y_j) col_j g_j.

    ``col`` holds the source weights and ``row`` (optional) a factor per
    row.  With ``sheets = (mesh, rows, shifts, heights, scale)`` the
    sources lie on Q parallel sheets: y point Q j + q is node j of
    ``mesh.sheet(shifts[q])``.  The points of ``x`` form K consecutive
    groups of P, group k over node ``rows[k]``, and from sheet q point p
    of it sits at ``heights[q, p]`` over that node.  A pair of group k
    and node rows[k] takes a closed-form cell block in place of the
    kernel: :attr:`cells`, ``(rows, blocks)``, blocks (K, P, Q, 4, 4),
    entry q of blocks[k] the :func:`_cell_block` of sheet q, times
    ``scale[q]`` unless ``scale`` is None, which carries its column
    weights.

    Every reading goes through :func:`_kernel_blocks`, in one pass per
    sheet (:meth:`_passes`); the first reading's passes are the cell
    rule's, whose far sums read the same blocks, and finish the cells
    for every later one.  Since phi_a is pref (a + m beta) + odd i
    alpha.x, :meth:`apply` forms no 4x4 block: per block of rows it sums
    the four scalar fields F_k, pref and odd (x_i - y_j)_c, against the
    weighted density, four (rows, n) @ (n, 4) matmuls a sheet, and
    multiplies the four sums by E_0 = a + m beta and E_c = i alpha_c
    once at the end.  It streams the fields, or replays the same matmuls
    on the blocks that :meth:`fields` stored, for a caller that applies
    the operator many times; from those :meth:`adjoint` applies B^H
    without a second evaluation.  :meth:`matrix`, an oracle, reads the
    same passes and writes phi_a of their pair differences into a dense
    matrix.  All add the cells after the passes, which finish them.
    """

    sp: SpectralParameter
    x: np.ndarray
    y: np.ndarray
    col: np.ndarray
    row: np.ndarray | None = None
    sheets: tuple | None = None
    # the cell blocks, once the first reading's passes have made them
    finished: list = field(default_factory=list, init=False, repr=False)

    @property
    def cells(self) -> tuple | None:
        """``(owner, blocks)`` of the sheets, or None without them.

        Read after a reading's passes, which finish the blocks.
        """
        return None if self.sheets is None else (self.sheets[1], self.finished[0])

    def _sheet_count(self) -> int:
        return 1 if self.sheets is None else self.sheets[2].size

    def _passes(self, use) -> None:
        """One kernel pass per sheet, each block to ``use(q, *block)``.

        ``block`` is ``(lo, hi, diff, kernel, r)`` of
        :func:`_kernel_blocks` for rows lo..hi against the nodes of sheet
        q.  Without sheets there is one pass, of x against y.  Sheet q's
        pass reads the points over its cells (:func:`_over_cells`): the
        bits of x for the trace, x up to rounding for B_eps, whose points
        are built from each sheet.  Until the cells are finished, the
        passes are :func:`_cell_block`'s.
        """
        if self.sheets is None:
            return _kernel_blocks(self.sp, self.x, self.y, partial(use, 0))
        mesh, rows, shifts, heights, scale = self.sheets
        cells = None if self.finished else np.empty(
            rows.shape + heights.T.shape + (4, 4), dtype=complex)
        for q, (shift, over) in enumerate(zip(shifts, heights)):
            if cells is None:
                pts, src, owners = _over_cells(mesh, rows, shift, over)
                _kernel_blocks(self.sp, pts, src, partial(use, q), owners)
                continue
            cell = _cell_block(self.sp, mesh, rows, shift, over, partial(use, q))
            cells[:, :, q] = cell if scale is None else scale[q] * cell
        if cells is not None:  # published only when every sheet is done
            self.finished.append(cells)

    def fields(self) -> list:
        """The four fields of every block of rows, evaluated once.

        A list of ``(lo, hi, stack)``, ``stack`` the four (hi - lo, ny)
        fields of :func:`_field_stack`, zero over the cells: row views
        of four whole (nx, ny) arrays, one per field, allocated with the
        first block, so the heap holds four arrays, not four per block.
        Their columns run sheet by sheet, the n = ny / Q nodes of sheet
        q at q n, and the blocks are those of a pass against all of y.
        32 bytes a pair where the decay branch is real, 64 where it is
        complex.
        """
        nx, ny = self.x.shape[0], self.y.shape[0]
        whole = []

        def keep(q: int, lo: int, hi: int, diff: np.ndarray, kernel: tuple,
                 r: np.ndarray) -> None:
            for k, f in enumerate(_field_stack(diff, kernel)):
                if len(whole) == k:
                    whole.append(np.empty((nx, ny), f.dtype))
                # sheet q's n nodes are the columns q n .. (q + 1) n
                whole[k][lo:hi].reshape(hi - lo, -1, f.shape[1])[:, q] = f

        self._passes(keep)
        rows = max(1, int(CHUNK_BYTES // (ny * 128)))  # a full-width pass's
        return [(lo, min(lo + rows, nx), tuple(w[lo:lo + rows] for w in whole))
                for lo in range(0, nx, rows)]

    def apply(self, g: np.ndarray, fields: list | None = None) -> np.ndarray:
        """The operator applied to a density of shape (ny, 4), as (nx, 4).

        Streams the kernel, or reads the blocks of :meth:`fields`; the
        two give the same bits: both sum each sheet's matmul, in sheet
        order, and a row's bits do not depend on its block.
        """
        gv = np.asarray(g, dtype=complex).reshape(-1, 4)
        # coeff[q]: the weighted density on sheet q
        coeff = (gv * self.col[:, None]).reshape(
            -1, self._sheet_count(), 4).swapaxes(0, 1)
        # sums[k] pairs with E_k
        sums = np.zeros((4, self.x.shape[0], 4), dtype=complex)

        def add(lo: int, hi: int, stack, sheets: slice) -> None:
            for k, f in enumerate(stack):
                # the (hi - lo, n) fields of each sheet, summed in sheet order
                f = f.reshape(hi - lo, -1, coeff.shape[1]).swapaxes(0, 1)
                # a real field meets the real views: a real @ complex
                # matmul would first copy the field to complex
                if np.iscomplexobj(f):
                    sums[k, lo:hi] += (f @ coeff[sheets]).sum(0)
                else:
                    sums.view(float)[k, lo:hi] += (
                        f @ coeff.view(float)[sheets]).sum(0)

        if fields is None:
            self._passes(lambda q, lo, hi, diff, kernel, r: add(
                lo, hi, _field_stack(diff, kernel), slice(q, q + 1)))
        else:
            for lo, hi, stack in fields:
                add(lo, hi, stack, slice(None))
        out = sum(s @ e.T for s, e in zip(sums, self._spinors()))
        if self.cells is not None:
            owner, cell = self.cells
            out += np.einsum("kpqab,kqb->kpa", cell, gv.reshape(
                -1, cell.shape[2], 4)[owner]).reshape(-1, 4)
        return out if self.row is None else out * self.row[:, None]

    def adjoint(self, y: np.ndarray, fields: list) -> np.ndarray:
        """B^H applied to (nx, 4), as (ny, 4), from the blocks of :meth:`fields`.

        B^H y = col sum_k E_k^H (F_k^H (row y)), plus each cell block
        conjugate-transposed and scattered back to its owner's points.
        """
        z = np.array(y, dtype=complex).reshape(-1, 4)  # contiguous: real views
        if self.row is not None:
            z *= self.row[:, None]
        sums = np.zeros((4, self.y.shape[0], 4), dtype=complex)
        for lo, hi, stack in fields:
            for k, f in enumerate(stack):
                if np.iscomplexobj(f):  # conj(F)^T z = conj(F^T conj(z))
                    sums[k] += np.conj(f.T @ np.conj(z[lo:hi]))
                else:
                    sums.view(float)[k] += f.T @ z[lo:hi].view(float)
        out = sum(s @ np.conj(e) for s, e in zip(sums, self._spinors()))
        # the kept columns run sheet by sheet, y's points cell by cell
        out = out.reshape(self._sheet_count(), -1, 4).swapaxes(0, 1).reshape(-1, 4)
        out *= self.col[:, None]
        if self.cells is not None:
            owner, cell = self.cells
            back = np.conj(np.einsum("kpqab,kpa->kqb", cell, np.conj(
                z.reshape(owner.size, cell.shape[1], 4))))
            q = cell.shape[2]
            np.add.at(out, q * owner[:, None] + np.arange(q), back)
        return out

    def _spinors(self) -> tuple:
        """E_0 = a + m beta and E_c = i alpha_c, the matrices of the fields."""
        return (self.sp.a * I4 + self.sp.m * BETA,) + tuple(1j * a for a in ALPHA)

    def matrix(self) -> np.ndarray:
        """The operator as a dense (4 nx, 4 ny) matrix, an oracle.

        It reads the passes of :meth:`_passes`: each block of sheet q's
        pass writes phi_a into sheet q's columns, y points Q j + q, and
        the cells then overwrite the pairs the loop left arbitrary.
        """
        nx, ny, count = self.x.shape[0], self.y.shape[0], self._sheet_count()
        mat = np.zeros((nx, 4, ny, 4), dtype=complex)
        row = np.ones(nx) if self.row is None else self.row

        def write(q: int, lo: int, hi: int, diff: np.ndarray, kernel: tuple,
                  r: np.ndarray) -> None:
            # flat, as perfbench's tracer counts points by length
            blocks = phi_a(self.sp, diff.reshape(-1, 3)).reshape(hi - lo, -1, 4, 4)
            blocks *= (row[lo:hi, None] * self.col[q::count])[:, :, None, None]
            mat[lo:hi, :, q::count] = blocks.transpose(0, 2, 1, 3)

        self._passes(write)
        if self.cells is not None:
            # x group k (points P k + i) over y cell owner[k] (Q owner[k] + j)
            owner, cell = self.cells
            i, j = np.arange(cell.shape[1]), np.arange(cell.shape[2])
            xs = (i.size * np.arange(owner.size)[:, None] + i)[:, :, None]
            ys = (j.size * owner[:, None] + j)[:, None, :]
            mat[xs, :, ys, :] = cell * row[xs][..., None, None]
        return mat.reshape(4 * nx, 4 * ny)


def _disk_moments(w: complex, rho, delta) -> tuple:
    """Kernel integrals over a flat disk against a constant density.

    The disk has radius ``rho``; the evaluation point sits on its axis
    at signed height ``delta``; ``w`` is the decay branch (0 gives the
    massless kernel).  Returns the Yukawa layer, which multiplies the
    even part a + m beta, and the axial factor, which multiplies
    (i/2) alpha.nu in the odd part.  Closed form, broadcast over
    ``rho`` and ``delta``.  The axial factor vanishes at ``delta = 0``,
    which realizes the principal value.
    """
    d = np.asarray(delta, dtype=float)
    ad = np.abs(d)
    s = np.sqrt(rho * rho + d * d)
    if abs(w) < 1e-14:
        return 0.5 * (s - ad), np.sign(d) - d / s
    ewa = np.exp(-w * ad)
    ews = np.exp(-w * s)
    return (ewa - ews) / (2.0 * w), np.sign(d) * ewa - d * ews / s


def _over_cells(mesh: SurfaceMesh, rows: np.ndarray, shift: float,
                heights: np.ndarray) -> tuple:
    """The pairs of a sheet's pass: points over its cells, its nodes, owners.

    Point H i + k sits at ``heights[k]`` over node ``rows[i]`` of
    ``mesh.sheet(shift)``, whose cell is its own.
    """
    src = mesh.sheet(shift)[0]
    pts = src[rows, None] + heights[:, None] * mesh.normals[rows, None]
    return (pts.reshape(-1, 3), src,
            (np.repeat(rows, heights.size), np.arange(len(mesh))))


def _cell_block(sp: SpectralParameter, mesh: SurfaceMesh, rows: np.ndarray,
                shift: float, heights: np.ndarray,
                use=lambda *block: None) -> np.ndarray:
    """Principal-value cell blocks of the kernel over a parallel sheet.

    The sheet is ``mesh.sheet(shift)``, the mesh moved by ``shift``
    along its normals: a closed surface with the same normal field,
    weights w det(1 - shift W) and shifted principal curvatures, so the
    far sums and the Gauss anchor below apply on it verbatim.  Each row
    node sees it from H signed ``heights`` over its own cell, in one
    far-sum pass.  Returns the (rows, H, 4, 4) :func:`spinor_blocks`
    ``layer (a + m beta) + i alpha.(v - d)``: the cell's coarea-scaled
    flat-disk layer, the odd moment v (curvature-trace layer and
    normal-projection parts, plus the solid-angle content) and the
    punctured vector moment d of the odd kernel.  Added to the kernel
    summed over the other nodes, a block gives the one-sided moment of
    the layer potential, ``(s_far + layer) (a + m beta) + i alpha.v``
    with s_far the punctured Yukawa single layer.

    Why a moment at all: the punctured sum of the 1/r^2 odd kernel alone
    stalls on a mesh without local symmetry, since its spurious
    tangential component does not vanish under refinement.  Subtracting
    the density value at the target node and adding back the
    principal-value moment of the kernel restores convergence.  In
    matrix terms that is a diagonal update by
    ``i alpha . (E_pv - E_punctured)``.  The squeezed family B_eps
    carries the same defect in its punctured bulk rule; left alone, its
    eps -> 0 limit is the uncorrected trace and the distance to
    B_0 + B' develops a mesh-level floor.

    The moment splits into exactly integrable structure plus mild
    remainders: the odd kernel is the y-gradient of the Yukawa kernel,
    so the tangential divergence theorem trades its 1/r^2 singularity
    for a curvature-weighted single layer, and the Gauss solid-angle
    identity fixes the flat double-layer content.  Its anchor is
    ``(sign(height) - 1) / 2``: 0 above the sheet, -1 below it (exact
    for a closed surface) and -1/2 on it, which carries the jump.  The
    own cell gets closed-form disk and osculating-paraboloid integrals;
    off the sheet its odd part is the axial factor of the Yukawa kernel
    less that of the flat one, which the anchor already counts.  The
    even parts are exact on the disk, so as the height and shift go to
    0 every moment tends to the trace's.

    The far sums read the fields of :func:`kernel_fields` through
    :func:`_kernel_blocks`, with each point's own node as its cell, so
    they are punctured exactly where the operators' sums are.  Each is
    a matmul of scalar (rows H, n) fields against (n, 3) node vectors:
    (x - y).nu(y) is x.nu(y) - y.nu(y), and the vector moment
    sum_j f_j (x - y_j) is x sum_j f_j - sum_j f_j y_j.  Only the flat
    kernel 1/(4 pi r^3) of the solid-angle content is built here, from
    the loop's distances.  ``use``, if given, gets every block of the
    pass as :func:`_kernel_blocks` hands it out: an operator whose
    sources lie on this sheet sums its own fields in the same pass.
    """
    det = mesh.coarea(shift)[rows, None]
    wts = mesh.sheet(shift)[1]
    nu = mesh.normals
    curv = (-mesh.lam1 / (1.0 - shift * mesh.lam1)
            - mesh.lam2 / (1.0 - shift * mesh.lam2))
    heights = np.asarray(heights, dtype=float)
    pts, src, owners = _over_cells(mesh, rows, shift, heights)
    own = owners[0]
    v_far, d_far = np.empty((2, own.size, 3), dtype=complex)
    # far sums are matmuls against four node columns: with fewer, a row's
    # bits would depend on its place in its chunk (BLAS gemv tails).  With
    # four, OpenBLAS 0.3.31 (one thread) gives a row the same bits in any
    # block of up to about 2.5e5 pairs (1.2e5 against the apply's eight
    # real columns; complex ones in every block measured, up to 2,560 rows
    # by 2,560 nodes); a block holds about CHUNK_BYTES / 128 = 3.1e4
    nu_cols = np.column_stack([nu * wts[:, None], wts])
    src_cols = np.column_stack([wts, src * wts[:, None]])

    def add(lo: int, hi: int, diff: np.ndarray, fields: tuple,
            r: np.ndarray) -> None:
        use(lo, hi, diff, fields, r)  # first: its arrays are freed before these
        pref, odd = fields
        ndot = pts[lo:hi] @ nu.T - np.sum(src * nu, axis=1)  # (x - y).nu(y)
        base = 1.0 / (4.0 * np.pi * r**3)  # the flat (w = 0) odd kernel
        base[np.arange(hi - lo), own[lo:hi]] = 0.0
        # curvature layer and the odd kernel carry nu(y) w; the flat
        # kernel's normal flux carries nu(x)
        flux = ((ndot * base) @ nu_cols)[:, 3]
        v_far[lo:hi] = (((curv * pref + ndot * odd) @ nu_cols)[:, :3]
                        - flux[:, None] * nu[own[lo:hi]])
        mom = odd @ src_cols
        d_far[lo:hi] = mom[:, :1] * pts[lo:hi] - mom[:, 1:]

    _kernel_blocks(sp, pts, src, add, owners)
    rho = np.sqrt(mesh.weights[rows] / np.pi)[:, None]
    layer, axial = _disk_moments(sp.branch, rho, heights)
    _, axial_flat = _disk_moments(0.0, rho, heights)
    layer = det * layer
    anchor = 0.5 * (np.sign(heights) - 1.0)
    v = v_far.reshape(rows.size, -1, 3) + (
        curv[rows, None] * layer + 0.5 * det * (axial - axial_flat)
        + anchor)[..., None] * nu[rows, None]
    return spinor_blocks(sp, layer, v - d_far.reshape(v.shape))


def _mesh_resolution(mesh: SurfaceMesh) -> float:
    """Mean cell diameter, the reliability scale for near-surface points."""
    return float(np.sqrt(np.sum(mesh.weights) / len(mesh)))


def _check_clearance(mesh: SurfaceMesh, pts: np.ndarray) -> None:
    """Raise PointTooCloseToSurface for a point within the mesh resolution."""
    guard = _mesh_resolution(mesh)
    dist, _ = cKDTree(mesh.nodes).query(pts)
    if np.any(dist < guard):
        worst = float(np.min(dist))
        raise PointTooCloseToSurface(
            f"evaluation point at distance {worst:.3e} from the mesh, "
            f"guard is {guard:.3e}")


# ---------------------------------------------------------------------------
# layer potential and boundary trace


def layer_potential(sp: SpectralParameter, mesh: SurfaceMesh,
                    x: np.ndarray, g: np.ndarray | None = None,
                    volume: VolumeGrid | None = None,
                    volume_values: np.ndarray | None = None) -> np.ndarray:
    """Evaluate Phi^a(G, g) at points away from the surface.

    ``g`` is a surface density of shape (N, 4); ``volume_values`` an
    ambient density sampled on ``volume``.  Either part may be omitted.
    Raises :class:`PointTooCloseToSurface` if an evaluation point is
    closer to a surface node than the mesh resolution.
    """
    pts = np.asarray(x, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    _check_clearance(mesh, pts)
    out = np.zeros((pts.shape[0], 4), dtype=complex)
    if g is not None:
        out += _KernelSum(sp, pts, mesh.nodes, mesh.weights).apply(g)
    if volume is not None and volume_values is not None:
        out += _KernelSum(sp, pts, volume.points, volume.weights).apply(
            volume_values)
    return out[0] if single else out


def _check_trace_nodes(mesh: SurfaceMesh) -> None:
    """Raise ValueError for a mesh too coarse for the boundary trace."""
    if len(mesh) < MIN_TRACE_NODES:
        raise ValueError(f"mesh must have at least {MIN_TRACE_NODES} nodes")


def _trace_op(sp: SpectralParameter, mesh: SurfaceMesh,
              rows: np.ndarray | None = None,
              heights: Sequence[float] = (0.0,)) -> _KernelSum:
    """C_sigma on ``rows`` (all nodes by default), read at ``heights``.

    Row H i + k is the point x + heights[k] nu over node rows[i]: kernel
    times node weights over the other nodes, plus that node's cell seen
    from that height.  The nodes are one sheet, so a reading is one
    pass, and the first also finishes the cells.  Height 0 gives trace
    rows, +-h the one-sided values of the Plemelj relations.
    """
    if rows is None:
        rows = np.arange(len(mesh))
    return _KernelSum(sp, mesh.sheet(heights)[0][rows].reshape(-1, 3), mesh.nodes,
                      mesh.weights, sheets=(mesh, rows, np.zeros(1),
                                            np.array([heights], dtype=float), None))


def cauchy_sigma_apply(sp: SpectralParameter, mesh: SurfaceMesh,
                       g: np.ndarray) -> np.ndarray:
    """Apply the boundary trace operator to a surface density (N, 4)."""
    _check_trace_nodes(mesh)
    return _trace_op(sp, mesh).apply(g)


def weighted_norm(apply, adjoint, weights: np.ndarray) -> float:
    """Largest singular value of B in the weighted L2 sense.

    ``apply`` and ``adjoint`` take a vector of 4 n entries to B and B^H
    of it (any shape holding 4 n entries); ``weights`` are the n scalar
    quadrature weights, one per 4-spinor block, of both the rows and
    the columns.  With D = diag(sqrt w) the weighted operator is
    D B D^-1, and its norm squared is the top eigenvalue of the
    Hermitian Gram operator x -> D^-1 B^H D^2 B D^-1 x.  ARPACK
    (``eigsh``, Arnoldi on a complex operator, which on a Hermitian one
    is Lanczos with full reorthogonalization) finds it to ``NORM_TOL``
    relative.  The start vector is seeded, so repeated calls agree to
    the bit.  The Gram operator squares the scale of B, so it runs on
    B / 2^e, 2^e the leading power of two of B applied to the start:
    exact, and no under- or overflow.  Where that probe is zero, so is
    B, and its norm is 0.
    """
    w = np.repeat(weights, 4)
    sw = np.sqrt(w)
    n = w.size
    rng = np.random.default_rng(0)
    start = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    probe = np.max(np.abs(np.ravel(apply(start / sw)) * w))
    if probe == 0.0:
        return 0.0
    scale = 2.0 ** -int(np.frexp(probe)[1])

    def gram(x: np.ndarray) -> np.ndarray:
        y = np.ravel(apply((x / sw) * scale)) * w
        return np.ravel(adjoint(y)) * scale / sw

    val = eigsh(LinearOperator((n, n), matvec=gram, dtype=complex),
                k=1, v0=start, tol=NORM_TOL, return_eigenvectors=False)
    return float(np.sqrt(val[0])) / scale


@dataclass(frozen=True)
class ShellOperator:
    """A square shell operator on a weighted quadrature space.

    ``op`` is its kernel sum.  Its fields are evaluated once, when the
    operator is built, in the passes that also finish its cells, and
    every :meth:`apply`, :meth:`adjoint` and :meth:`norm` reads
    them.  ``weights`` are the scalar quadrature weights, one per
    4-spinor block, of both its rows and its columns.  An operator of
    more than ``DENSE_DOF_CAP`` dofs is refused with ``ValueError``
    before any field is evaluated; its streamed apply serves beyond.
    """

    op: _KernelSum
    weights: np.ndarray
    fields: list = field(init=False, repr=False)

    def __post_init__(self) -> None:
        dofs = 4 * len(self.op.x)
        if dofs > DENSE_DOF_CAP:
            raise ValueError(
                f"kept operator needs {dofs} dofs, DENSE_DOF_CAP is {DENSE_DOF_CAP}")
        object.__setattr__(self, "fields", self.op.fields())

    def apply(self, g: np.ndarray) -> np.ndarray:
        return self.op.apply(g, self.fields)

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        return self.op.adjoint(y, self.fields)

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense (4 n, 4 n) matrix, an oracle built when first read."""
        return self.op.matrix()

    def norm(self) -> float:
        """The weighted L2 norm, by :func:`weighted_norm` on the cached fields."""
        return weighted_norm(self.apply, self.adjoint, self.weights)


def cauchy_sigma(sp: SpectralParameter, mesh: SurfaceMesh) -> ShellOperator:
    """The boundary trace operator with its fields cached, up to ``DENSE_DOF_CAP``."""
    _check_trace_nodes(mesh)
    return ShellOperator(_trace_op(sp, mesh), mesh.weights)


# ---------------------------------------------------------------------------
# Plemelj jump relations


@dataclass(frozen=True)
class PlemeljReport:
    """Extrapolated one-sided traces versus the jump formulas."""

    offsets: tuple
    max_rel_plus: float
    max_rel_minus: float
    l2_rel_plus: float
    l2_rel_minus: float
    jump_identity_rel: float
    average_identity_rel: float

    @property
    def max_rel_error(self) -> float:
        return max(self.max_rel_plus, self.max_rel_minus)


def plemelj_check(sp: SpectralParameter, mesh: SurfaceMesh, g: np.ndarray,
                  offsets: Sequence[float] | None = None,
                  eta: float = 0.3,
                  max_eval_nodes: int = 1024) -> PlemeljReport:
    """Verify the one-sided trace formulas C_pm = -/+ (i/2) alpha.nu + C_sigma.

    The one-sided values of ``g`` are the trace rows of the evaluation
    nodes read at heights ``+-h`` (:func:`_trace_op`), for each offset
    ``h``: the layer potential at ``x +- h nu`` with the cell quadrature
    that defines the trace; one operator reads them and the trace.  One
    least-squares fit in ``h`` of degree ``min(3, len(offsets) - 1)``,
    cubic for the five default offsets, takes both sides to ``h -> 0``.
    Offsets lie above the mesh resolution and at most
    ``min(eta, injectivity_budget())`` off the surface, so that the
    normal segments stay apart; otherwise ``ValueError`` names both
    limits.  The default set hugs the resolution floor, where the
    extrapolation is most accurate, from 1.05 times the resolution up
    to twice it or that limit.
    """
    if max_eval_nodes < 1:
        raise ValueError(f"max_eval_nodes must be >= 1, got {max_eval_nodes}")
    if not np.isfinite(eta):
        raise ValueError(f"collar eta must be finite, got {eta}")
    n = len(mesh)
    res = _mesh_resolution(mesh)
    budget = mesh.surface.injectivity_budget()
    limit = min(eta, budget)
    if offsets is None:
        upper = min(2.0 * res, limit)
        if upper <= 1.05 * res:
            raise ValueError(
                f"collar eta = {eta:.3e} and injectivity budget "
                f"{budget:.3e} leave no offset window above the mesh "
                f"resolution {res:.3e}")
        offsets = np.linspace(1.05 * res, upper, 5)
    else:
        given = np.asarray(offsets, dtype=float)
        if not np.all(np.isfinite(given)):
            raise ValueError(f"offsets must be finite, got {list(offsets)}")
        if np.any(given <= res) or np.any(given > limit):
            raise ValueError(
                f"offsets {list(offsets)} must lie in (resolution, "
                f"min(eta, injectivity_budget())] = ({res:.3e}, {limit:.3e}]")
    offs = np.asarray(sorted(offsets, reverse=True), dtype=float)
    gv = np.asarray(g, dtype=complex).reshape(n, 4)
    idx = np.linspace(0, n - 1, min(n, max_eval_nodes)).astype(int)

    k = offs.size
    vals = _trace_op(sp, mesh, idx, np.concatenate([offs, -offs, [0.0]])).apply(
        gv).reshape(idx.size, 2 * k + 1, 4)
    csg = vals[:, 2 * k]
    # one fit: a row per offset, a column per (side, node, component)
    sides = vals[:, :2 * k].reshape(idx.size, 2, k, 4).transpose(2, 1, 0, 3)
    vand = np.vander(offs, min(3, k - 1) + 1)
    plus0, minus0 = np.linalg.lstsq(vand, sides.reshape(k, -1), rcond=None)[0][
        -1].reshape(2, idx.size, 4)

    jump = np.einsum("kab,kb->ka", alpha_dot(mesh.normals[idx]), gv[idx])
    # outward limit (x + h nu) carries + (i/2) alpha.nu, inward the opposite
    ref_outside = 0.5j * jump + csg
    ref_inside = -0.5j * jump + csg

    scale = max(float(np.max(np.linalg.norm(ref_outside, axis=1))),
                float(np.max(np.linalg.norm(ref_inside, axis=1))), 1e-30)
    wts = mesh.weights[idx]

    def wnorm(arr: np.ndarray) -> float:
        return float(np.sqrt(np.sum(wts * np.sum(np.abs(arr) ** 2, axis=1))))

    scale_l2 = max(wnorm(ref_outside), wnorm(ref_inside), 1e-30)

    def sup_rel(a: np.ndarray, b: np.ndarray) -> float:
        return float(np.max(np.linalg.norm(a - b, axis=1)) / scale)

    def l2_rel(a: np.ndarray, b: np.ndarray) -> float:
        return wnorm(a - b) / scale_l2

    return PlemeljReport(
        tuple(offs),
        sup_rel(plus0, ref_outside), sup_rel(minus0, ref_inside),
        l2_rel(plus0, ref_outside), l2_rel(minus0, ref_inside),
        sup_rel(plus0 - minus0, 1.0j * jump),
        sup_rel(0.5 * (plus0 + minus0), csg))


# ---------------------------------------------------------------------------
# operator grid over the collar


@dataclass(frozen=True)
class OperatorGrid:
    """Surface mesh x the transverse Gauss rule of ``kv``, the engine's J."""

    mesh: SurfaceMesh
    kv: KVOperator

    @property
    def n_nodes(self) -> int:
        return len(self.mesh)

    @property
    def n_transverse(self) -> int:
        return self.kv.nodes.size

    def scalar_weights(self) -> np.ndarray:
        """Quadrature weights per (node, t) pair, flattened."""
        return np.outer(self.mesh.weights, self.kv.weights).ravel()


def make_operator_grid(mesh: SurfaceMesh, uv: UVFactorization,
                       m_nodes: int = 8) -> OperatorGrid:
    if m_nodes < 2:
        raise ValueError("need at least 2 transverse nodes")
    return OperatorGrid(mesh, gauss_kv(uv, m_nodes))


def grid_norm(grid: OperatorGrid, g: np.ndarray) -> float:
    gv = np.asarray(g, dtype=complex).reshape(grid.n_nodes, grid.n_transverse, 4)
    w = np.outer(grid.mesh.weights, grid.kv.weights)
    return float(np.sqrt(np.sum(w * np.sum(np.abs(gv) ** 2, axis=2))))


def default_separable_density(grid: OperatorGrid) -> np.ndarray:
    """Smooth separable grid density used by experiments and tests."""
    spinor = np.array([1.0, 0.5, 0.25j, -0.3], dtype=complex)
    spatial = np.exp(-np.sum((grid.mesh.nodes - np.array([0.2, 0.1, 0.4])) ** 2, axis=1))
    transverse = 1.0 + 0.5 * grid.kv.nodes ** 2
    return (spatial[:, None, None] * transverse[None, :, None]
            * spinor[None, None, :])


def default_volume_density(volume: VolumeGrid) -> np.ndarray:
    spinor = np.array([0.8, -0.2, 0.1j, 0.5], dtype=complex)
    r2 = np.sum(volume.points ** 2, axis=1)
    return np.exp(-r2 / 0.08)[:, None] * spinor[None, :]


# ---------------------------------------------------------------------------
# squeezed operator family


def _collar(grid: OperatorGrid, eps: float, squeezed: bool) -> tuple:
    """Collar points x_k + eps t_q nu_k (N M, 3) and source weights (N M,).

    One :meth:`SurfaceMesh.sheet` call gives the points and their sheet
    weights w det(1 - eps t_q W), times v(t_q) and the Gauss weights.
    ``ValueError`` when eps is negative or past the injectivity budget,
    where the normal segments can cross.  B_eps (``squeezed``) sums the
    kernel between the points, so it also needs eps > 0 and points
    apart (:class:`DegenerateQuadrature`).
    """
    if squeezed and not 0.0 < eps:
        raise ValueError("eps must be positive")
    if eps < 0.0:
        raise ValueError(f"collar width eps={eps:g} is negative")
    budget = grid.mesh.surface.injectivity_budget()
    if eps > budget:
        raise ValueError(
            f"collar width eps={eps:g} exceeds the injectivity budget {budget:.6g}")
    pts, wts = grid.mesh.sheet(eps * grid.kv.nodes)
    pts = pts.reshape(-1, 3)
    if squeezed:
        dist, _ = cKDTree(pts).query(pts, k=2)
        closest = float(np.min(dist[:, 1]))
        if closest <= COINCIDENCE_TOL:
            raise DegenerateQuadrature(
                f"shifted quadrature points separated by {closest:.3e}")
    return pts, (wts * (grid.kv.v_vals * grid.kv.weights)).ravel()


def _b_eps_op(grid: OperatorGrid, sp: SpectralParameter,
              eps: float) -> _KernelSum:
    """The squeezed boundary operator B_eps on the collar grid.

    Pairs of distinct nodes are kernel evaluations times the source
    weights v(s) det(1 - eps s W) w; the u(t) factor scales the rows.
    The M x M block of a node is its cell: entry (p, q) is the cell
    moment over the parallel sheet swept by t_q, seen from the exact
    signed height eps (t_p - t_q) over it, times v_q w_q.  At eps = 0
    this reproduces the trace diagonal plus the sharp sign-kernel jump
    term entry by entry, so the squeezed family has no discretization
    floor here.  The sources are M sheets, so a reading is M passes,
    each over all N M collar points against one sheet's N nodes; the
    first reading's passes also finish the cells.
    """
    pts, wts = _collar(grid, eps, True)
    kv, t = grid.kv, grid.kv.nodes
    # sheet q sees point p of a node at eps (t_p - t_q)
    return _KernelSum(sp, pts, pts, wts, np.tile(kv.u_vals, grid.n_nodes),
                      (grid.mesh, np.arange(grid.n_nodes), eps * t,
                       eps * (t - t[:, None]), kv.v_vals * kv.weights))


def b_eps_apply(grid: OperatorGrid, sp: SpectralParameter, eps: float,
                g: np.ndarray) -> np.ndarray:
    """Matrix-free action of the squeezed boundary operator B_eps."""
    return _b_eps_op(grid, sp, eps).apply(g).reshape(
        grid.n_nodes, grid.n_transverse, 4)


def b_limit_apply(grid: OperatorGrid, sp: SpectralParameter,
                  g: np.ndarray) -> np.ndarray:
    """Action of B_0 + B' (the eps -> 0 limit of B_eps)."""
    gv = np.asarray(g, dtype=complex).reshape(grid.n_nodes, grid.n_transverse, 4)
    vhat = np.einsum("q,kqa->ka", grid.kv.v_vals * grid.kv.weights, gv)
    traced = _trace_op(sp, grid.mesh).apply(vhat)
    return grid.kv.u_vals[None, :, None] * traced[:, None, :] + bprime_apply(grid, gv)


def bprime_apply(grid: OperatorGrid, g: np.ndarray) -> np.ndarray:
    """B' = K_V alpha.nu node by node, K_V = i J of the grid's rule."""
    gv = np.asarray(g, dtype=complex).reshape(grid.n_nodes, grid.n_transverse, 4)
    return np.einsum("pq,kab,kqb->kpa", 1j * grid.kv.matrix,
                     alpha_dot(grid.mesh.normals), gv)


def a_eps_apply(grid: OperatorGrid, sp: SpectralParameter, eps: float,
                g: np.ndarray, test_points: np.ndarray) -> np.ndarray:
    """Layer potential of the squeezed density at ambient test points."""
    return _KernelSum(sp, np.atleast_2d(test_points),
                      *_collar(grid, eps, False)).apply(g)


def c_eps_apply(grid: OperatorGrid, sp: SpectralParameter, eps: float,
                volume: VolumeGrid, f_vals: np.ndarray) -> np.ndarray:
    """Evaluate u(t) Phi^a(F, 0) on the (shifted) collar grid."""
    op = _KernelSum(sp, _collar(grid, eps, False)[0], volume.points,
                    volume.weights, np.tile(grid.kv.u_vals, grid.n_nodes))
    return op.apply(f_vals).reshape(grid.n_nodes, grid.n_transverse, 4)


def assemble_family(grid: OperatorGrid, sp: SpectralParameter,
                    eps: float) -> dict:
    """B_eps at collar width eps with its fields cached, as ``{"B": ShellOperator}``.

    It is the operator of :func:`b_eps_apply`, capped at
    ``DENSE_DOF_CAP`` dofs; use that routine beyond the cap.  A_eps and
    C_eps are read by streamed applies only.
    """
    return {"B": ShellOperator(_b_eps_op(grid, sp, eps), grid.scalar_weights())}


# ---------------------------------------------------------------------------
# strong convergence experiment


@dataclass(frozen=True)
class ConvergenceRow:
    epsilon: float
    norm_b: float
    norm_a: float
    norm_c: float
    floor_flag: bool


@dataclass(frozen=True)
class ConvergenceTable:
    rows: tuple

    def csv(self) -> str:
        lines = ["epsilon,norm_B,norm_A,norm_C,floor_flag"]
        for r in self.rows:
            lines.append(f"{r.epsilon:.10g},{r.norm_b:.10g},{r.norm_a:.10g},"
                         f"{r.norm_c:.10g},{int(r.floor_flag)}")
        return "\n".join(lines) + "\n"


def strong_convergence_experiment(grid: OperatorGrid, sp: SpectralParameter,
                                  eps_list: Sequence[float]) -> ConvergenceTable:
    """Decay of (B_eps - B_0 - B')g, (A_eps - A_0)g and (C_eps - C_0)F.

    All three families act on fixed smooth densities: g is
    :func:`default_separable_density` on the grid, A is read at a ring
    of seven ambient points, and F is :func:`default_volume_density` on
    ``ball_grid(0.5, nr=6, ntheta=6, nphi=10)``.  The table reports
    weighted norms of the differences per eps.  Norms must decrease
    monotonically until they hit the discretization floor (flagged);
    an increase before the floor raises :class:`CheckFailed`.  A width
    that is not positive, repeats, or exceeds the injectivity budget
    raises ``ValueError``.
    """
    eps = sorted(float(e) for e in eps_list)[::-1]
    if not eps or any(e <= 0.0 for e in eps):
        raise ValueError(f"eps values must be positive, got {list(eps_list)}")
    if len(set(eps)) < len(eps):
        raise ValueError(f"eps values must be distinct, got {list(eps_list)}")
    _collar(grid, eps[0], False)  # the widest collar, before any limit
    g = default_separable_density(grid)
    ring = np.array([[2.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 2.0],
                     [-2.0, 0.0, 0.0], [1.2, 1.2, 1.2],
                     [0.3, 0.0, 0.0], [0.0, -0.3, 0.1]])
    volume = ball_grid(0.5, nr=6, ntheta=6, nphi=10)
    f_vals = default_volume_density(volume)

    b_lim = b_limit_apply(grid, sp, g)
    a_lim = a_eps_apply(grid, sp, 0.0, g, ring)
    c_lim = c_eps_apply(grid, sp, 0.0, volume, f_vals)

    rows = []
    for e in eps:
        db = grid_norm(grid, b_eps_apply(grid, sp, e, g) - b_lim)
        da = float(np.sqrt(np.mean(
            np.abs(a_eps_apply(grid, sp, e, g, ring) - a_lim) ** 2)))
        dc = grid_norm(grid, c_eps_apply(grid, sp, e, volume, f_vals) - c_lim)
        rows.append([e, db, da, dc])

    norms = np.array([r[1:] for r in rows])
    floors = np.zeros(len(rows), dtype=bool)
    for j, col in enumerate(norms.T):
        hit = col < max(1e-13 * np.max(col), 1e-15)
        floors |= hit
        # a step between two norms above the floor must decrease
        rises = np.flatnonzero(~hit[:-1] & ~hit[1:] & ~(col[1:] < col[:-1]))
        if rises.size:
            i = rises[0] + 1
            raise CheckFailed(
                f"norm column {j} increased before the floor: "
                f"{col[i - 1]:.3e} -> {col[i]:.3e} at eps={eps[i]:g}")
    table = tuple(ConvergenceRow(r[0], r[1], r[2], r[3], bool(f))
                  for r, f in zip(rows, floors))
    return ConvergenceTable(table)


# ---------------------------------------------------------------------------
# resolvent of the delta-shell Hamiltonian


def shell_resolvent_apply(sp: SpectralParameter, mesh: SurfaceMesh,
                          lam: float, kind: str, volume: VolumeGrid,
                          f_vals: np.ndarray,
                          eval_points: np.ndarray) -> np.ndarray:
    """Apply (H + lam * delta_shell - a)^{-1} to an ambient density.

    ``kind`` selects the electrostatic or the scalar (beta) shell, with
    carrier J = 1 or beta.  The result is ``free - lam Phi density``,
    both parts by :func:`layer_potential`; the density solves the
    second-kind boundary equation ``(J + lam C_sigma) density = free``
    on the mesh nodes, matrix-free by unrestarted GMRES on the trace's
    apply (Saad & Schultz, 1986): relative residual ``RESOLVENT_RTOL``,
    ``atol`` 0, at most 200 steps.  A point closer to a mesh node than
    the mesh resolution raises :class:`PointTooCloseToSurface` before
    any boundary operator is built.  Raises :class:`NearCriticalCoupling`
    for electrostatic couplings within ``CRITICAL_WINDOW`` of +-2, and
    :class:`SingularBoundaryInverse`, naming the steps taken and the
    relative residual reached, when GMRES stops short of its tolerance.
    """
    require_kind(kind)
    lam = float(lam)
    if not np.isfinite(lam):
        raise ValueError(f"coupling lam must be finite, got {lam}")
    pts = np.atleast_2d(np.asarray(eval_points, dtype=float))
    _check_clearance(mesh, pts)
    if lam == 0.0:
        return layer_potential(sp, mesh, pts, None, volume, f_vals)
    if kind == "electrostatic" and abs(abs(lam) - 2.0) <= CRITICAL_WINDOW:
        raise NearCriticalCoupling(
            f"electrostatic coupling {lam:g} within {CRITICAL_WINDOW} of +-2")
    _check_trace_nodes(mesh)
    n = len(mesh)
    trace_vals = _KernelSum(sp, mesh.nodes, volume.points,
                            volume.weights).apply(f_vals).ravel()
    trace = _trace_op(sp, mesh)
    carrier = 1.0 if kind == "electrostatic" else np.diag(BETA)
    system = LinearOperator((4 * n, 4 * n), dtype=complex, matvec=lambda x: (
        carrier * x.reshape(n, 4) + lam * trace.apply(x)).ravel())
    steps = []
    density, info = gmres(system, trace_vals, rtol=RESOLVENT_RTOL, atol=0.0,
                          restart=200, maxiter=1, callback=steps.append,
                          callback_type="pr_norm")
    if info != 0:
        reached = (np.linalg.norm(trace_vals - system.matvec(density))
                   / np.linalg.norm(trace_vals))
        raise SingularBoundaryInverse(
            f"boundary system: GMRES stopped after {len(steps)} of 200 "
            f"steps at relative residual {reached:.3e}, above its "
            f"tolerance RESOLVENT_RTOL = {RESOLVENT_RTOL:.0e}")
    return layer_potential(sp, mesh, pts, -lam * density.reshape(n, 4),
                           volume, f_vals)
