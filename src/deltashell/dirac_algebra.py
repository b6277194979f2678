"""Dirac matrices and the fundamental solution of H - a.

The free Dirac operator in 3D is H = -i alpha . grad + m beta, acting on
4-spinors. For a spectral parameter a with Re sqrt(m^2 - a^2) > 0 the operator
H - a has an explicit matrix-valued fundamental solution phi_a with
exponential decay. Its odd part, of order |x|^-2, is the only piece that is
genuinely singular under surface integration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import numpy.typing as npt

ArrayC = npt.NDArray[np.complex128]

SIGMA1 = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SIGMA2 = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
SIGMA3 = np.array([[1, 0], [0, -1]], dtype=np.complex128)
I2 = np.eye(2, dtype=np.complex128)
I4 = np.eye(4, dtype=np.complex128)

Z2 = np.zeros((2, 2), dtype=np.complex128)
ALPHA = tuple(np.block([[Z2, s], [s, Z2]]) for s in (SIGMA1, SIGMA2, SIGMA3))
BETA = np.block([[I2, Z2], [Z2, -I2]])

#: refuse kernel evaluation closer to the singularity than this
SINGULARITY_GUARD = 1e-12


def alpha_dot(v) -> ArrayC:
    """alpha . v for a 3-vector (or batch of 3-vectors) v.

    For batched input of shape (..., 3) the result has shape (..., 4, 4).
    """
    v = np.asarray(v)
    return (
        np.multiply.outer(v[..., 0], ALPHA[0])
        + np.multiply.outer(v[..., 1], ALPHA[1])
        + np.multiply.outer(v[..., 2], ALPHA[2])
    )


@dataclass(frozen=True)
class SpectralParameter:
    """Spectral point a and mass m, with the decay branch sqrt(m^2 - a^2).

    Accepted parameters: a off the real axis, or real a strictly inside the
    gap (-m, m). The single degenerate boundary case a = 0, m = 0 is also
    admitted (the kernel then reduces to its odd part i alpha.x / (4 pi |x|^3));
    every other case with Re sqrt(m^2 - a^2) = 0 is rejected.
    """

    a: complex
    m: float
    branch: complex = field(init=False)

    def __post_init__(self):
        a = complex(self.a)
        m = float(self.m)
        if not np.isfinite(a):
            raise ValueError(f"spectral parameter a must be finite, got {a}")
        if not np.isfinite(m):
            raise ValueError(f"mass m must be finite, got {m}")
        if m < 0:
            raise ValueError(f"mass must be nonnegative, got {m}")
        degenerate = a == 0 and m == 0
        in_gap = a.imag == 0 and abs(a.real) < m
        if not (a.imag != 0 or in_gap or degenerate):
            raise ValueError(
                f"spectral parameter a={a} not in (C \\ R) union (-m, m) for m={m}"
            )
        w = np.sqrt(complex(m * m - a * a))
        if w.real < 0:
            w = -w
        if w.real == 0 and not degenerate:
            raise ValueError(f"branch value sqrt(m^2-a^2)={w} has zero real part")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "branch", complex(w))


def kernel_fields(sp: SpectralParameter, x, r=None) -> tuple:
    """The two scalar fields of phi_a at points x of shape (..., 3).

    phi_a(x) = pref(r) (a + m beta) + odd(r) i alpha.x with
    pref = e^{-w r}/(4 pi r) and odd = pref (1 + w r)/r^2, r = |x| and
    w = sqrt(m^2 - a^2), Re w > 0.  This is the one place the kernel's
    formula lives: a sum over phi_a is two scalar sums times fixed 4x4
    matrices.  Returns ``(pref, odd)``, each of shape ``x.shape[:-1]``
    (``(1,)`` for a single point).  Where the branch w is real (a
    imaginary or inside the gap) the fields are computed with the real
    branch and are real arrays; otherwise they are complex.  Raises
    ``ValueError`` for a point within ``SINGULARITY_GUARD`` of the origin.
    ``r`` is |x| where the caller has formed it by the expression below,
    as the chunk loop does once per block for its other readers.
    """
    pts = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if pts.shape[-1] != 3:
        raise ValueError(f"expected 3-vectors, got shape {np.shape(x)}")
    if r is None:
        r = np.sqrt(pts[..., 0] ** 2 + pts[..., 1] ** 2 + pts[..., 2] ** 2)
    if np.any(r < SINGULARITY_GUARD):
        raise ValueError("kernel evaluated at (or too close to) its singular point")
    w = sp.branch.real if sp.branch.imag == 0 else sp.branch
    pref = np.exp(-w * r) / (4.0 * np.pi * r)
    if sp.branch.imag == 0:
        return pref, pref * (1.0 + w * r) / (r * r)
    # odd = pref (g + i h) / r^2 by real products: a complex one's bits vary with layout
    g, h, r2 = 1.0 + w.real * r, w.imag * r, r * r
    return pref, ((pref.real * g - pref.imag * h) / r2
                  + 1j * ((pref.imag * g + pref.real * h) / r2))


def spinor_blocks(sp: SpectralParameter, even, vec) -> ArrayC:
    """The 4x4 blocks even (a + m beta) + i alpha.vec: the one block writer.

    ``even`` of shape S and ``vec`` of shape S + (3,), real or complex,
    give S + (4, 4).  a + m beta is diagonal and i alpha.vec fills only
    the two off-diagonal 2x2 blocks, both i sigma.vec, so the 12 nonzero
    entries are written straight from ``even`` and ``vec``.
    """
    out = np.zeros(np.shape(even) + (4, 4), dtype=np.complex128)
    out[..., 0, 0] = out[..., 1, 1] = even * (sp.a + sp.m)
    out[..., 2, 2] = out[..., 3, 3] = even * (sp.a - sp.m)
    # i sigma.v = [[i v3, v2 + i v1], [-v2 + i v1, -i v3]] (v1, v2, v3 = v[0..2])
    ix, y, iz = 1j * vec[..., 0], vec[..., 1], 1j * vec[..., 2]
    out[..., 0, 2] = out[..., 2, 0] = iz
    out[..., 1, 3] = out[..., 3, 1] = -iz
    out[..., 0, 3] = out[..., 2, 1] = y + ix
    out[..., 1, 2] = out[..., 3, 0] = ix - y
    return out


def phi_a(sp: SpectralParameter, x) -> ArrayC:
    """Fundamental solution phi_a(x) of H - a, from :func:`kernel_fields`.

    phi_a(x) = e^{-w|x|}/(4 pi |x|) (a + m beta + (1 + w|x|) i alpha.x / |x|^2)
    with w = sqrt(m^2 - a^2), Re w > 0: the :func:`spinor_blocks` of the
    fields pref and odd x.  A 3-vector x gives a 4x4 complex matrix, a
    batch of shape (..., 3) a (..., 4, 4) stack.
    """
    x = np.asarray(x, dtype=np.float64)
    pref, odd = kernel_fields(sp, x)
    out = spinor_blocks(sp, pref, odd[..., None] * np.atleast_2d(x))
    return out if x.ndim > 1 else out[0]
