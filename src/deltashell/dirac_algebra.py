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
ArrayR = npt.NDArray[np.float64]

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


def _check_points(x) -> tuple[ArrayR, ArrayR, bool]:
    """Validate kernel arguments; returns (points (n,3), radii (n,), batched)."""
    x = np.asarray(x, dtype=np.float64)
    batched = x.ndim > 1
    pts = np.atleast_2d(x)
    if pts.shape[-1] != 3:
        raise ValueError(f"expected 3-vectors, got shape {x.shape}")
    r = np.linalg.norm(pts, axis=-1)
    if np.any(r < SINGULARITY_GUARD):
        raise ValueError("kernel evaluated at (or too close to) its singular point")
    return pts, r, batched


def phi_a(sp: SpectralParameter, x) -> ArrayC:
    """Fundamental solution phi_a(x) of H - a.

    phi_a(x) = e^{-w|x|}/(4 pi |x|) (a + m beta + (1 + w|x|) i alpha.x / |x|^2)
    with w = sqrt(m^2 - a^2), Re w > 0.

    Parameters:
        sp: spectral parameter
        x: 3-vector, or a batch of them with shape (n, 3)

    Returns:
        4x4 complex matrix, or an (n, 4, 4) stack for batched input.
    """
    pts, r, batched = _check_points(x)
    w = sp.branch
    pref = np.exp(-w * r) / (4.0 * np.pi * r)
    even = np.multiply.outer(pref, sp.a * I4 + sp.m * BETA)
    odd_coef = pref * (1.0 + w * r) / (r * r)
    odd = odd_coef[:, None, None] * (1j * alpha_dot(pts))
    out = even + odd
    return out if batched else out[0]
