"""References the benchmark checks the program against, computed apart.

Nothing here calls into ``deltashell``: the Dirac matrices, the kernel,
the radial solutions and the couplings are built again from their
formulas, so a fault in the program cannot hide in its own reference.

* ``sphere_layer``: the closed-form Yukawa layer of a sphere of radius
  ``rho`` carrying a constant spinor ``c``,
  ``(a + m beta) c S(r) - i S'(r) (alpha . x/r) c`` with
  ``S(r) = rho sinh(w r_<) exp(-w r_>) / (w r)``; on the sheet the
  principal value (the mean of the two one-sided derivatives) is used.
* ``kernel_apply``: sums of the free Dirac fundamental solution
  ``exp(-w r)/(4 pi r) (a + m beta + (1 + w r) i alpha . x / r^2)``.
* ``free_inner`` / ``free_outer``: regular and decaying solutions of the
  free radial system from ``scipy.special.iv`` / ``kv`` of half-integer
  order; ``through_well`` integrates the radial system with a well by
  DOP853 at rtol 1e-13; ``shell_matrix`` is the Cayley matching.
* ``effective_couplings``: ``2 tan(s/2)`` and ``2 tanh(s/2)``.

Run as a script to rewrite the kinked table profile in ``data/`` and
print the reference values the workloads compare against.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq
from scipy.special import iv, kv

# Dirac representation: beta = diag(1, 1, -1, -1), alpha_k off-diagonal
_PAULI = (np.array([[0, 1], [1, 0]], dtype=complex),
          np.array([[0, -1j], [1j, 0]], dtype=complex),
          np.array([[1, 0], [0, -1]], dtype=complex))
_Z = np.zeros((2, 2), dtype=complex)
ALPHA = np.array([np.block([[_Z, s], [s, _Z]]) for s in _PAULI])
BETA = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)

#: the kinked table profile of the dense workload (knots and values)
KINKED_TS = (-0.9, -0.37, 0.0, 0.41, 0.9)
KINKED_VS = (0.0, 1.3, 0.4, 1.1, 0.0)
KINKED_TABLE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "data", "kinked_table.json")


def branch(a: complex, m: float) -> complex:
    """Decay rate w = sqrt(m^2 - a^2) with Re w > 0."""
    w = np.sqrt(complex(m * m - a * a))
    return -w if w.real < 0 else w


# ---------------------------------------------------------------------------
# sphere layer


def layer_profile(w: complex, rho: float, r: float) -> tuple:
    """S(r) of the unit-density Yukawa layer on the sphere |y| = rho.

    Returns (S, S'_in, S'_out): the derivative by the formula valid
    inside (r < rho) and by the one valid outside (r > rho), both
    evaluated at r.  At r = rho they differ by exactly -1.
    """
    near = np.exp(-w * abs(r - rho))
    far = np.exp(-w * (r + rho))
    s = rho * (near - far) / (2.0 * w * r)
    # inside: rho e^{-w rho} sinh(w r) / (w r)
    grow = np.exp(w * (r - rho))
    d_in = 0.5 * rho * ((grow + far) / r - (grow - far) / (w * r * r))
    # outside: rho sinh(w rho) e^{-w r} / (w r)
    decay = np.exp(-w * (r - rho))
    d_out = -0.5 * rho * (decay - far) * (1.0 + w * r) / (w * r * r)
    return s, d_in, d_out


def sphere_layer(a: complex, m: float, rho: float, r: float,
                 directions: np.ndarray, spinor: np.ndarray) -> np.ndarray:
    """Layer of a constant spinor on |y| = rho at the points r * directions.

    ``directions`` are unit vectors (n, 3).  At r = rho the radial
    derivative is the principal value, the mean of the two sides.
    Result shape (n, 4).
    """
    c = np.asarray(spinor, dtype=complex)
    s, d_in, d_out = layer_profile(branch(a, m), rho, r)
    ds = d_in if r < rho else d_out if r > rho else 0.5 * (d_in + d_out)
    even = a * c + m * (BETA @ c)
    odd = np.einsum("kab,nk,b->na", ALPHA, np.atleast_2d(directions), c)
    return s * even[None, :] - 1j * ds * odd


def kernel_apply(a: complex, m: float, x: np.ndarray, y: np.ndarray,
                 coeff: np.ndarray) -> np.ndarray:
    """sum_j phi(x_i - y_j) coeff_j for the free Dirac fundamental solution."""
    w = branch(a, m)
    d = x[:, None, :] - y[None, :, :]
    r = np.linalg.norm(d, axis=2)
    pref = np.exp(-w * r) / (4.0 * np.pi * r)
    odd = pref * (1.0 + w * r) / (r * r)
    even_c = a * coeff + m * coeff @ BETA.T
    out = pref @ even_c
    for k in range(3):
        out += 1j * ((odd * d[:, :, k]) @ coeff) @ ALPHA[k].T
    return out


# ---------------------------------------------------------------------------
# radial channels


def _orders(kappa: int) -> tuple:
    return (-kappa, -kappa - 1) if kappa < 0 else (kappa - 1, kappa)


def free_inner(kappa: int, m: float, a: float, r: float) -> np.ndarray:
    """Regular free solution (G, F) at r, from I_{l+1/2}; not normalized."""
    k = math.sqrt(m * m - a * a)
    lg, lf = _orders(kappa)
    x = k * r
    half = math.sqrt(math.pi / (2.0 * x))
    return np.array([r * half * iv(lg + 0.5, x),
                     k * r * half * iv(lf + 0.5, x) / (a + m)])


def free_outer(kappa: int, m: float, a: float, r: float) -> np.ndarray:
    """Decaying free solution (G, F) at r, from K_{l+1/2}; not normalized."""
    k = math.sqrt(m * m - a * a)
    lg, lf = _orders(kappa)
    x = k * r
    half = math.sqrt(math.pi / (2.0 * x))
    return np.array([r * half * kv(lg + 0.5, x),
                     -k * r * half * kv(lf + 0.5, x) / (a + m)])


def radial_rhs(kappa: int, m: float, a: float, r: float, psi,
               ve: float = 0.0, vs: float = 0.0) -> np.ndarray:
    """Right side of G' = k/r G + (a+m+Vs-Ve) F, F' = -k/r F - (a-m-Vs-Ve) G."""
    g, f = psi
    return np.array([kappa / r * g + (a + m + vs - ve) * f,
                     -kappa / r * f - (a - m - vs - ve) * g])


def through_well(kappa: int, m: float, a: float, r0: float, r1: float,
                 psi0: np.ndarray, well, kind: str) -> np.ndarray:
    """Integrate the radial system with potential well(r) from r0 to r1."""
    def rhs(r, psi):
        v = well(r)
        if kind == "electrostatic":
            return radial_rhs(kappa, m, a, r, psi, ve=v)
        return radial_rhs(kappa, m, a, r, psi, vs=v)

    scale = float(np.max(np.abs(psi0)))
    sol = solve_ivp(rhs, (r0, r1), psi0 / scale, method="DOP853",
                    rtol=1e-13, atol=1e-16)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return sol.y[:, -1]


def shell_matrix(lam: float, kind: str) -> np.ndarray:
    """Cayley matching (I - lam/2 J)^-1 (I + lam/2 J) of the shell."""
    if kind == "electrostatic":
        theta = 2.0 * math.atan(0.5 * lam)
        return np.array([[math.cos(theta), -math.sin(theta)],
                         [math.sin(theta), math.cos(theta)]])
    phi = 2.0 * math.atanh(0.5 * lam)
    return np.array([[math.cosh(phi), math.sinh(phi)],
                     [math.sinh(phi), math.cosh(phi)]])


def _cross(p: np.ndarray, q: np.ndarray) -> float:
    return float(p[0] * q[1] - p[1] * q[0])


def shell_det(kappa: int, m: float, R: float, lam: float, kind: str):
    """a -> matching determinant of the singular shell at coupling lam."""
    mat = shell_matrix(lam, kind)

    def det(a: float) -> float:
        pin, pout = free_inner(kappa, m, a, R), free_outer(kappa, m, a, R)
        return _cross(pout / np.linalg.norm(pout),
                      mat @ (pin / np.linalg.norm(pin)))

    return det


def squeezed_det(kappa: int, m: float, R: float, eps: float, well,
                 kind: str):
    """a -> matching determinant across the squeezed well on [R-eps, R+eps]."""
    def det(a: float) -> float:
        pin = free_inner(kappa, m, a, R - eps)
        pout = free_outer(kappa, m, a, R + eps)
        across = through_well(kappa, m, a, R - eps, R + eps, pin,
                              lambda r: well(r - R), kind)
        return _cross(pout / np.linalg.norm(pout),
                      across / np.linalg.norm(across))

    return det


def root_near(det, guess: float, m: float = 1.0) -> float:
    """Root of det in a bracket around guess, widened until det changes sign."""
    edge, width = m * (1.0 - 1e-9), 1e-4
    while width < 2.0 * m:
        lo, hi = max(guess - width, -edge), min(guess + width, edge)
        if det(lo) * det(hi) < 0.0:
            return brentq(det, lo, hi, xtol=1e-15, rtol=8.9e-16)
        width *= 8.0
    raise ValueError(f"no sign change of the reference determinant near {guess}")


def scan_roots(det, lo: float, hi: float, steps: int = 2001) -> list:
    """All sign-change roots of det on a uniform grid of the window."""
    grid = np.linspace(lo, hi, steps)
    vals = np.array([det(a) for a in grid])
    return [brentq(det, grid[i], grid[i + 1], xtol=1e-15, rtol=8.9e-16)
            for i in range(steps - 1) if vals[i] * vals[i + 1] < 0.0]


# ---------------------------------------------------------------------------
# profiles and couplings


def square_profile(tau: float, eta: float):
    """Height tau/2 on the closed support, so an integration that starts
    on its edge sees the well from the first stage."""
    return lambda t: np.where(np.abs(t) <= eta, 0.5 * tau, 0.0)


def gaussian_profile(amp: float, sigma: float, eta: float):
    return lambda t: np.where(np.abs(t) <= eta,
                              amp * np.exp(-np.square(t) / (2.0 * sigma * sigma)),
                              0.0)


def squeezed(profile, eta: float, eps: float):
    """V_eps(t) = (eta/eps) V(eta t/eps) at fixed integral."""
    return lambda t: (eta / eps) * profile(eta * np.asarray(t) / eps)


def integral(profile, eta: float) -> float:
    """int V over [-eta, eta] by adaptive quadrature (smooth inside the support)."""
    return float(quad(lambda t: float(profile(t)), -eta, eta,
                      epsabs=1e-14, epsrel=1e-13, limit=200)[0])


def kinked_integral() -> float:
    """Trapezoid sum of the kinked table: exact for a piecewise-linear profile."""
    ts, vs = KINKED_TS, KINKED_VS
    return float(sum(0.5 * (t1 - t0) * (v0 + v1)
                     for t0, t1, v0, v1 in zip(ts, ts[1:], vs, vs[1:])))


def effective_couplings(strength: float) -> tuple:
    """(2 tan(s/2), 2 tanh(s/2)), the shell couplings of a squeezed well."""
    return 2.0 * math.tan(0.5 * strength), 2.0 * math.tanh(0.5 * strength)


def write_kinked_table(path: str = KINKED_TABLE) -> None:
    doc = {"kind": "table", "eta": max(abs(KINKED_TS[0]), abs(KINKED_TS[-1])),
           "ts": list(KINKED_TS), "vs": list(KINKED_VS)}
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    write_kinked_table()
    print(f"wrote {os.path.relpath(KINKED_TABLE)}")
    s_unit = 1.0
    s_gauss = integral(gaussian_profile(1.4, 0.5, 1.0), 1.0)
    for name, s in (("unit square", s_unit), ("gaussian 1.4/0.5/1.0", s_gauss),
                    ("strong square tau=2.5", 2.5),
                    ("kinked table", kinked_integral())):
        le, ls = effective_couplings(s)
        print(f"{name:24s} int V = {s:.15g}  2tan = {le:.15g}  2tanh = {ls:.15g}")
    for kappa, lam, kind in ((-1, 2 * math.tan(0.5), "electrostatic"),
                             (-1, 1.0, "electrostatic"),
                             (1, 2 * math.tanh(-0.5), "scalar"),
                             (1, -1.0, "scalar")):
        roots = scan_roots(shell_det(kappa, 1.0, 1.0, lam, kind), -0.9999, 0.9999)
        print(f"shell kappa={kappa:+d} lam={lam:.12g} {kind:13s} roots "
              + ", ".join(f"{r:.13g}" for r in roots))
    unit = squeezed(square_profile(1.0, 1.0), 1.0, 0.025)
    det = squeezed_det(-1, 1.0, 1.0, 0.025, unit, "electrostatic")
    print(f"squeezed unit well eps=0.025 kappa=-1 root {root_near(det, -0.5667):.13g}")
