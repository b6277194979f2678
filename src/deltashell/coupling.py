"""Klein-paradox coupling engine.

Discretizes the 1D integral operator

    K_V f(t) = (i/2) u(t) int sign(t-s) v(s) f(s) ds

on (-1, 1) and evaluates the effective shell couplings

    lambda_e = int v (1 - K_V^2)^{-1} u     (electrostatic)
    lambda_s = int v (1 + K_V^2)^{-1} u     (Lorentz scalar)

by direct solve, by Neumann series, and against the closed forms
2 tan(s / 2) and 2 tanh(s / 2) of the integrated strength s = int V.

Quadrature is composite Gauss-Legendre on panels of about equal length, with
an edge wherever the profile is not smooth (the ends of a table and its nodes
where the slope changes), so every panel sees a smooth integrand. Across
distinct panels sign(t-s) is constant, so plain Nystrom weights are already
spectrally accurate there. Inside a panel the kernel flips sign; those blocks
use exact interpolatory weights int sign(t_i - s) l_j(s) ds built from
antiderivatives of the Lagrange basis. A side effect worth keeping: the
weighted block is exactly antisymmetric, which makes identities like
int v (1-K^2)^{-1} K u = 0 hold at machine precision on the grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .potential import PotentialProfile, UVFactorization

DEFAULT_NODES = 128
IMAG_RESIDUE_TOL = 1e-10
ILL_CONDITIONED = 1e12


class NonContractive(Exception):
    """The Hilbert-Schmidt bound fails and the linear solve is untrustworthy."""


@lru_cache(maxsize=None)
def _panel_rule(order: int):
    """Reference GL nodes/weights plus the exact sign-kernel weight matrix.

    A[i, j] = int_{-1}^{1} sign(xi_i - s) l_j(s) ds with l_j the Lagrange
    basis on the GL nodes; computed from polynomial antiderivatives, so it
    is exact up to roundoff.
    """
    xi, w = np.polynomial.legendre.leggauss(order)
    A = np.empty((order, order))
    for j in range(order):
        lagrange = np.polynomial.Polynomial.fromroots(np.delete(xi, j))
        lagrange = lagrange / lagrange(xi[j])
        L = lagrange.integ()
        A[:, j] = 2.0 * L(xi) - L(-1.0) - L(1.0)
    return xi, w, A


def _smooth_breaks(profile: PotentialProfile) -> np.ndarray:
    """Ends of the pieces of [-1, 1] on which u and v are smooth.

    A table is linear between its nodes, so it is smooth except at its
    ends and at the nodes where the slope changes; a slope change below
    1e-9 of the steepest slope is rounding in the table, not a kink.
    The other kinds are smooth inside their support.
    """
    if profile.kind != "table":
        return np.array([-1.0, 1.0])
    ts, vs = np.asarray(profile.ts), np.asarray(profile.vs)
    slopes = np.diff(vs) / np.diff(ts)
    kinks = ts[1:-1][np.abs(np.diff(slopes)) > 1e-9 * np.max(np.abs(slopes))]
    return np.unique(np.concatenate(
        ([-1.0, 1.0], ts[[0, -1]] / profile.eta, kinks / profile.eta)))


def _panel_layout(n: int, breaks: np.ndarray):
    """Split n nodes over panels of (-1, 1) with edges on the breaks.

    Aims at order ~8: the panel count is the power of two that a dyadic
    split of (-1, 1) would use, shared among the smooth pieces by length,
    at least one panel of 8 nodes per piece.  A single piece gives the
    dyadic split itself.
    """
    pieces = breaks.size - 1
    if n < 8 * pieces:
        raise ValueError(
            f"need at least {8 * pieces} nodes, 8 per smooth piece of the "
            f"profile ({pieces} pieces), got {n}")
    npanels = 1
    while 2 * npanels * 8 <= n:
        npanels *= 2
    counts = np.maximum(1, np.rint(np.diff(breaks) * npanels / 2.0)).astype(int)
    while 8 * counts.sum() > n:
        counts[np.argmax(counts)] -= 1
    edges = np.concatenate(
        [np.linspace(a, b, c + 1)[:-1]
         for a, b, c in zip(breaks[:-1], breaks[1:], counts)] + [breaks[-1:]])
    base, extra = divmod(n, counts.sum())
    orders = [base + 1 if k < extra else base for k in range(counts.sum())]
    return edges, orders


@dataclass(frozen=True)
class KVOperator:
    """Nystrom discretization of K_V; `matrix` already includes the weights."""

    nodes: np.ndarray
    weights: np.ndarray
    matrix: np.ndarray
    hs_norm: float
    u_vals: np.ndarray
    v_vals: np.ndarray

    def apply(self, f_vals: np.ndarray) -> np.ndarray:
        return self.matrix @ f_vals


def build_kv(f: UVFactorization, n: int = DEFAULT_NODES) -> KVOperator:
    """Assemble the N x N Nystrom matrix of K_V on a composite panel grid.

    Applying the result to the constant function reproduces the analytic
    K_V[1] for square wells to machine precision.  Raises ``ValueError``
    when ``n`` cannot give every smooth piece of the profile 8 nodes.
    """
    edges, orders = _panel_layout(n, _smooth_breaks(f.profile))

    nodes, weights, blocks = [], [], []
    for (a, b), order in zip(zip(edges[:-1], edges[1:]), orders):
        xi, w, A = _panel_rule(order)
        half = 0.5 * (b - a)
        nodes.append(0.5 * (a + b) + half * xi)
        weights.append(half * w)
        blocks.append(half * A)
    t = np.concatenate(nodes)
    w = np.concatenate(weights)

    # cross-panel: sign is constant per pair, plain Nystrom weights
    sign_w = np.sign(t[:, None] - t[None, :]) * w[None, :]
    # same-panel: exact interpolatory sign-kernel weights
    pos = 0
    for block in blocks:
        p = block.shape[0]
        sign_w[pos : pos + p, pos : pos + p] = block
        pos += p

    u_vals = np.asarray(f.u(t), dtype=float)
    v_vals = np.asarray(f.v(t), dtype=float)
    matrix = 0.5j * u_vals[:, None] * sign_w * v_vals[None, :]

    # HS norm of the kernel under the same quadrature; sign^2 = 1 a.e.
    hs = 0.5 * np.sqrt(np.sum(w * u_vals**2) * np.sum(w * v_vals**2))
    return KVOperator(
        nodes=t, weights=w, matrix=matrix, hs_norm=float(hs),
        u_vals=u_vals, v_vals=v_vals,
    )


@dataclass(frozen=True)
class CouplingConstants:
    lambda_e: float
    lambda_s: float
    method: str
    residuals: dict


def _real_checked(value: complex, what: str) -> float:
    if abs(value.imag) > IMAG_RESIDUE_TOL:
        raise ValueError(f"{what} has imaginary residue {value.imag:.3e}")
    return float(value.real)


def lambda_electrostatic(kv: KVOperator) -> CouplingConstants:
    """lambda_e and lambda_s by direct solves of (I -+ K^2) x = u."""
    n = kv.matrix.shape[0]
    ksq = kv.matrix @ kv.matrix
    eye = np.eye(n)
    residuals = {"hs_norm": kv.hs_norm}
    values = {}
    for name, op in (("lambda_e", eye - ksq), ("lambda_s", eye + ksq)):
        cond = np.linalg.cond(op)
        residuals[f"cond_{name}"] = float(cond)
        if kv.hs_norm >= 1.0 and cond > ILL_CONDITIONED:
            raise NonContractive(
                f"HS bound {kv.hs_norm:.3f} >= 1 and condition {cond:.2e} > {ILL_CONDITIONED:.0e}"
            )
        x = np.linalg.solve(op, kv.u_vals.astype(complex))
        residuals[f"solve_residual_{name}"] = float(
            np.linalg.norm(op @ x - kv.u_vals) / max(np.linalg.norm(kv.u_vals), 1e-300)
        )
        raw = np.sum(kv.weights * kv.v_vals * x)
        residuals[f"imag_residue_{name}"] = float(abs(raw.imag))
        values[name] = _real_checked(raw, name)
    return CouplingConstants(
        lambda_e=values["lambda_e"], lambda_s=values["lambda_s"],
        method="direct-solve", residuals=residuals,
    )


def lambda_neumann(kv: KVOperator, terms: int) -> CouplingConstants:
    """Partial Neumann sums sum_{n<=terms} (+-1)^n int v K^{2n} u.

    One pass over the powers K^{2n} u gives both couplings: lambda_e
    sums them as a geometric series of K^2, lambda_s with alternating
    signs.  The reported error bound is the geometric tail
    hs^{2(terms+1)} / (1 - hs^2) * ||u|| ||v||, shared by both.
    """
    if terms < 0:
        raise ValueError("terms must be nonnegative")
    hs = kv.hs_norm
    if hs >= 1.0:
        raise NonContractive(f"HS bound {hs:.3f} >= 1, Neumann series diverges")

    u_norm = np.sqrt(np.sum(kv.weights * kv.u_vals**2))
    v_norm = np.sqrt(np.sum(kv.weights * kv.v_vals**2))
    y = kv.u_vals.astype(complex)
    total_e = total_s = np.sum(kv.weights * kv.v_vals * y)
    for k in range(1, terms + 1):
        y = kv.matrix @ (kv.matrix @ y)
        term = np.sum(kv.weights * kv.v_vals * y)
        total_e += term
        total_s += (-1) ** k * term
    bound = hs ** (2 * (terms + 1)) / (1.0 - hs**2) * u_norm * v_norm

    residuals = {
        "hs_norm": hs,
        "error_bound": float(bound),
        "terms": terms,
        "imag_residue": float(max(abs(total_e.imag), abs(total_s.imag))),
    }
    return CouplingConstants(_real_checked(total_e, "neumann sum"),
                             _real_checked(total_s, "neumann sum"),
                             "neumann", residuals)


def closed_form_couplings(theta: float) -> tuple[float, float]:
    """Closed forms (2 tan(theta/2), 2 tanh(theta/2)), theta = int V.

    The couplings depend on the profile only through its integral, which
    is tau*eta for the square well.
    """
    if abs(theta) >= np.pi:
        raise ValueError(f"tan closed form needs |int V| < pi, got {theta}")
    return 2.0 * np.tan(0.5 * theta), 2.0 * np.tanh(0.5 * theta)
