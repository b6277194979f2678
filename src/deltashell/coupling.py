"""Klein-paradox coupling engine.

Discretizes the 1D integral operator

    K_V f(t) = (i/2) u(t) int sign(t-s) v(s) f(s) ds  =  i J f(t)

on (-1, 1), where J is real, and evaluates the effective shell couplings

    lambda_e = int v (1 - K_V^2)^{-1} u = int v (1 + J^2)^{-1} u  (electrostatic)
    lambda_s = int v (1 + K_V^2)^{-1} u = int v (1 - J^2)^{-1} u  (scalar)

in real arithmetic, by direct solve, by Neumann series, and against the
closed forms 2 tan(s / 2) and 2 tanh(s / 2) of the integrated strength
s = int V, whose one home is :func:`effective_coupling`.

Quadrature is composite Gauss-Legendre on panels of about equal length, with
an edge wherever the profile is not smooth (the ends of a table and its nodes
where the slope changes), so every panel sees a smooth integrand. Across
distinct panels sign(t-s) is constant, so plain Nystrom weights are already
spectrally accurate there. Inside a panel the kernel flips sign; those blocks
use exact interpolatory weights int sign(t_i - s) l_j(s) ds built from
antiderivatives of the Lagrange basis. A side effect worth keeping: the
weighted block is exactly antisymmetric, which makes identities like
int v (1+J^2)^{-1} J u = 0 hold at machine precision on the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import get_lapack_funcs, lu_solve

from .potential import PotentialProfile, UVFactorization

DEFAULT_NODES = 128
ILL_CONDITIONED = 1e12
#: the shell kinds: electrostatic (carrier 1) and scalar (carrier beta)
KINDS = ("electrostatic", "scalar")


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
    """Nystrom discretization of K_V = iJ; `matrix` is the real J, weighted."""

    nodes: np.ndarray
    weights: np.ndarray
    matrix: np.ndarray
    hs_norm: float
    u_vals: np.ndarray
    v_vals: np.ndarray


def build_kv(f: UVFactorization, n: int = DEFAULT_NODES) -> KVOperator:
    """Assemble the real Nystrom matrix of J = -i K_V on a composite grid.

    Applying the result to the constant function reproduces the analytic
    J[1] for square wells to machine precision.  Raises ``ValueError``
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
    matrix = 0.5 * u_vals[:, None] * sign_w * v_vals[None, :]

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
    residuals: dict


def lu_cond1(a: np.ndarray):
    """LU factors of the square matrix ``a`` and its 1-norm condition estimate.

    LAPACK ``?getrf`` factors a copy of ``a`` once, and ``?gecon``
    estimates ``||a^-1||_1`` from those factors in O(n^2) (Higham,
    ACM TOMS 14, 1988); the estimate is at most ``cond_1(a)`` and in
    practice within a small factor of it.  An exactly singular ``a``
    reads an infinite condition, and its factors must not be solved
    with.  Returns ``((lu, piv), cond)``, the factors in the form
    :func:`scipy.linalg.lu_solve` takes.
    """
    anorm = float(np.linalg.norm(a, 1))
    if not np.isfinite(anorm):
        raise ValueError("matrix to factor has non-finite entries")
    getrf, gecon = get_lapack_funcs(("getrf", "gecon"), (a,))
    lu, piv, info = getrf(a)
    rcond = float(gecon(lu, anorm, norm="1")[0]) if info == 0 else 0.0
    return (lu, piv), (1.0 / rcond if rcond > 0.0 else np.inf)


def lambda_electrostatic(kv: KVOperator) -> CouplingConstants:
    """lambda_e and lambda_s by direct solves of (I +- J^2) x = u.

    These are the systems (I -+ K_V^2) x = u, as K_V = iJ.  Each is
    factored once (:func:`lu_cond1`), and its 1-norm condition estimate
    from the LU factors is reported as ``cond1_lambda_e`` /
    ``cond1_lambda_s``.
    When the HS bound is >= 1, an estimate above ``ILL_CONDITIONED``
    (an exactly singular system reads infinite) raises
    :class:`NonContractive`.
    """
    jsq = kv.matrix @ kv.matrix
    residuals = {"hs_norm": kv.hs_norm}
    values = {}
    for name, sign in (("lambda_e", 1.0), ("lambda_s", -1.0)):
        op = sign * jsq
        op[np.diag_indices_from(op)] += 1.0
        factors, cond = lu_cond1(op)
        residuals[f"cond1_{name}"] = cond
        if kv.hs_norm >= 1.0 and cond > ILL_CONDITIONED:
            raise NonContractive(
                f"HS bound {kv.hs_norm:.3f} >= 1 and 1-norm condition "
                f"estimate {cond:.2e} > ILL_CONDITIONED = {ILL_CONDITIONED:.0e}")
        x = lu_solve(factors, kv.u_vals)
        residuals[f"solve_residual_{name}"] = float(
            np.linalg.norm(op @ x - kv.u_vals) / max(np.linalg.norm(kv.u_vals), 1e-300)
        )
        values[name] = float(np.sum(kv.weights * kv.v_vals * x))
    return CouplingConstants(values["lambda_e"], values["lambda_s"], residuals)


def lambda_neumann(kv: KVOperator, terms: int) -> CouplingConstants:
    """Partial Neumann sums of t_n = int v J^{2n} u over n <= terms.

    One pass over the powers J^{2n} u gives both couplings: lambda_s
    sums the t_n as a geometric series of J^2, lambda_e with alternating
    signs (1 + J^2 = 1 - K_V^2).  The reported error bound is the
    geometric tail hs^{2(terms+1)} / (1 - hs^2) * ||u|| ||v||, shared
    by both.
    """
    if terms < 0:
        raise ValueError("terms must be nonnegative")
    hs = kv.hs_norm
    if hs >= 1.0:
        raise NonContractive(f"HS bound {hs:.3f} >= 1, Neumann series diverges")

    u_norm = np.sqrt(np.sum(kv.weights * kv.u_vals**2))
    v_norm = np.sqrt(np.sum(kv.weights * kv.v_vals**2))
    y = kv.u_vals
    total_e = total_s = np.sum(kv.weights * kv.v_vals * y)
    for k in range(1, terms + 1):
        y = kv.matrix @ (kv.matrix @ y)
        term = np.sum(kv.weights * kv.v_vals * y)
        total_e += (-1) ** k * term
        total_s += term
    bound = hs ** (2 * (terms + 1)) / (1.0 - hs**2) * u_norm * v_norm

    residuals = {"hs_norm": hs, "error_bound": float(bound), "terms": terms}
    return CouplingConstants(float(total_e), float(total_s), residuals)


def require_kind(kind: str) -> None:
    """Raise ``ValueError`` unless ``kind`` is one of :data:`KINDS`."""
    if kind not in KINDS:
        raise ValueError(f"kind must be {' or '.join(map(repr, KINDS))}")


def effective_coupling(strength: float, kind: str) -> float:
    """2 tan(s/2) (electrostatic) or 2 tanh(s/2) (scalar), s = ``strength``.

    The shell coupling a squeezed well of integral s tends to, s = tau*eta
    for the square well.  An electrostatic |s| >= pi raises ``ValueError``.
    """
    require_kind(kind)
    if kind == "scalar":
        return 2.0 * math.tanh(0.5 * strength)
    if not abs(strength) < math.pi:
        raise ValueError(
            f"integrated strength {strength:g} outside (-pi, pi), the "
            "effective coupling diverges")
    return 2.0 * math.tan(0.5 * strength)
