"""Radial spectral analysis of the spherical shell interaction.

The spherical problem splits into spin-orbit channels indexed by a
nonzero integer kappa.  Each channel is a first-order system on the
half-line for the radial 2-spinor psi = (G, F),

    G' = +(kappa/r) G + (a + m + V_s - V_e) F
    F' = -(kappa/r) F - (a - m - V_s - V_e) G,

with an electrostatic (V_e) or scalar (V_s) potential.  A singular
shell at r = R turns into a 2x2 transmission matrix psi(R+) = M psi(R-)
via a Cayley transform of the channel coupling generator; a squeezed
potential of width 2 eps turns into an exact matrix-exponential
transfer.  Gap eigenvalues a in (-m, m) are roots of the matching
determinant between the regular inner solution and the decaying outer
solution.  The channel solutions and the squeezed transfer take a
scalar trial energy or an array of them, so the determinant is
evaluated on a whole scan grid in one call.  The free channel
solutions are the modified spherical Bessel closed forms; an
ODE-integrated power-series route lives in the tests as their oracle.
The Klein convergence study compares the squeezed eigenvalues against
the shell eigenvalue at the nonlinear effective coupling
2 tan(strength/2) (electrostatic) or 2 tanh(strength/2) (scalar), and
against the naive linear coupling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import brentq
from scipy.special import spherical_in, spherical_kn

from . import CheckFailed
from .coupling import effective_coupling, require_kind
from .potential import PotentialProfile, SqueezedFamily, squeeze

#: couplings this close to +-2 make the matching matrix unusable
COUPLING_SINGULARITY_TOL = 1e-12
#: default sub-panel count for squeezed transfer matrices
TRANSFER_PANELS = 400
#: relative margin keeping the default scan inside the open gap (-m, m)
GAP_MARGIN = 1e-4
#: default number of scan points when bracketing matching-determinant roots
SCAN_STEPS = 241
#: below this error level the squeezed sequence counts as converged
GAP_FLOOR = 1e-9

#: channel generator of the electrostatic coupling (a rotation)
ROTATION_GENERATOR = np.array([[0.0, -1.0], [1.0, 0.0]])
#: channel generator of the scalar coupling (a boost)
BOOST_GENERATOR = np.array([[0.0, 1.0], [1.0, 0.0]])


class CriticalCoupling(ValueError):
    """Coupling at which the shell transmission matrix degenerates."""


@dataclass(frozen=True)
class ChannelSystem:
    """One spin-orbit channel: kappa, mass, shell radius."""

    kappa: int
    m: float = 1.0
    R: float = 1.0

    def __post_init__(self) -> None:
        if int(self.kappa) != self.kappa or self.kappa == 0:
            raise ValueError(f"kappa must be a nonzero integer, got {self.kappa}")
        for name, value in (("m", self.m), ("R", self.R)):
            if not 0.0 < value < math.inf:
                raise ValueError(
                    f"{name} must be positive and finite, got {value}")


def rotation(angle: float) -> np.ndarray:
    """Rotation of the (G, F) plane by ``angle``."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def shell_matching(lam: float, kind: str) -> np.ndarray:
    """2x2 link psi(R+) = M psi(R-) of the singular shell at coupling ``lam``.

    Cayley form M = (I - (lam/2) J)^-1 (I + (lam/2) J).  The
    electrostatic generator squares to -I, so M is the rotation by
    2 arctan(lam/2); the scalar generator squares to +I and gives the
    hyperbolic analogue.  Both are unimodular.  The couplings +-2 are
    excluded: the scalar Cayley denominator is singular there, and the
    electrostatic shell at +-2 decouples the two sides entirely.
    """
    require_kind(kind)
    lam = float(lam)
    if not math.isfinite(lam):
        raise ValueError(f"coupling lam must be finite, got {lam}")
    if abs(abs(lam) - 2.0) < COUPLING_SINGULARITY_TOL:
        raise CriticalCoupling(f"coupling {lam:g} is a critical value (+-2)")
    gen = ROTATION_GENERATOR if kind == "electrostatic" else BOOST_GENERATOR
    half = 0.5 * lam * gen
    return np.linalg.solve(np.eye(2) - half, np.eye(2) + half)


# ---------------------------------------------------------------------------
# channel solutions in the spectral gap


def _bessel_orders(kappa: int) -> tuple:
    if kappa < 0:
        return -kappa, -kappa - 1
    return kappa - 1, kappa


def _gap_momentum(ch: ChannelSystem, a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    outside = ~(np.abs(a) < ch.m)
    if outside.any():
        first = float(a[outside].flat[0])
        raise ValueError(
            f"trial energy {first} outside the spectral gap (-{ch.m}, {ch.m})")
    return np.sqrt(ch.m * ch.m - a * a)


def _unit(g: np.ndarray, f: np.ndarray) -> np.ndarray:
    psi = np.stack([g, f], axis=-1)
    return psi / np.linalg.norm(psi, axis=-1, keepdims=True)


def inner_solution(ch: ChannelSystem, a, r: float) -> np.ndarray:
    """Regular-at-origin channel solution (G, F) at radius r, unit norm.

    A scalar energy gives shape (2,); an array of energies gives
    ``a.shape + (2,)``.
    """
    k = _gap_momentum(ch, a)
    lg, lf = _bessel_orders(ch.kappa)
    return _unit(r * spherical_in(lg, k * r),
                 k * r * spherical_in(lf, k * r) / (a + ch.m))


def outer_solution(ch: ChannelSystem, a, r: float) -> np.ndarray:
    """Decaying-at-infinity channel solution (G, F) at radius r, unit norm.

    Shapes as in ``inner_solution``.
    """
    k = _gap_momentum(ch, a)
    lg, lf = _bessel_orders(ch.kappa)
    return _unit(r * spherical_kn(lg, k * r),
                 -k * r * spherical_kn(lf, k * r) / (a + ch.m))


# ---------------------------------------------------------------------------
# squeezed transfer matrices


def _panel_expm(h: float, p, q, s) -> np.ndarray:
    """exp(h [[p, q], [s, -p]]) of traceless panel matrices, exactly.

    ``p``, ``q`` and ``s`` broadcast against each other; the result has
    their common shape + (2, 2).
    """
    hw = h * np.sqrt(np.asarray(p * p + q * s, dtype=complex))
    c = np.cosh(hw).real
    small = np.abs(hw) < 1e-6
    # the series branch also covers hw = 0, so no 0/0 is ever formed
    sig = np.where(small, h * (1.0 + hw * hw / 6.0),
                   h * np.sinh(hw) / np.where(small, 1.0, hw)).real
    return np.stack([c + sig * p, sig * q, sig * s, c - sig * p],
                    axis=-1).reshape(hw.shape + (2, 2))


def _ordered_product(mats: np.ndarray) -> np.ndarray:
    """M[n-1] @ ... @ M[1] @ M[0] over the axis -3, by a pairwise tree.

    A level of odd length gets the identity as its last (leftmost) factor.
    """
    while mats.shape[-3] > 1:
        if mats.shape[-3] % 2:
            pad = np.broadcast_to(np.eye(2), mats.shape[:-3] + (1, 2, 2))
            mats = np.concatenate([mats, pad], axis=-3)
        mats = mats[..., 1::2, :, :] @ mats[..., 0::2, :, :]
    return mats[..., 0, :, :]


#: bytes of panel matrices (one 2x2 float64, 32 bytes, per panel and
#: energy) built at once; energies are taken in blocks that fit, which
#: keeps the peak memory of a whole scan grid near that of one energy
_PANEL_BLOCK_BYTES = 1 << 17


def transfer_through_squeezed(ch: ChannelSystem, a,
                              family: SqueezedFamily, kind: str,
                              sub_panels: int = TRANSFER_PANELS) -> np.ndarray:
    """Transfer matrix psi(R+eps) = T psi(R-eps) through a squeezed well.

    The radial system at energy ``a`` with the potential added to the
    channel coefficients is integrated by exact exponentials of the panel
    matrices, coefficients frozen at panel midpoints, and the panel
    exponentials are multiplied by a pairwise tree.  For square wells
    the potential term is exact; the kappa/r variation contributes
    O(panel width^2).

    ``a`` is a scalar, giving shape (2, 2), or an array of energies,
    giving ``a.shape + (2, 2)``; energies are taken a block at a time.
    """
    require_kind(kind)
    if sub_panels < 16:
        raise ValueError("at least 16 sub-panels required")
    w = family.epsilon
    if ch.R - w <= 0.0:
        raise ValueError(f"squeezed support [{ch.R - w:g}, {ch.R + w:g}] "
                         "reaches the origin")
    edges = np.linspace(ch.R - w, ch.R + w, sub_panels + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    h = edges[1] - edges[0]
    v = np.asarray(family(mids - ch.R), dtype=float)
    ve = v if kind == "electrostatic" else np.zeros_like(v)
    vs = v if kind == "scalar" else np.zeros_like(v)
    p = ch.kappa / mids
    a = np.asarray(a, dtype=float)
    energies = a.reshape(-1, 1)
    out = np.empty((len(energies), 2, 2))
    block = max(1, _PANEL_BLOCK_BYTES // (32 * sub_panels))
    for start in range(0, len(energies), block):
        e = energies[start:start + block]
        cp = e + ch.m + vs - ve
        cm = e - ch.m - vs - ve
        out[start:start + block] = _ordered_product(
            _panel_expm(h, p, cp, -cm))
    return out.reshape(a.shape + (2, 2))


# ---------------------------------------------------------------------------
# gap eigenvalues


@dataclass(frozen=True)
class SpectralResult:
    """Gap eigenvalues of one channel with residuals and brackets."""

    eigenvalues: tuple
    residuals: tuple
    brackets: tuple

    def __len__(self) -> int:
        return len(self.eigenvalues)


def find_gap_eigenvalues(ch: ChannelSystem, matching,
                         scan: tuple | None = None,
                         half_width: float = 0.0) -> SpectralResult:
    """Roots of det[psi_out(R+w), M psi_in(R-w)] inside the gap.

    ``matching`` is a 2x2 matrix (the shell's), which broadcasts over
    energies, or a callable (a squeezed transfer, which depends on the
    energy) mapping an array of trial energies of any shape to an array
    of that shape + (2, 2), and a scalar energy to one 2x2 matrix.
    ``scan`` is (a_min, a_max, steps); the determinant is evaluated on
    the whole scan grid in one call, and each sign change on it is
    refined by Brent's method (``brentq``) to 1e-12 through the same
    function at scalar energies.  An empty result is valid: no sign
    change means no eigenvalue in the window.
    """
    if scan is None:
        edge = (1.0 - GAP_MARGIN) * ch.m
        scan = (-edge, edge, SCAN_STEPS)
    a_lo, a_hi, steps = float(scan[0]), float(scan[1]), int(scan[2])
    if not -ch.m < a_lo < a_hi < ch.m:
        raise ValueError(f"scan window ({a_lo}, {a_hi}) must sit inside "
                         f"(-{ch.m}, {ch.m})")
    if steps < 2:
        raise ValueError("scan needs at least 2 steps")
    fixed = None
    if not callable(matching):
        fixed = np.asarray(matching, dtype=float)
        if fixed.shape != (2, 2):
            raise ValueError(f"matching matrix must be 2x2, got {fixed.shape}")
    r_in, r_out = ch.R - half_width, ch.R + half_width

    def det(a):
        pin = inner_solution(ch, a, r_in)
        pout = outer_solution(ch, a, r_out)
        mat = fixed
        if mat is None:
            mat = np.asarray(matching(a), dtype=float)
            if mat.shape != np.shape(a) + (2, 2):
                raise ValueError(
                    "matching callable must give one 2x2 matrix per energy: "
                    f"shape {np.shape(a) + (2, 2)} expected, got {mat.shape}")
        mp = (mat @ pin[..., None])[..., 0]
        return pout[..., 0] * mp[..., 1] - pout[..., 1] * mp[..., 0]

    def det_at(a: float) -> float:
        return float(det(a))

    grid = np.linspace(a_lo, a_hi, steps)
    vals = det(grid)
    eigs, resids, brackets = [], [], []
    for i in range(steps):
        lo = grid[i]
        if vals[i] == 0.0:
            eigs.append(float(lo))
            resids.append(0.0)
            brackets.append((float(lo), float(lo)))
        elif i + 1 < steps and vals[i] * vals[i + 1] < 0.0:
            hi = grid[i + 1]
            root = brentq(det_at, lo, hi, xtol=1e-12, rtol=8.9e-16)
            eigs.append(float(root))
            resids.append(abs(det_at(root)))
            brackets.append((float(lo), float(hi)))
    return SpectralResult(tuple(eigs), tuple(resids), tuple(brackets))


# ---------------------------------------------------------------------------
# Klein convergence study


@dataclass(frozen=True)
class KleinStudy:
    """Squeezed eigenvalues against the two candidate shell couplings."""

    rows: tuple
    kind: str
    strength: float
    coupling_effective: float
    coupling_linear: float
    a_nonlinear: float
    a_linear: float
    slope: float
    monotone_path: bool

    def csv(self) -> str:
        lines = ["epsilon,a_eps,a_nonlinear,a_linear,gap"]
        for eps, a_eps, gap in self.rows:
            lines.append(f"{eps:.10g},{a_eps:.12g},{self.a_nonlinear:.12g},"
                         f"{self.a_linear:.12g},{gap:.10g}")
        return "\n".join(lines) + "\n"

    def summary(self) -> dict:
        """Scalar results of the study, keyed by name."""
        return {
            "strength": self.strength,
            "coupling_effective": self.coupling_effective,
            "coupling_linear": self.coupling_linear,
            "a_nonlinear": self.a_nonlinear,
            "a_linear": self.a_linear,
            "slope": self.slope,
            "monotone_path": self.monotone_path,
            "separation": abs(self.a_nonlinear - self.a_linear),
        }


def _single_root(ch: ChannelSystem, matching, half_width: float,
                 near: float | None = None) -> float:
    res = find_gap_eigenvalues(ch, matching, half_width=half_width)
    if len(res) == 0:
        raise ValueError("no gap eigenvalue in the scan window")
    if near is None:
        if len(res) > 1:
            raise ValueError(f"{len(res)} eigenvalues in the scan window; "
                             "narrow the scan")
        return res.eigenvalues[0]
    return min(res.eigenvalues, key=lambda e: abs(e - near))


def klein_convergence_study(profile: PotentialProfile,
                            eps_list: Sequence[float],
                            kappa: int = -1, m: float = 1.0, R: float = 1.0,
                            kind: str = "electrostatic",
                            sub_panels: int = TRANSFER_PANELS) -> KleinStudy:
    """Track squeezed gap eigenvalues down an epsilon sequence.

    For each eps the squeezed well transfer replaces the shell matching
    and the gap eigenvalue a(eps) is recomputed.  The study reports the
    error against the shell eigenvalue at the nonlinear effective
    coupling (tan for electrostatic, tanh for scalar wells) and the
    distance to the eigenvalue at the naive linear coupling.  It asserts
    two things, each raising :class:`CheckFailed`: the error decreases
    from width to width while both errors are above ``GAP_FLOOR``, and
    its log-log slope in eps is above 0.3 while the last error is above
    100 ``GAP_FLOOR``.

    The error is first order in eps (about ``1.0 * eps`` for the unit
    square well at kappa = -1).  Once the path has passed the naive
    root, its distance to it is the separation minus the error, so the
    margin from the naive root at a fixed width is bounded by
    ``separation / error - 1`` however well the sequence converges.  A
    margin is a statement about the limit and belongs to the caller
    (the acceptance battery judges it on the Richardson extrapolation of
    the last two widths).
    """
    strength = profile.integral()
    lam_eff = effective_coupling(strength, kind)
    if strength == 0.0:
        raise ValueError("integrated strength vanishes")
    eps = [float(e) for e in eps_list]
    if not eps:
        raise ValueError("need at least one epsilon")
    if any(b >= a for a, b in zip(eps, eps[1:])):
        raise ValueError("epsilon list must be strictly decreasing")
    if eps[0] > profile.eta:
        raise ValueError("largest epsilon exceeds the profile support")
    ch = ChannelSystem(kappa, m, R)
    lam_lin = strength
    a_eff = _single_root(ch, shell_matching(lam_eff, kind), 0.0)
    a_lin = _single_root(ch, shell_matching(lam_lin, kind), 0.0)

    rows = []
    for e in eps:
        fam = squeeze(profile, e)

        def squeezed(a: float, fam=fam) -> np.ndarray:
            return transfer_through_squeezed(ch, a, fam, kind, sub_panels)

        a_eps = _single_root(ch, squeezed, e, near=a_eff)
        rows.append((e, a_eps, abs(a_eps - a_eff)))

    gaps = [gap for _, _, gap in rows]
    for prev, cur in zip(gaps, gaps[1:]):
        if prev > GAP_FLOOR and cur > GAP_FLOOR and not cur < prev:
            raise CheckFailed(
                f"error to the effective coupling increased: "
                f"{prev:.3e} -> {cur:.3e}")
    slope = float("nan")
    if len(eps) >= 2 and all(g > 0 for g in gaps):
        slope = float(np.polyfit(np.log(eps), np.log(gaps), 1)[0])
        if gaps[-1] > 100.0 * GAP_FLOOR and not slope > 0.3:
            raise CheckFailed(
                f"error does not decay with epsilon: slope {slope:.3f}; "
                "the sequence may be stalling at the wrong coupling")
    path = [a for _, a, _ in rows]
    diffs = np.diff(path)
    monotone = bool(np.all(diffs >= 0.0) or np.all(diffs <= 0.0))
    return KleinStudy(tuple(rows), kind, strength, lam_eff, lam_lin,
                      a_eff, a_lin, slope, monotone)
