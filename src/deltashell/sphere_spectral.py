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
solution.  The free channel solutions are the modified spherical Bessel
closed forms; an ODE-integrated power-series route lives in the tests
as their oracle.  The Klein convergence study compares the squeezed
eigenvalues against the shell eigenvalue at the nonlinear effective
coupling 2 tan(strength/2) (electrostatic) or 2 tanh(strength/2)
(scalar), and against the naive linear coupling.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import brentq
from scipy.special import spherical_in, spherical_kn

from . import CheckFailed
from .potential import PotentialProfile, SqueezedFamily, squeeze

__all__ = [
    "CriticalCoupling",
    "ChannelSystem",
    "TransmissionMatrix",
    "SpectralResult",
    "KleinStudy",
    "rotation",
    "shell_matching",
    "inner_solution",
    "outer_solution",
    "transfer_through_squeezed",
    "find_gap_eigenvalues",
    "klein_convergence_study",
]

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


def _require_kind(kind: str) -> None:
    if kind not in ("electrostatic", "scalar"):
        raise ValueError("kind must be 'electrostatic' or 'scalar'")


@dataclass(frozen=True)
class ChannelSystem:
    """One spin-orbit channel: kappa, mass, shell radius, trial energy."""

    kappa: int
    m: float = 1.0
    R: float = 1.0
    a: float | None = None

    def __post_init__(self) -> None:
        if int(self.kappa) != self.kappa or self.kappa == 0:
            raise ValueError(f"kappa must be a nonzero integer, got {self.kappa}")
        if self.m <= 0 or self.R <= 0:
            raise ValueError("mass and radius must be positive")
        if self.a is not None and not -self.m < self.a < self.m:
            raise ValueError(
                f"trial energy {self.a} outside the spectral gap "
                f"(-{self.m}, {self.m})")


@dataclass(frozen=True)
class TransmissionMatrix:
    """2x2 link psi(R+) = matrix psi(R-) produced by a singular shell."""

    matrix: np.ndarray
    kind: str
    lam: float

    def __post_init__(self) -> None:
        mat = np.asarray(self.matrix, dtype=float)
        if mat.shape != (2, 2):
            raise ValueError("transmission matrix must be 2x2")
        object.__setattr__(self, "matrix", mat)


def rotation(angle: float) -> np.ndarray:
    """Rotation of the (G, F) plane by ``angle``."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def shell_matching(lam: float, kind: str) -> TransmissionMatrix:
    """Transmission matrix of the singular shell at coupling ``lam``.

    Cayley form M = (I - (lam/2) J)^-1 (I + (lam/2) J).  The
    electrostatic generator squares to -I, so M is the rotation by
    2 arctan(lam/2); the scalar generator squares to +I and gives the
    hyperbolic analogue.  Both are unimodular.  The couplings +-2 are
    excluded: the scalar Cayley denominator is singular there, and the
    electrostatic shell at +-2 decouples the two sides entirely.
    """
    _require_kind(kind)
    lam = float(lam)
    if abs(abs(lam) - 2.0) < COUPLING_SINGULARITY_TOL:
        raise CriticalCoupling(f"coupling {lam:g} is a critical value (+-2)")
    gen = ROTATION_GENERATOR if kind == "electrostatic" else BOOST_GENERATOR
    half = 0.5 * lam * gen
    mat = np.linalg.solve(np.eye(2) - half, np.eye(2) + half)
    return TransmissionMatrix(mat, kind, lam)


# ---------------------------------------------------------------------------
# channel solutions in the spectral gap


def _bessel_orders(kappa: int) -> tuple:
    if kappa < 0:
        return -kappa, -kappa - 1
    return kappa - 1, kappa


def _gap_momentum(ch: ChannelSystem, a: float) -> float:
    if not -ch.m < a < ch.m:
        raise ValueError(f"trial energy {a} outside the gap")
    return math.sqrt(ch.m * ch.m - a * a)


def inner_solution(ch: ChannelSystem, a: float, r: float) -> np.ndarray:
    """Regular-at-origin channel solution (G, F) at radius r, unit norm."""
    k = _gap_momentum(ch, a)
    lg, lf = _bessel_orders(ch.kappa)
    psi = np.array([r * spherical_in(lg, k * r),
                    k * r * spherical_in(lf, k * r) / (a + ch.m)])
    return psi / np.linalg.norm(psi)


def outer_solution(ch: ChannelSystem, a: float, r: float) -> np.ndarray:
    """Decaying-at-infinity channel solution (G, F) at radius r, unit norm."""
    k = _gap_momentum(ch, a)
    lg, lf = _bessel_orders(ch.kappa)
    psi = np.array([r * spherical_kn(lg, k * r),
                    -k * r * spherical_kn(lf, k * r) / (a + ch.m)])
    return psi / np.linalg.norm(psi)


# ---------------------------------------------------------------------------
# squeezed transfer matrices


def _panel_expm(h: float, p: float, q: float, s: float) -> np.ndarray:
    """exp(h [[p, q], [s, -p]]) of a traceless panel matrix, exactly."""
    w = np.sqrt(complex(p * p + q * s))
    hw = h * w
    c = np.cosh(hw)
    if abs(hw) < 1e-6:
        sig = h * (1.0 + hw * hw / 6.0)
    else:
        sig = h * np.sinh(hw) / hw
    return np.array([[c + sig * p, sig * q], [sig * s, c - sig * p]]).real


def transfer_through_squeezed(ch: ChannelSystem, family: SqueezedFamily,
                              kind: str,
                              sub_panels: int = TRANSFER_PANELS) -> np.ndarray:
    """Transfer matrix psi(R+eps) = T psi(R-eps) through a squeezed well.

    The radial system with the potential added to the channel
    coefficients is integrated by exact exponentials of the panel
    matrices, coefficients frozen at panel midpoints.  For square wells
    the potential term is exact; the kappa/r variation contributes
    O(panel width^2).
    """
    _require_kind(kind)
    if ch.a is None:
        raise ValueError("channel needs a trial energy a")
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
    cp = ch.a + ch.m + vs - ve
    cm = ch.a - ch.m - vs - ve
    p = ch.kappa / mids
    out = np.eye(2)
    for j in range(sub_panels):
        out = _panel_expm(h, p[j], cp[j], -cm[j]) @ out
    return out


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

    ``matching`` is a TransmissionMatrix or a callable mapping the trial
    energy to a 2x2 matrix (used for squeezed transfers, which depend on
    the energy).  ``scan`` is (a_min, a_max, steps); each sign change of
    the determinant on the scan grid is refined by Brent's method
    (``brentq``) to 1e-12.  An empty result is valid: no sign change
    means no eigenvalue in the window.
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
    fixed = isinstance(matching, TransmissionMatrix)
    r_in, r_out = ch.R - half_width, ch.R + half_width

    def det(a: float) -> float:
        pin = inner_solution(ch, a, r_in)
        pout = outer_solution(ch, a, r_out)
        mp = (matching.matrix if fixed else matching(a)) @ pin
        return float(pout[0] * mp[1] - pout[1] * mp[0])

    grid = np.linspace(a_lo, a_hi, steps)
    vals = np.array([det(a) for a in grid])
    eigs, resids, brackets = [], [], []
    for i in range(steps):
        lo = grid[i]
        if vals[i] == 0.0:
            eigs.append(float(lo))
            resids.append(0.0)
            brackets.append((float(lo), float(lo)))
        elif i + 1 < steps and vals[i] * vals[i + 1] < 0.0:
            hi = grid[i + 1]
            root = brentq(det, lo, hi, xtol=1e-12, rtol=8.9e-16)
            eigs.append(float(root))
            resids.append(abs(det(root)))
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

    def json_summary(self) -> str:
        """The summary as strict JSON: a non-finite figure becomes null."""
        doc = {key: None if isinstance(value, float) and not math.isfinite(value)
               else value for key, value in self.summary().items()}
        doc["kind"] = self.kind
        doc["epsilons"] = [eps for eps, _, _ in self.rows]
        doc["gaps"] = [gap for _, _, gap in self.rows]
        return json.dumps(doc, sort_keys=True, indent=2)


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
    distance to the eigenvalue at the naive linear coupling.  The error
    sequence must decrease monotonically above the floor and keep a
    positive log-log slope; once the error falls below half the
    separation of the two shell eigenvalues, the run must sit closer to
    the effective root than to the naive one.

    The error is first order in eps (about ``1.0 * eps`` for the unit
    square well at kappa = -1).  Once the path has passed the naive
    root, its distance to it is the separation minus the error, so the
    margin from the naive root at a fixed width is bounded by
    ``separation / error - 1`` however well the sequence converges.
    That 1x check is all this function asserts; a stronger margin is a
    statement about the limit and belongs to the caller (the acceptance
    battery judges it on the Richardson extrapolation of the last two
    widths).
    """
    _require_kind(kind)
    strength = profile.integral()
    if strength == 0.0:
        raise ValueError("integrated strength vanishes")
    if kind == "electrostatic" and not abs(strength) < math.pi:
        raise ValueError(
            f"integrated strength {strength:g} outside (-pi, pi), the "
            "effective coupling diverges")
    eps = [float(e) for e in eps_list]
    if not eps:
        raise ValueError("need at least one epsilon")
    if any(b >= a for a, b in zip(eps, eps[1:])):
        raise ValueError("epsilon list must be strictly decreasing")
    if eps[0] > profile.eta:
        raise ValueError("largest epsilon exceeds the profile support")
    ch = ChannelSystem(kappa, m, R)
    if kind == "electrostatic":
        lam_eff = 2.0 * math.tan(0.5 * strength)
    else:
        lam_eff = 2.0 * math.tanh(0.5 * strength)
    lam_lin = strength
    a_eff = _single_root(ch, shell_matching(lam_eff, kind), 0.0)
    a_lin = _single_root(ch, shell_matching(lam_lin, kind), 0.0)

    rows = []
    for e in eps:
        fam = squeeze(profile, e)

        def squeezed(a: float, fam=fam) -> np.ndarray:
            trial = ChannelSystem(kappa, m, R, a)
            return transfer_through_squeezed(trial, fam, kind, sub_panels)

        a_eps = _single_root(ch, squeezed, e, near=a_eff)
        rows.append((e, a_eps, abs(a_eps - a_eff)))

    gaps = [gap for _, _, gap in rows]
    for prev, cur in zip(gaps, gaps[1:]):
        if prev > GAP_FLOOR and cur > GAP_FLOOR and not cur < prev:
            raise CheckFailed(
                f"error to the effective coupling increased: "
                f"{prev:.3e} -> {cur:.3e}")
    # once the error drops below half the eigenvalue separation, the
    # sequence is provably closer to the effective coupling's root than
    # to the naive one; before that the path may legitimately cross it
    sep = abs(a_eff - a_lin)
    if gaps[-1] < 0.5 * sep:
        final = abs(rows[-1][1] - a_lin)
        if not final > gaps[-1]:
            raise CheckFailed(
                f"converged run sits closer to the naive coupling: "
                f"distance {final:.3e} vs error {gaps[-1]:.3e}")
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
