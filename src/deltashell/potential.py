"""1D potential profiles, their smallness class, u-v factorization, squeezing.

A profile is a bounded real function V supported in [-eta, eta]: a
truncated Gaussian, or a table linear between its nodes. A square well
is the two-node table. The factorization u(t) = |eta V(eta t)|^{1/2},
v(t) = sign(V(eta t)) u(t) lives on [-1, 1] and satisfies
u v = eta V(eta .). Squeezing rescales the profile onto [-eps, eps] at
fixed integral: V_eps(t) = (eta/eps) V(eta t / eps).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erf

#: grid size used for the sampled sup-norm estimate
SUP_GRID = 10_000


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class PotentialProfile:
    """Real potential on [-eta, eta]; construct via the module helpers."""

    kind: str
    eta: float
    amp: float = 0.0
    sigma: float = 0.0
    ts: tuple = ()
    vs: tuple = ()

    def __post_init__(self):
        _require_finite("eta", self.eta)
        if self.eta <= 0:
            raise ValueError(
                f"support half-width eta must be positive, got {self.eta}")
        if self.kind == "gaussian":
            _require_finite("amp", self.amp)
            _require_finite("sigma", self.sigma)
            if self.sigma <= 0:
                raise ValueError(f"sigma must be positive, got {self.sigma}")
        elif self.kind == "table":
            ts = np.asarray(self.ts, dtype=float)
            vs = np.asarray(self.vs, dtype=float)
            if ts.size < 2 or ts.size != vs.size:
                raise ValueError("tabulated profile needs matching ts/vs, len >= 2")
            for name, values in (("ts", ts), ("vs", vs)):
                if not np.all(np.isfinite(values)):
                    raise ValueError(f"table {name} must be finite")
            if np.any(np.diff(ts) <= 0):
                raise ValueError("table nodes must be strictly increasing")
            if ts[0] < -self.eta or ts[-1] > self.eta:
                raise ValueError("table nodes must lie inside [-eta, eta]")
            object.__setattr__(self, "ts", tuple(float(t) for t in ts))
            object.__setattr__(self, "vs", tuple(float(v) for v in vs))
        else:
            raise ValueError(f"unknown profile kind {self.kind!r}")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "gaussian":
            out = np.where(np.abs(t) <= self.eta,
                           self.amp * np.exp(-(t * t) / (2.0 * self.sigma**2)), 0.0)
        else:
            out = np.interp(t, self.ts, self.vs, left=0.0, right=0.0)
        return out if out.ndim else float(out)

    def sup_norm(self) -> float:
        """Analytic sup where the shape allows it, else the node max."""
        if self.kind == "gaussian":
            return abs(self.amp)
        return float(np.max(np.abs(self.vs)))

    def integral(self) -> float:
        if self.kind == "gaussian":
            return self.amp * self.sigma * np.sqrt(2.0 * np.pi) * erf(
                self.eta / (np.sqrt(2.0) * self.sigma)
            )
        return float(np.trapezoid(self.vs, self.ts))


def square_well(tau: float, eta: float) -> PotentialProfile:
    """Height tau/2 on [-eta, eta], the two-node table; integral tau*eta."""
    _require_finite("tau", tau)
    return from_table((-eta, eta), (0.5 * tau, 0.5 * tau), eta)


def truncated_gaussian(amp: float, sigma: float, eta: float) -> PotentialProfile:
    return PotentialProfile(kind="gaussian", eta=eta, amp=amp, sigma=sigma)


def from_table(ts, vs, eta: float | None = None) -> PotentialProfile:
    eta = max(abs(ts[0]), abs(ts[-1])) if eta is None else eta
    return PotentialProfile(kind="table", eta=eta, ts=tuple(ts), vs=tuple(vs))


def profile_from_json(doc: str) -> PotentialProfile:
    """The profile a JSON object describes, keyed by its ``kind``.

    - ``{"kind": "square", "tau": ..., "eta": ...}``: the square well;
    - ``{"kind": "gaussian", "amp": ..., "sigma": ..., "eta": ...}``;
    - ``{"kind": "table", "ts": [...], "vs": [...], "eta": ...}``, linear
      between its nodes; ``"pwlinear"`` is an older name of the table.

    Raises ``ValueError`` when the document is not a JSON object, names
    an unknown kind, or lacks a key its kind needs or gives it a value
    of the wrong type (the key is named): each value is a number, not a
    bool, and ``ts`` and ``vs`` are lists of numbers.
    """
    d = json.loads(doc)
    if not isinstance(d, dict):
        raise ValueError("a potential profile must be a JSON object")

    def get(key):
        if key not in d:
            raise ValueError(f"potential profile has no {key!r} key")
        return d[key]

    def is_number(value) -> bool:
        return isinstance(value, (int, float)) and not isinstance(value, bool)

    def number(key) -> float:
        value = get(key)
        if not is_number(value):
            raise ValueError(
                f"potential profile key {key!r} must be a number, got {value!r}")
        return value

    def numbers(key) -> list:
        value = get(key)
        if not (isinstance(value, list) and all(map(is_number, value))):
            raise ValueError(f"potential profile key {key!r} must be a list "
                             f"of numbers, got {value!r}")
        return value

    kind = get("kind")
    if kind == "square":
        return square_well(number("tau"), number("eta"))
    if kind == "gaussian":
        return truncated_gaussian(number("amp"), number("sigma"), number("eta"))
    if kind in ("pwlinear", "table"):
        return from_table(numbers("ts"), numbers("vs"), number("eta"))
    raise ValueError(f"unknown profile kind {kind!r}")


def is_delta_eta_small(p: PotentialProfile, delta: float) -> bool:
    """True iff supp V in [-eta, eta] (by construction) and ||V||_inf <= delta/eta.

    The sup is taken as the larger of the declared analytic bound and a
    10^4-point grid sample, so a lying closed form cannot sneak through.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    grid = np.linspace(-p.eta, p.eta, SUP_GRID)
    sup = max(p.sup_norm(), float(np.max(np.abs(p(grid)))))
    return sup <= delta / p.eta


@dataclass(frozen=True)
class UVFactorization:
    """u = |eta V(eta .)|^{1/2} and v = sign(V(eta .)) u, supported on [-1, 1]."""

    profile: PotentialProfile

    def _sample(self, t) -> np.ndarray:
        """eta V(eta t), zero outside [-1, 1]."""
        t = np.asarray(t, dtype=float)
        eta = self.profile.eta
        return np.where(np.abs(t) <= 1.0, eta * self.profile(eta * t), 0.0)

    def u(self, t):
        out = np.sqrt(np.abs(self._sample(t)))
        return out if out.ndim else float(out)

    def v(self, t):
        scaled = self._sample(t)
        out = np.sign(scaled) * np.sqrt(np.abs(scaled))
        return out if out.ndim else float(out)


def factorize(p: PotentialProfile) -> UVFactorization:
    return UVFactorization(profile=p)


@dataclass(frozen=True)
class SqueezedFamily:
    """V_eps(t) = (eta/eps) V(eta t / eps), supported on [-eps, eps]."""

    profile: PotentialProfile
    epsilon: float

    def __post_init__(self):
        if not 0 < self.epsilon <= self.profile.eta:
            raise ValueError(
                f"need 0 < epsilon <= eta, got epsilon={self.epsilon}, eta={self.profile.eta}"
            )

    def __call__(self, t):
        eta, eps = self.profile.eta, self.epsilon
        t = np.asarray(t, dtype=float)
        out = (eta / eps) * np.asarray(self.profile(eta * t / eps), dtype=float)
        return out if out.ndim else float(out)


def squeeze(p: PotentialProfile, epsilon: float) -> SqueezedFamily:
    return SqueezedFamily(profile=p, epsilon=epsilon)
