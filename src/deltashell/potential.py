"""1D potential profiles, their smallness class, u-v factorization, squeezing.

A profile is a bounded real function V supported in [-eta, eta]. The
factorization u(t) = |eta V(eta t)|^{1/2}, v(t) = sign(V(eta t)) u(t) lives on
[-1, 1] and satisfies u v = eta V(eta .). Squeezing rescales the profile onto
[-eps, eps] at fixed integral: V_eps(t) = (eta/eps) V(eta t / eps).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.special import erf

#: grid size used for the sampled sup-norm estimate
SUP_GRID = 10_000


@dataclass(frozen=True)
class PotentialProfile:
    """Real potential on [-eta, eta]; construct via the module helpers."""

    kind: str
    eta: float
    tau: float = 0.0
    amp: float = 0.0
    sigma: float = 0.0
    ts: tuple = ()
    vs: tuple = ()

    def __post_init__(self):
        if self.eta <= 0:
            raise ValueError(f"support half-width must be positive, got {self.eta}")
        if self.kind not in ("square", "gaussian", "table"):
            raise ValueError(f"unknown profile kind {self.kind!r}")
        if self.kind == "table":
            ts = np.asarray(self.ts, dtype=float)
            vs = np.asarray(self.vs, dtype=float)
            if ts.size < 2 or ts.size != vs.size:
                raise ValueError("tabulated profile needs matching ts/vs, len >= 2")
            if np.any(np.diff(ts) <= 0):
                raise ValueError("table nodes must be strictly increasing")
            if ts[0] < -self.eta or ts[-1] > self.eta:
                raise ValueError("table nodes must lie inside [-eta, eta]")
            object.__setattr__(self, "ts", tuple(float(t) for t in ts))
            object.__setattr__(self, "vs", tuple(float(v) for v in vs))

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        inside = np.abs(t) <= self.eta
        if self.kind == "square":
            out = np.where(np.abs(t) < self.eta, 0.5 * self.tau, 0.0)
        elif self.kind == "gaussian":
            out = np.where(inside, self.amp * np.exp(-(t * t) / (2.0 * self.sigma**2)), 0.0)
        else:
            ts = np.asarray(self.ts)
            vs = np.asarray(self.vs)
            out = np.interp(t, ts, vs, left=0.0, right=0.0)
            out = np.where((t < ts[0]) | (t > ts[-1]), 0.0, out)
        return out if out.ndim else float(out)

    def sup_norm(self) -> float:
        """Analytic sup where the shape allows it, else the node/grid max."""
        if self.kind == "square":
            return 0.5 * abs(self.tau)
        if self.kind == "gaussian":
            return abs(self.amp)
        return float(np.max(np.abs(self.vs)))

    def integral(self) -> float:
        if self.kind == "square":
            return self.tau * self.eta
        if self.kind == "gaussian":
            return self.amp * self.sigma * np.sqrt(2.0 * np.pi) * erf(
                self.eta / (np.sqrt(2.0) * self.sigma)
            )
        return float(np.trapezoid(self.vs, self.ts))

    def l1_norm(self) -> float:
        if self.kind == "square":
            return abs(self.tau) * self.eta
        if self.kind == "gaussian":
            return abs(self.integral())
        # exact |linear| integral per segment, handling interior sign changes
        total = 0.0
        ts, vs = np.asarray(self.ts), np.asarray(self.vs)
        for (t0, t1, v0, v1) in zip(ts[:-1], ts[1:], vs[:-1], vs[1:]):
            h = t1 - t0
            if v0 * v1 >= 0:
                total += 0.5 * h * (abs(v0) + abs(v1))
            else:
                tc = h * abs(v0) / (abs(v0) + abs(v1))
                total += 0.5 * (tc * abs(v0) + (h - tc) * abs(v1))
        return total

    def to_json(self) -> str:
        doc = {"kind": self.kind, "eta": self.eta}
        if self.kind == "square":
            doc["tau"] = self.tau
        elif self.kind == "gaussian":
            doc["amp"] = self.amp
            doc["sigma"] = self.sigma
        else:
            doc["ts"] = list(self.ts)
            doc["vs"] = list(self.vs)
        return json.dumps(doc)


def square_well(tau: float, eta: float) -> PotentialProfile:
    """Height tau/2 on (-eta, eta); integral tau*eta."""
    return PotentialProfile(kind="square", eta=eta, tau=tau)


def truncated_gaussian(amp: float, sigma: float, eta: float) -> PotentialProfile:
    return PotentialProfile(kind="gaussian", eta=eta, amp=amp, sigma=sigma)


def from_table(ts, vs, eta: float | None = None) -> PotentialProfile:
    eta = max(abs(ts[0]), abs(ts[-1])) if eta is None else eta
    return PotentialProfile(kind="table", eta=eta, ts=tuple(ts), vs=tuple(vs))


def profile_from_json(doc: str) -> PotentialProfile:
    """The profile a ``to_json`` document describes.

    Raises ``ValueError`` when the document is not a JSON object, lacks
    a key its kind needs (the key is named), or names an unknown kind.
    """
    d = json.loads(doc)
    if not isinstance(d, dict):
        raise ValueError("a potential profile must be a JSON object")

    def get(key):
        if key not in d:
            raise ValueError(f"potential profile has no {key!r} key")
        return d[key]

    kind = get("kind")
    if kind == "square":
        return square_well(get("tau"), get("eta"))
    if kind == "gaussian":
        return truncated_gaussian(get("amp"), get("sigma"), get("eta"))
    # "pwlinear" is the older name of the same linearly interpolated table
    if kind in ("pwlinear", "table"):
        return from_table(get("ts"), get("vs"), get("eta"))
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
    u: Callable = field(init=False)
    v: Callable = field(init=False)

    def __post_init__(self):
        p, eta = self.profile, self.profile.eta

        def u(t):
            t = np.asarray(t, dtype=float)
            scaled = eta * p(eta * t)
            out = np.sqrt(np.abs(scaled))
            out = np.where(np.abs(t) <= 1.0, out, 0.0)
            return out if out.ndim else float(out)

        def v(t):
            t = np.asarray(t, dtype=float)
            scaled = eta * p(eta * t)
            out = np.sign(scaled) * np.sqrt(np.abs(scaled))
            out = np.where(np.abs(t) <= 1.0, out, 0.0)
            return out if out.ndim else float(out)

        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)


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

    def integral(self) -> float:
        return self.profile.integral()


def squeeze(p: PotentialProfile, epsilon: float) -> SqueezedFamily:
    return SqueezedFamily(profile=p, epsilon=epsilon)
