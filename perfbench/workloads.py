"""The three workloads: what each runs, and how its outputs are checked.

A workload builds its inputs once per set-up (``setup``), lists the
operations of one round (``operations``) and checks the outputs of a
round (``check``).  Operations go through the public surface:
``deltashell.cli.main`` at the README examples, plus library calls the
command line does not expose.  Checks compare against ``reference``,
which never calls the program, or against properties the method must
have.  Check time is not part of the timed round.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

import reference as ref

#: spectral point and mass of every 3D operation (the command defaults)
A, M = 1j, 1.0
#: the constant spinor the closed-form layer checks act on
SPINOR = np.array([1.0, 0.5, -0.25j, 0.3])
#: squeezed profile of the operator grids: ``converge``'s default well
GRID_TAU, GRID_ETA, GRID_M = 0.4, 0.25, 8


@dataclass(frozen=True)
class Check:
    """One checked figure of one operation."""

    op: str
    what: str
    value: float
    limit: float
    at_least: bool = False     # passes when value >= limit, else <= limit
    reference: bool = False    # an error against a reference: enters `digits`

    @property
    def ok(self) -> bool:
        return bool(self.value >= self.limit if self.at_least
                    else self.value <= self.limit)


def run_cli(argv: list) -> tuple:
    """Run one ``deltashell`` command in-process; (exit code, stdout)."""
    from deltashell import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _csv_rows(text: str) -> list:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


def _meta(text: str) -> dict:
    pairs = (ln[2:].split("=", 1) for ln in text.splitlines()
             if ln.startswith("# "))
    return dict(pairs)


def _rel(err: np.ndarray, want: np.ndarray, weights=None) -> float:
    """Relative error of the rows (points or nodes) of an output.

    With quadrature weights over the leading axes it is the weighted L2
    error; without, the largest row error over the largest row.
    """
    err, want = np.abs(err) ** 2, np.abs(want) ** 2
    if weights is None:
        return float(np.sqrt(np.max(err.reshape(len(err), -1).sum(1))
                             / np.max(want.reshape(len(want), -1).sum(1))))
    w = np.asarray(weights)
    w = w.reshape(w.shape + (1,) * (err.ndim - w.ndim))
    return float(np.sqrt(np.sum(w * err) / np.sum(w * want)))


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _random_points(rng, count: int, r_lo: float, r_hi: float) -> np.ndarray:
    """Points in random directions at radii drawn uniformly from [r_lo, r_hi]."""
    return _unit(rng.normal(size=(count, 3))) * rng.uniform(r_lo, r_hi, (count, 1))


def _grid_weights(mesh) -> np.ndarray:
    """Quadrature weights of the (node, transverse node) grid."""
    return np.outer(mesh.weights, leggauss(GRID_M)[1])


def _exit_check(op: str, code: int) -> Check:
    return Check(op, "exit code", float(code), 0.0)


def _grid_profile():
    """u and v of the grid's square well at the Gauss nodes, computed apart."""
    t, w = leggauss(GRID_M)
    scaled = GRID_ETA * ref.square_profile(GRID_TAU, GRID_ETA)(GRID_ETA * t)
    u = np.sqrt(np.abs(scaled))
    return t, w, u, np.sign(scaled) * u


def squeezed_layer(eps: float, directions: np.ndarray) -> np.ndarray:
    """Closed form of B_eps on the constant spinor over the unit sphere.

    Row (k, p) sits at radius 1 + eps t_p in direction k; the sources
    are the parallel spheres of radius 1 + eps t_q weighted by
    v(t_q) w_q, and u(t_p) scales the row.  Shape (N, M, 4).
    """
    t, w, u, v = _grid_profile()
    out = np.zeros((len(directions), t.size, 4), dtype=complex)
    for p in range(t.size):
        for q in range(t.size):
            out[:, p] += v[q] * w[q] * ref.sphere_layer(
                A, M, 1.0 + eps * t[q], 1.0 + eps * t[p], directions, SPINOR)
        out[:, p] *= u[p]
    return out


def squeezed_far_field(eps: float, points: np.ndarray) -> np.ndarray:
    """Closed form of A_eps on the constant spinor at points off the collar."""
    t, w, _, v = _grid_profile()
    r = np.linalg.norm(points, axis=1)
    out = np.zeros((len(points), 4), dtype=complex)
    for i, (ri, xi) in enumerate(zip(r, points)):
        for q in range(t.size):
            out[i] += v[q] * w[q] * ref.sphere_layer(
                A, M, 1.0 + eps * t[q], ri, xi[None] / ri, SPINOR)[0]
    return out


class _References:
    """References computed on first use and reused by later rounds."""

    def __init__(self) -> None:
        self._refs: dict = {}

    def _ref(self, key, compute):
        if key not in self._refs:
            self._refs[key] = compute()
        return self._refs[key]


# ---------------------------------------------------------------------------
# radial


class Radial(_References):
    """Klein witness through the radial channels (``sphere_spectral``)."""

    name = "radial"
    known_fault = None

    #: op -> (argv, channel kappa, kind, reference profile, eta)
    KLEIN = {
        "klein unit well": (
            ["klein", "--tau", "1.0", "--eta", "1.0",
             "--eps", "0.2,0.1,0.05,0.025", "--kappa", "-1"],
            -1, "electrostatic", ref.square_profile(1.0, 1.0), 1.0),
        "klein scalar well": (
            ["klein", "--kind", "scalar", "--tau", "-1", "--kappa", "1",
             "--eps", "0.2,0.1,0.05"],
            1, "scalar", ref.square_profile(-1.0, 1.0), 1.0),
        "klein gaussian": (
            ["klein", "--potential", "gaussian", "--amp", "1.4",
             "--sigma", "0.5", "--eta", "1.0", "--eps", "0.1,0.05"],
            -1, "electrostatic", ref.gaussian_profile(1.4, 0.5, 1.0), 1.0),
    }
    SPECTRUM = ["spectrum", "--lam", "1.0", "--kappa=-1,1,-2,2"]
    #: squeezed roots to 1e-5, shell roots to 1e-10 of the reference
    SQUEEZED_TOL, SHELL_TOL = 1e-5, 1e-10
    #: the gap window the program scans: (1 - 1e-4) m on either side
    WINDOW = 1.0 - 1e-4

    def setup(self, seed: int) -> dict:
        # the inputs are the README examples; the seed does not enter
        return {}

    def operations(self, inputs: dict) -> list:
        ops = [(op, lambda argv=spec[0]: run_cli(argv))
               for op, spec in self.KLEIN.items()]
        ops.append(("spectrum", lambda: run_cli(self.SPECTRUM)))
        return ops

    def _klein_checks(self, op: str, code: int, text: str) -> list:
        _, kappa, kind, profile, eta = self.KLEIN[op]
        checks = [_exit_check(op, code)]
        if code != 0:
            return checks
        rows = [(float(r[0]), float(r[1])) for r in _csv_rows(text)]
        meta = _meta(text)
        strength = self._ref((op, "s"), lambda: ref.integral(profile, eta))
        lam_eff = ref.effective_couplings(strength)[
            0 if kind == "electrostatic" else 1]
        shell = {}
        for label, lam in (("a_nonlinear", lam_eff), ("a_linear", strength)):
            got = float(meta[label])
            shell[label] = self._ref((op, label), lambda: ref.root_near(
                ref.shell_det(kappa, M, 1.0, lam, kind), got))
            checks.append(Check(op, f"{label} (shell at {lam:.6g})",
                                abs(got - shell[label]), self.SHELL_TOL,
                                reference=True))
        errs = []
        for eps, a_eps in rows:
            want = self._ref((op, eps), lambda: ref.root_near(
                ref.squeezed_det(kappa, M, 1.0, eps,
                                 ref.squeezed(profile, eta, eps), kind),
                a_eps))
            checks.append(Check(op, f"squeezed root eps={eps:g}",
                                abs(a_eps - want), self.SQUEEZED_TOL,
                                reference=True))
            errs.append(abs(a_eps - shell["a_nonlinear"]))
        ratio = max(b / a for a, b in zip(errs, errs[1:]))
        checks.append(Check(op, "error to the effective root, worst ratio "
                            "per halving", ratio, 1.0))
        if op == "klein unit well":
            (_, a_coarse), (_, a_fine) = rows[-2], rows[-1]
            limit = 2.0 * a_fine - a_coarse
            margin = (abs(limit - shell["a_linear"])
                      / abs(limit - shell["a_nonlinear"]))
            checks.append(Check(op, "Richardson limit: naive distance over "
                                "effective distance", margin, 5.0,
                                at_least=True))
        return checks

    def _spectrum_checks(self, code: int, text: str) -> list:
        op = "spectrum"
        checks = [_exit_check(op, code)]
        if code != 0:
            return checks
        found: dict = {}
        for row in _csv_rows(text):
            found.setdefault(int(row[0]), []).append(float(row[2]))
        for kappa in (-1, 1, -2, 2):
            want = self._ref((op, kappa), lambda: ref.scan_roots(
                ref.shell_det(kappa, M, 1.0, 1.0, "electrostatic"),
                -self.WINDOW, self.WINDOW))
            got = sorted(found.get(kappa, []))
            checks.append(Check(op, f"kappa={kappa}: roots missed or extra",
                                float(abs(len(got) - len(want))), 0.0))
            if got and len(got) == len(want):
                err = max(abs(a - b) for a, b in zip(got, want))
                checks.append(Check(op, f"kappa={kappa}: shell root error",
                                    err, self.SHELL_TOL, reference=True))
        return checks

    def check(self, inputs: dict, outputs: dict) -> list:
        checks = []
        for op, (code, text) in outputs.items():
            if op == "spectrum":
                checks += self._spectrum_checks(code, text)
            else:
                checks += self._klein_checks(op, code, text)
        return checks

    @staticmethod
    def layer_errors(checks: list) -> dict:
        errs = [c.value for c in checks if c.reference]
        return {"sphere_spectral.root_err": max(errs, default=0.0)}


# ---------------------------------------------------------------------------
# apply


class Apply:
    """Matrix-free squeezed and trace operators (``shell_ops`` kernel sums)."""

    name = "apply"
    known_fault = None

    CONVERGE = ["converge", "--N", "256", "--M", "8", "--eps", "0.2,0.1,0.05"]
    #: closed-form tolerances: about 3x the errors measured at the sizes used
    B_EPS_TOL, A_EPS_TOL, TRACE_TOL = 1e-1, 2e-3, 3e-2
    DECAY_MIN = 1.5
    JUMP_TOL = 5e-2
    #: evaluation nodes of jump-check, a quarter of its default 1024
    JUMP_EVAL_NODES = 256
    EPS = 0.05
    B_NODES, TRACE_NODES = 80, 1280

    def setup(self, seed: int) -> dict:
        from deltashell import dirac_algebra, geometry, potential, shell_ops

        rng = np.random.default_rng(seed)
        sp = dirac_algebra.SpectralParameter(A, M)
        mesh_b = geometry.build_mesh(geometry.sphere(1.0), self.B_NODES)
        uv = potential.factorize(potential.square_well(GRID_TAU, GRID_ETA))
        grid = shell_ops.make_operator_grid(mesh_b, uv, GRID_M)
        mesh_c = geometry.build_mesh(geometry.sphere(1.0), self.TRACE_NODES)
        far = _random_points(rng, 6, 2.0, 3.0)
        return {"sp": sp, "grid": grid, "mesh_c": mesh_c, "seed": seed,
                "g_grid": np.tile(SPINOR.astype(complex), (len(mesh_b), GRID_M, 1)),
                "g_trace": np.tile(SPINOR.astype(complex), (len(mesh_c), 1)),
                "far": far}

    def operations(self, inputs: dict) -> list:
        from deltashell import shell_ops

        sp, grid = inputs["sp"], inputs["grid"]
        jump = ["jump-check", "--n", "512", "--density", "random-wave",
                "--seed", str(inputs["seed"]),
                "--max-eval-nodes", str(self.JUMP_EVAL_NODES)]
        return [
            ("converge", lambda: run_cli(self.CONVERGE)),
            ("jump-check", lambda: run_cli(jump)),
            ("b_eps_apply", lambda: shell_ops.b_eps_apply(
                grid, sp, self.EPS, inputs["g_grid"])),
            ("a_eps_apply", lambda: shell_ops.a_eps_apply(
                grid, sp, self.EPS, inputs["g_grid"], inputs["far"])),
            ("cauchy_sigma_apply", lambda: shell_ops.cauchy_sigma_apply(
                sp, inputs["mesh_c"], inputs["g_trace"])),
        ]

    def check(self, inputs: dict, outputs: dict) -> list:
        grid, mesh_c = inputs["grid"], inputs["mesh_c"]
        checks = []

        code, text = outputs["converge"]
        checks.append(_exit_check("converge", code))
        if code == 0:
            cols = np.array([[float(x) for x in r[1:4]] for r in _csv_rows(text)])
            for j, name in enumerate(("norm_B", "norm_A", "norm_C")):
                factor = float(np.min(cols[:-1, j] / cols[1:, j]))
                checks.append(Check("converge", f"{name} decay per halving",
                                    factor, self.DECAY_MIN, at_least=True))

        code, text = outputs["jump-check"]
        checks.append(_exit_check("jump-check", code))
        if code == 0:
            doc = json.loads(text)
            for key in ("max_rel_error", "jump_identity_rel"):
                checks.append(Check("jump-check", key, doc[key], self.JUMP_TOL))

        want = squeezed_layer(self.EPS, _unit(grid.mesh.nodes))
        checks.append(Check("b_eps_apply", "B_eps closed-form error",
                            _rel(outputs["b_eps_apply"] - want, want,
                                 _grid_weights(grid.mesh)),
                            self.B_EPS_TOL, reference=True))

        want = squeezed_far_field(self.EPS, inputs["far"])
        checks.append(Check("a_eps_apply", "A_eps closed-form error",
                            _rel(outputs["a_eps_apply"] - want, want),
                            self.A_EPS_TOL, reference=True))

        want = ref.sphere_layer(A, M, 1.0, 1.0, _unit(mesh_c.nodes), SPINOR)
        checks.append(Check("cauchy_sigma_apply", "C_sigma closed-form error",
                            _rel(outputs["cauchy_sigma_apply"] - want, want,
                                 mesh_c.weights),
                            self.TRACE_TOL, reference=True))
        return checks

    @staticmethod
    def layer_errors(checks: list) -> dict:
        pick = {c.op: c.value for c in checks if c.reference}
        return {"shell_ops.b_eps_err": pick.get("b_eps_apply", 0.0),
                "shell_ops.trace_err": pick.get("cauchy_sigma_apply", 0.0)}


# ---------------------------------------------------------------------------
# dense


class Dense(_References):
    """Materialized operators and dense solves (``coupling``, dense ``shell_ops``)."""

    name = "dense"
    #: the table's panels ignore its kinks, so lambda misses the closed
    #: form by 2.7e-6 at n=1024 while the command reports agreement
    known_fault = "coupling kinked table"

    COUPLING_TOL, TABLE_TOL = 1e-12, 1e-8
    SMALLNESS = 1.0 / 3.0
    B_TOL, TRACE_TOL = 1e-1, 3e-2
    RESOLVENT_TOL = 1e-10
    #: C_sigma at 320 nodes, not 1280: the svds norm of the 5120^2 matrix
    #: took 5 to 12 s from call to call, as its random start decided
    FAMILY_NODES, TRACE_NODES, RESOLVENT_NODES = 80, 320, 320
    FAMILY_EPS = tuple(GRID_ETA / 2 ** k for k in range(4))

    RESOLVENTS = {"resolvent electrostatic": (2.0 * math.tan(0.5), "electrostatic"),
                  "resolvent scalar": (2.0 * math.tanh(-0.5), "scalar")}

    def __init__(self) -> None:
        super().__init__()
        #: op -> (argv, int V computed apart, tolerance)
        self.couplings = {
            "coupling unit well": (
                ["coupling", "--n", "1024"],
                ref.integral(ref.square_profile(1.0, 1.0), 1.0),
                self.COUPLING_TOL),
            "coupling gaussian": (
                ["coupling", "--n", "1024", "--potential", "gaussian",
                 "--amp", "1.4", "--sigma", "0.5", "--eta", "1.0"],
                ref.integral(ref.gaussian_profile(1.4, 0.5, 1.0), 1.0),
                self.COUPLING_TOL),
            "coupling strong well": (
                ["coupling", "--n", "1024", "--tau", "2.5"],
                ref.integral(ref.square_profile(2.5, 1.0), 1.0),
                self.COUPLING_TOL),
            self.known_fault: (
                ["coupling", "--n", "1024", "--potential", "table",
                 "--file", ref.KINKED_TABLE],
                ref.kinked_integral(), self.TABLE_TOL),
        }

    def setup(self, seed: int) -> dict:
        from deltashell import dirac_algebra, geometry, potential, shell_ops

        rng = np.random.default_rng(seed)
        sp = dirac_algebra.SpectralParameter(A, M)
        mesh_f = geometry.build_mesh(geometry.sphere(1.0), self.FAMILY_NODES)
        uv = potential.factorize(potential.square_well(GRID_TAU, GRID_ETA))
        grid = shell_ops.make_operator_grid(mesh_f, uv, GRID_M)
        mesh_c = geometry.build_mesh(geometry.sphere(1.0), self.TRACE_NODES)
        mesh_r = geometry.build_mesh(geometry.sphere(1.0), self.RESOLVENT_NODES)
        center = rng.uniform(-0.2, 0.2, size=3)
        volume = shell_ops.ball_grid(0.5, nr=6, ntheta=6, nphi=10, center=center)
        spinor = rng.normal(size=4) + 1j * rng.normal(size=4)
        f_vals = (np.exp(-np.sum((volume.points - center) ** 2, axis=1) / 0.08)
                  [:, None] * spinor[None, :])
        pts = _random_points(rng, 4, 1.5, 2.5)
        return {"sp": sp, "grid": grid, "mesh_c": mesh_c, "mesh_r": mesh_r,
                "volume": volume, "f_vals": f_vals, "points": pts}

    def operations(self, inputs: dict) -> list:
        from deltashell import shell_ops

        sp, grid = inputs["sp"], inputs["grid"]

        def family(eps):
            b = shell_ops.assemble_family(grid, sp, eps)["B"]
            return b, b.norm()

        def trace():
            c = shell_ops.cauchy_sigma(sp, inputs["mesh_c"])
            return c, c.norm()

        ops = [(op, lambda argv=spec[0]: run_cli(argv))
               for op, spec in self.couplings.items()]
        ops += [(f"assemble_family eps={eps:g}", lambda eps=eps: family(eps))
                for eps in self.FAMILY_EPS]
        ops.append(("cauchy_sigma", trace))
        ops += [(op, lambda lam=lam, kind=kind: shell_ops.shell_resolvent_apply(
                    sp, inputs["mesh_r"], lam, kind, inputs["volume"],
                    inputs["f_vals"], inputs["points"]))
                for op, (lam, kind) in self.RESOLVENTS.items()]
        return ops

    def _resolvent_reference(self, inputs: dict, lam: float, kind: str):
        """free - lam Phi (J + lam C)^-1 trace, J = 1 or beta, with own sums."""
        from deltashell import shell_ops

        mesh, volume = inputs["mesh_r"], inputs["volume"]
        coeff = inputs["f_vals"] * volume.weights[:, None]
        free = ref.kernel_apply(A, M, inputs["points"], volume.points, coeff)
        trace = ref.kernel_apply(A, M, mesh.nodes, volume.points, coeff)
        n = len(mesh)
        cmat = shell_ops.cauchy_sigma(inputs["sp"], mesh).matrix
        carrier = np.eye(4 * n) if kind == "electrostatic" else np.kron(
            np.eye(n), ref.BETA)
        density = np.linalg.solve(carrier + lam * cmat, trace.ravel())
        corr = ref.kernel_apply(A, M, inputs["points"], mesh.nodes,
                                density.reshape(n, 4) * mesh.weights[:, None])
        return free - lam * corr

    def check(self, inputs: dict, outputs: dict) -> list:
        checks = []
        for op, (argv, strength, tol) in self.couplings.items():
            code, text = outputs[op]
            checks.append(_exit_check(op, code))
            if code != 0:
                continue
            doc = json.loads(text)
            lam_e, lam_s = ref.effective_couplings(strength)
            checks.append(Check(op, "lambda_e - 2 tan(int V / 2)",
                                abs(doc["lambda_e"] - lam_e), tol, reference=True))
            checks.append(Check(op, "lambda_s - 2 tanh(int V / 2)",
                                abs(doc["lambda_s"] - lam_s), tol, reference=True))

        grid = inputs["grid"]
        nodes = grid.mesh.nodes
        dirs = _unit(nodes)
        weights = _grid_weights(grid.mesh)
        g = np.tile(SPINOR.astype(complex), (len(nodes), GRID_M, 1))
        for eps in self.FAMILY_EPS:
            op = f"assemble_family eps={eps:g}"
            bmat, bnorm = outputs[op]
            checks.append(Check(op, "norm of B_eps against the smallness "
                                "bound 1/3", bnorm, self.SMALLNESS))
            want = squeezed_layer(eps, dirs)
            got = bmat.apply(g).reshape(want.shape)
            checks.append(Check(op, "dense B_eps closed-form error",
                                _rel(got - want, want, weights), self.B_TOL,
                                reference=True))

        mesh_c = inputs["mesh_c"]
        cop, cnorm = outputs["cauchy_sigma"]
        g = np.tile(SPINOR.astype(complex), (len(mesh_c), 1))
        got = cop.apply(g).reshape(-1, 4)
        want = ref.sphere_layer(A, M, 1.0, 1.0, _unit(mesh_c.nodes), SPINOR)
        checks.append(Check("cauchy_sigma", "dense C_sigma closed-form error",
                            _rel(got - want, want, mesh_c.weights),
                            self.TRACE_TOL, reference=True))
        ratio = math.sqrt(np.sum(mesh_c.weights[:, None] * np.abs(got) ** 2)
                          / np.sum(mesh_c.weights[:, None] * np.abs(g) ** 2))
        checks.append(Check("cauchy_sigma", "norm over the Rayleigh ratio of "
                            "the constant spinor", cnorm / ratio, 1.0 - 1e-9,
                            at_least=True))

        for op, (lam, kind) in self.RESOLVENTS.items():
            want = self._ref(op, lambda: self._resolvent_reference(
                inputs, lam, kind))
            checks.append(Check(op, "resolvent against its own composition",
                                _rel(outputs[op] - want, want),
                                self.RESOLVENT_TOL, reference=True))
        return checks

    def layer_errors(self, checks: list) -> dict:
        b = [c.value for c in checks if c.what.startswith("dense B_eps")]
        c = [c.value for c in checks if c.what.startswith("dense C_sigma")]
        lam = [c.value for c in checks if c.op.startswith("coupling")
               and c.reference]
        return {"shell_ops.b_eps_err": max(b, default=0.0),
                "shell_ops.trace_err": max(c, default=0.0),
                "coupling.err": max(lam, default=0.0)}


WORKLOADS = {w.name: w for w in (Radial, Apply, Dense)}
