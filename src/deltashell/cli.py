"""Command surface tying the modules into reproducible experiments.

Every command resolves its parameters from flags, an optional JSON
config file, and documented defaults; flags override the file.  The
resolved values are echoed in a metadata block so a run can be
reproduced from its own output, and all output is deterministic for a
fixed configuration.

Exit codes: 0 on success, 1 when a computation ran but a check failed
(method disagreement, tolerance exceeded, broken monotonicity), 2 when
the request is malformed or outside the validity domain.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np
import scipy

from . import CheckFailed, __version__
from .coupling import (
    NonContractive,
    build_kv,
    closed_form_couplings,
    lambda_electrostatic,
    lambda_neumann,
)
from .dirac_algebra import SpectralParameter
from .geometry import (
    build_mesh,
    coarea_integrate,
    ellipsoid,
    measure_growth_audit,
    sphere,
    tubular_map,
)
from .potential import factorize, profile_from_json, square_well, truncated_gaussian
from .shell_ops import make_operator_grid, plemelj_check, strong_convergence_experiment
from .sphere_spectral import (
    TRANSFER_PANELS,
    ChannelSystem,
    find_gap_eigenvalues,
    klein_convergence_study,
    shell_matching,
)

#: default acceptance tolerance for the coupling method triangle
COUPLING_TOL = 1e-8
#: default acceptance tolerance for the extrapolated jump relation
JUMP_TOL = 5e-2
#: default acceptance tolerance for coarea closed forms
COAREA_TOL = 1e-6


# ---------------------------------------------------------------------------
# argument plumbing


def _list_type(item):
    """Flag type for comma-separated text, or a JSON list, of ``item``s."""
    def convert(value) -> list:
        items = value if isinstance(value, list) else [
            s.strip() for s in value.split(",") if s.strip()]
        if not items:
            raise argparse.ArgumentTypeError("empty list")
        try:
            return [item(s) for s in items]
        except (TypeError, ValueError):
            raise argparse.ArgumentTypeError(
                f"bad {item.__name__} list {value!r}")
    return convert


_float_list = _list_type(float)
_int_list = _list_type(int)


def _as_complex(value) -> complex:
    if isinstance(value, str):
        return complex(value.strip().replace("i", "j"))
    return complex(value)


def _load_config(path: str | None, parser: argparse.ArgumentParser) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        parser.error(f"cannot read config {path}: {exc}")
    if not isinstance(doc, dict):
        parser.error(f"config {path} must hold a JSON object")
    return doc


def _config_value(value, kind):
    """A config-file value converted by its flag's ``type``, or as text."""
    if (kind in (_float_list, _int_list)) != isinstance(value, list):
        raise TypeError("list flags take JSON lists, other flags single values")
    return (kind or str)(value)


def _resolve(ns: argparse.Namespace, config: dict, defaults: dict,
             parser: argparse.ArgumentParser) -> dict:
    """Flag > config file > default, with unknown config keys rejected.

    Config values go through the same converters as their flags, so a
    command sees one form whatever the source; a value that does not
    convert is a usage error naming its key.
    """
    types = {action.dest: action.type for action in parser._actions}
    params = dict(defaults)
    for key, value in config.items():
        if key not in defaults:
            parser.error(f"unknown config key {key!r}")
        if value is None:  # null leaves the default, as an absent flag does
            continue
        try:
            params[key] = _config_value(value, types[key])
        except (argparse.ArgumentTypeError, TypeError, ValueError) as exc:
            parser.error(f"config key {key!r}: bad value {value!r} ({exc})")
    for key in defaults:
        flag = getattr(ns, key)
        if flag is not None:
            params[key] = flag
    return params


def _require(params: dict, key: str, parser: argparse.ArgumentParser):
    if params[key] is None:
        parser.error(f"--{key.replace('_', '-')} is required")
    return params[key]


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "none"
    if isinstance(value, (list, tuple)):
        return ",".join(_fmt(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, (np.floating, float)):
        # RFC 8259 has no NaN or Infinity; a missing figure is null
        return float(value) if np.isfinite(value) else None
    if isinstance(value, complex):
        return str(value)
    return value


#: plumbing keys excluded from metadata so reruns stay byte-identical
_NON_PARAMS = ("out", "json_out")


def _meta_dict(command: str, params: dict) -> dict:
    doc = {"command": command, "deltashell": __version__,
           "numpy": np.__version__, "scipy": scipy.__version__}
    for key, value in params.items():
        if key not in _NON_PARAMS:
            doc[key] = _fmt(value)
    return doc


def _meta_block(command: str, params: dict, extra: dict | None = None) -> str:
    doc = _meta_dict(command, params)
    lines = [f"# {key}={doc[key]}" for key in sorted(doc)]
    if extra:
        lines += [f"# {key}={_fmt(extra[key])}" for key in sorted(extra)]
    return "\n".join(lines) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _emit_json(doc: dict, out: str | None) -> None:
    _emit(json.dumps(_jsonable(doc), sort_keys=True, indent=2) + "\n", out)


def _make_profile(params: dict, parser: argparse.ArgumentParser):
    kind = params["potential"]
    if kind == "square":
        return square_well(params["tau"], params["eta"])
    if kind == "gaussian":
        for key in ("amp", "sigma"):
            _require(params, key, parser)
        return truncated_gaussian(params["amp"], params["sigma"], params["eta"])
    if kind == "table":
        path = _require(params, "file", parser)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return profile_from_json(fh.read())
        except OSError as exc:
            parser.error(f"cannot read potential table {path}: {exc}")
    parser.error(f"unknown potential {kind!r}")


# ---------------------------------------------------------------------------
# coupling


COUPLING_DEFAULTS = {
    "potential": "square", "tau": 1.0, "eta": 1.0, "amp": None, "sigma": None,
    "file": None, "n": 128, "terms": 20, "tol": COUPLING_TOL, "out": None,
}


def cmd_coupling(ns, config, parser) -> int:
    params = _resolve(ns, config, COUPLING_DEFAULTS, parser)
    profile = _make_profile(params, parser)
    tol = params["tol"]
    terms = params["terms"]
    kv = build_kv(factorize(profile), params["n"])
    direct = lambda_electrostatic(kv)
    methods = {"direct": {"lambda_e": direct.lambda_e,
                          "lambda_s": direct.lambda_s,
                          "residuals": direct.residuals}}
    cand_e, cand_s = [direct.lambda_e], [direct.lambda_s]

    if kv.hs_norm < 1.0:
        neu = lambda_neumann(kv, terms)
        bound = neu.residuals["error_bound"]
        methods["neumann"] = {"lambda_e": neu.lambda_e,
                              "lambda_s": neu.lambda_s,
                              "terms": terms, "error_bound": bound}
        # the partial sum only joins the agreement check once its
        # geometric tail is negligible against the tolerance
        if bound <= 0.1 * tol:
            cand_e.append(neu.lambda_e)
            cand_s.append(neu.lambda_s)
    else:
        methods["neumann"] = {"skipped": "series diverges, hs_norm >= 1"}

    ce, cs = closed_form_couplings(profile.integral())
    methods["closed_form"] = {"lambda_e": ce, "lambda_s": cs}
    cand_e.append(ce)
    cand_s.append(cs)

    agreement = max(max(cand_e) - min(cand_e), max(cand_s) - min(cand_s))
    doc = {"lambda_e": direct.lambda_e, "lambda_s": direct.lambda_s,
           "hs_norm": kv.hs_norm, "method_agreement": agreement,
           "methods": methods, "metadata": _meta_dict("coupling", params)}
    if agreement > tol:
        doc["error"] = {"type": "MethodDisagreement",
                        "message": f"methods spread {agreement:.3e} "
                                   f"exceeds tolerance {tol:.3e}"}
    _emit_json(doc, params["out"])
    return 0 if agreement <= tol else 1


# ---------------------------------------------------------------------------
# jump-check


JUMP_DEFAULTS = {
    "n": 512, "a": "i", "m": 1.0, "radius": 1.0, "eta": 0.3,
    "density": "plane-wave", "seed": 7, "offsets": None,
    "max_eval_nodes": 1024, "tol": JUMP_TOL, "out": None,
}


def _jump_density(mesh, name: str, seed: int) -> np.ndarray:
    n = len(mesh)
    if name == "constant":
        g = np.tile(np.array([1.0, 0.0, 0.0, 0.0], dtype=complex), (n, 1))
    elif name == "plane-wave":
        phase = np.exp(1j * mesh.nodes @ np.array([0.3, -0.2, 0.5]))
        g = phase[:, None] * np.array([1.0, 0.4, -0.2j, 0.1])
    elif name == "random-wave":
        rng = np.random.default_rng(seed)
        g = np.zeros((n, 4), dtype=complex)
        for _ in range(3):
            k = rng.normal(size=3)
            spinor = rng.normal(size=4) + 1j * rng.normal(size=4)
            g += np.exp(1j * mesh.nodes @ k)[:, None] * spinor
    else:
        raise ValueError(f"unknown density {name!r}")
    return g.ravel()


def cmd_jump_check(ns, config, parser) -> int:
    params = _resolve(ns, config, JUMP_DEFAULTS, parser)
    sp = SpectralParameter(_as_complex(params["a"]), params["m"])
    mesh = build_mesh(sphere(params["radius"]), params["n"])
    g = _jump_density(mesh, params["density"], params["seed"])
    tol = params["tol"]
    report = plemelj_check(
        sp, mesh, g, offsets=params["offsets"], eta=params["eta"],
        max_eval_nodes=params["max_eval_nodes"])
    passed = report.max_rel_error <= tol
    doc = {"nodes": len(mesh),
           "offsets": list(report.offsets),
           "max_rel_plus": report.max_rel_plus,
           "max_rel_minus": report.max_rel_minus,
           "l2_rel_plus": report.l2_rel_plus,
           "l2_rel_minus": report.l2_rel_minus,
           "jump_identity_rel": report.jump_identity_rel,
           "average_identity_rel": report.average_identity_rel,
           "max_rel_error": report.max_rel_error,
           "tol": tol, "passed": passed,
           "metadata": _meta_dict("jump-check", params)}
    if not passed:
        doc["error"] = {"type": "JumpToleranceExceeded",
                        "message": f"max relative error {report.max_rel_error:.3e} "
                                   f"exceeds tolerance {tol:.3e}"}
    _emit_json(doc, params["out"])
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# geometry-audit


GEOMETRY_DEFAULTS = {
    "surface": "sphere", "radius": 1.0, "axes": None, "n": 2048,
    "eps": 0.1, "t_nodes": 16, "t": 0.0, "radii": [0.3, 0.5, 1.0],
    "max_centers": 256, "tol": COAREA_TOL, "out": None,
}


def cmd_geometry_audit(ns, config, parser) -> int:
    params = _resolve(ns, config, GEOMETRY_DEFAULTS, parser)
    name = params["surface"]
    if name == "sphere":
        surf = sphere(params["radius"])
    elif name == "ellipsoid":
        axes = _require(params, "axes", parser)
        if len(axes) != 3:
            parser.error("--axes needs three comma-separated values")
        surf = ellipsoid(*axes)
    else:
        parser.error(f"unknown surface {name!r}")
    mesh = build_mesh(surf, params["n"])
    tm = tubular_map(mesh)
    eps = params["eps"]
    tol = params["tol"]

    volume = coarea_integrate(tm, lambda pts: np.ones(len(pts)), eps,
                              params["t_nodes"])
    moment = coarea_integrate(tm, lambda pts: np.sum(pts * pts, axis=1), eps,
                              params["t_nodes"])
    doc = {"volume": volume, "radial_moment": moment,
           "collar_eta": tm.eta, "nodes": len(mesh),
           "metadata": _meta_dict("geometry-audit", params)}
    checks = []
    if name == "sphere":
        r = params["radius"]
        vol_exact = 4.0 * np.pi * ((r + eps) ** 3 - (r - eps) ** 3) / 3.0
        mom_exact = 4.0 * np.pi * ((r + eps) ** 5 - (r - eps) ** 5) / 5.0
        doc["volume_closed_form"] = vol_exact
        doc["volume_rel_error"] = abs(volume - vol_exact) / vol_exact
        doc["radial_moment_closed_form"] = mom_exact
        doc["radial_moment_rel_error"] = abs(moment - mom_exact) / mom_exact
        checks += [doc["volume_rel_error"] <= tol,
                   doc["radial_moment_rel_error"] <= tol]

    try:
        growth = measure_growth_audit(tm, params["t"], params["radii"],
                                      params["max_centers"])
        doc["growth"] = {"t": growth.t, "resolution": growth.resolution,
                         "diameter": growth.diameter, "c1": growth.c1,
                         "c2": growth.c2, "rows": [list(r) for r in growth.rows]}
        checks.append(True)
    except CheckFailed as exc:
        doc["growth"] = {"error": str(exc)}
        checks.append(False)

    passed = all(checks)
    doc["passed"] = passed
    if not passed:
        doc["error"] = {"type": "GeometryAuditFailed",
                        "message": "a coarea or measure-growth check failed"}
    _emit_json(doc, params["out"])
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# converge


CONVERGE_DEFAULTS = {
    "n": 256, "m_nodes": 8, "eps": None, "tau": 0.4, "eta": 0.25,
    "a": "i", "m": 1.0, "out": None,
}


def cmd_converge(ns, config, parser) -> int:
    params = _resolve(ns, config, CONVERGE_DEFAULTS, parser)
    eps = _require(params, "eps", parser)
    sp = SpectralParameter(_as_complex(params["a"]), params["m"])
    mesh = build_mesh(sphere(1.0), params["n"])
    uv = factorize(square_well(params["tau"], params["eta"]))
    grid = make_operator_grid(mesh, uv, params["m_nodes"])
    table = strong_convergence_experiment(grid, sp, eps)
    _emit(table.csv() + _meta_block("converge", params,
                                    {"mesh_nodes": len(mesh)}),
          params["out"])
    return 0


# ---------------------------------------------------------------------------
# spectrum


SPECTRUM_DEFAULTS = {
    "kappa": [-1], "lam": None, "kind": "electrostatic", "m": 1.0, "R": 1.0,
    "scan": None, "out": None,
}


def cmd_spectrum(ns, config, parser) -> int:
    params = _resolve(ns, config, SPECTRUM_DEFAULTS, parser)
    lam = _require(params, "lam", parser)
    scan = params["scan"]
    if scan is not None:
        if len(scan) != 3:
            parser.error("--scan needs lo,hi,steps")
        if not float(scan[2]).is_integer() or scan[2] < 2:
            parser.error(f"--scan steps must be an integer >= 2, got {scan[2]:g}")
        scan = (float(scan[0]), float(scan[1]), int(scan[2]))
    matching = shell_matching(lam, params["kind"])
    lines = ["kappa,index,eigenvalue,residual,bracket_lo,bracket_hi"]
    for kap in params["kappa"]:
        ch = ChannelSystem(kap, params["m"], params["R"])
        res = find_gap_eigenvalues(ch, matching, scan)
        for i, (eig, resid, brk) in enumerate(
                zip(res.eigenvalues, res.residuals, res.brackets)):
            lines.append(f"{kap},{i},{eig:.12g},{resid:.3g},"
                         f"{brk[0]:.12g},{brk[1]:.12g}")
    _emit("\n".join(lines) + "\n" + _meta_block("spectrum", params),
          params["out"])
    return 0


# ---------------------------------------------------------------------------
# klein


KLEIN_DEFAULTS = {
    "potential": "square", "tau": 1.0, "eta": 1.0, "amp": None, "sigma": None,
    "file": None, "eps": None, "kappa": -1, "kind": "electrostatic",
    "m": 1.0, "R": 1.0, "panels": TRANSFER_PANELS,
    "out": None, "json_out": None,
}


def cmd_klein(ns, config, parser) -> int:
    params = _resolve(ns, config, KLEIN_DEFAULTS, parser)
    eps = _require(params, "eps", parser)
    profile = _make_profile(params, parser)
    study = klein_convergence_study(
        profile, eps, kappa=params["kappa"], m=params["m"], R=params["R"],
        kind=params["kind"], sub_panels=params["panels"])
    _emit(study.csv() + _meta_block("klein", params, study.summary()),
          params["out"])
    if params["json_out"] is not None:
        _emit(study.json_summary() + "\n", params["json_out"])
    return 0


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deltashell",
        description="Reproducible experiments on Dirac delta-shell operators.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--out", help="write the result to a file instead of stdout")

    def profile(p):
        p.add_argument("--potential", choices=("square", "gaussian", "table"),
                       help="profile family (default: square)")
        p.add_argument("--tau", type=float, help="square-well strength (default: 1.0)")
        p.add_argument("--eta", type=float, help="support half-width (default: 1.0)")
        p.add_argument("--amp", type=float, help="gaussian amplitude")
        p.add_argument("--sigma", type=float, help="gaussian width")
        p.add_argument("--file", help="JSON potential table for --potential table")

    p = sub.add_parser(
        "coupling",
        help="nonlinear shell couplings of a squeezed potential, three ways")
    common(p)
    profile(p)
    p.add_argument("--n", type=int, help="quadrature nodes (default: 128)")
    p.add_argument("--terms", type=int, help="Neumann terms (default: 20)")
    p.add_argument("--tol", type=float,
                   help=f"method agreement tolerance (default: {COUPLING_TOL:g})")
    p.set_defaults(func=cmd_coupling, parser=p)

    p = sub.add_parser(
        "jump-check",
        help="one-sided trace extrapolation against the jump formulas")
    common(p)
    p.add_argument("--n", type=int, help="requested mesh nodes (default: 512)")
    p.add_argument("--a", help="spectral point, e.g. 'i' or '0.5' (default: i)")
    p.add_argument("--m", type=float, help="mass (default: 1.0)")
    p.add_argument("--radius", type=float, help="sphere radius (default: 1.0)")
    p.add_argument("--eta", type=float, help="collar half-width (default: 0.3)")
    p.add_argument("--density", choices=("constant", "plane-wave", "random-wave"),
                   help="trace density (default: plane-wave)")
    p.add_argument("--seed", type=int, help="seed for random-wave (default: 7)")
    p.add_argument("--offsets", type=_float_list,
                   help="explicit offset heights, comma-separated")
    p.add_argument("--max-eval-nodes", dest="max_eval_nodes", type=int,
                   help="evaluation node cap (default: 1024)")
    p.add_argument("--tol", type=float,
                   help=f"max relative error bound (default: {JUMP_TOL:g})")
    p.set_defaults(func=cmd_jump_check, parser=p)

    p = sub.add_parser(
        "geometry-audit",
        help="coarea closed forms and measure growth on a shell")
    common(p)
    p.add_argument("--surface", choices=("sphere", "ellipsoid"),
                   help="surface family (default: sphere)")
    p.add_argument("--radius", type=float, help="sphere radius (default: 1.0)")
    p.add_argument("--axes", type=_float_list, help="ellipsoid semi-axes a,b,c")
    p.add_argument("--n", type=int, help="requested mesh nodes (default: 2048)")
    p.add_argument("--eps", type=float, help="shell half-width (default: 0.1)")
    p.add_argument("--t-nodes", dest="t_nodes", type=int,
                   help="transverse Gauss nodes (default: 16)")
    p.add_argument("--t", type=float, help="growth audit offset (default: 0.0)")
    p.add_argument("--radii", type=_float_list,
                   help="growth audit ball radii (default: 0.3,0.5,1.0)")
    p.add_argument("--max-centers", dest="max_centers", type=int,
                   help="growth audit center cap (default: 256)")
    p.add_argument("--tol", type=float,
                   help=f"closed-form tolerance (default: {COAREA_TOL:g})")
    p.set_defaults(func=cmd_geometry_audit, parser=p)

    p = sub.add_parser(
        "converge",
        help="strong-convergence table for the squeezed operator family")
    common(p)
    p.add_argument("--N", dest="n", type=int,
                   help="requested mesh nodes (default: 256)")
    p.add_argument("--M", dest="m_nodes", type=int,
                   help="transverse nodes (default: 8)")
    p.add_argument("--eps", type=_float_list, help="epsilon list, comma-separated")
    p.add_argument("--tau", type=float, help="square-well strength (default: 0.4)")
    p.add_argument("--eta", type=float, help="support half-width (default: 0.25)")
    p.add_argument("--a", help="spectral point (default: i)")
    p.add_argument("--m", type=float, help="mass (default: 1.0)")
    p.set_defaults(func=cmd_converge, parser=p)

    p = sub.add_parser(
        "spectrum",
        help="gap eigenvalues of the singular shell per channel")
    common(p)
    p.add_argument("--kappa", type=_int_list,
                   help="channel indices, comma-separated (default: -1)")
    p.add_argument("--lam", type=float, help="shell coupling (required)")
    p.add_argument("--kind", choices=("electrostatic", "scalar"),
                   help="coupling kind (default: electrostatic)")
    p.add_argument("--m", type=float, help="mass (default: 1.0)")
    p.add_argument("--R", dest="R", type=float, help="shell radius (default: 1.0)")
    p.add_argument("--scan", type=_float_list, help="scan window lo,hi,steps")
    p.set_defaults(func=cmd_spectrum, parser=p)

    p = sub.add_parser(
        "klein",
        help="squeezed eigenvalues against the two candidate couplings")
    common(p)
    profile(p)
    p.add_argument("--eps", type=_float_list,
                   help="strictly decreasing epsilon list, comma-separated")
    p.add_argument("--kappa", type=int, help="channel index (default: -1)")
    p.add_argument("--kind", choices=("electrostatic", "scalar"),
                   help="coupling kind (default: electrostatic)")
    p.add_argument("--m", type=float, help="mass (default: 1.0)")
    p.add_argument("--R", dest="R", type=float, help="shell radius (default: 1.0)")
    p.add_argument("--panels", type=int,
                   help=f"transfer sub-panels (default: {TRANSFER_PANELS})")
    p.add_argument("--json-out", dest="json_out",
                   help="also write the JSON summary to this file")
    p.set_defaults(func=cmd_klein, parser=p)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    config = _load_config(ns.config, parser)
    try:
        return ns.func(ns, config, ns.parser)
    except (AssertionError, NonContractive) as exc:
        _emit_json({"error": {"type": type(exc).__name__,
                              "message": str(exc)}}, None)
        return 1
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
