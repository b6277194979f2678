"""Command surface tying the modules into reproducible experiments.

Every command resolves its parameters from flags, an optional JSON
config file, and documented defaults; flags override the file.
``COMMANDS`` is the one declaration of each parameter: its flag, type
or choices, default and help.  The parser, the defaults, the help text
and the checks on config values are all read from it.  The resolved
values are echoed in a metadata block so a run can be reproduced from
its own output, and all output is deterministic for a fixed
configuration.

Each ``cmd_*`` computes its result and writes nothing; :func:`main`
adds the metadata and any ``"error"`` block, formats the JSON or CSV,
writes it to stdout, ``--out`` or ``--json-out``, and returns the exit
code: 0 on success, 1 when a computation ran but a check failed
(method disagreement, tolerance exceeded, broken monotonicity, or a
:class:`CheckFailed` raised inside it), 2 when the request is
malformed or outside the validity domain, or an output path cannot be
written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np
import scipy

from . import CheckFailed, __version__
from .coupling import (
    KINDS,
    build_kv,
    effective_coupling,
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
    """Flag type for comma-separated text, or a JSON list, of ``item``s.

    A JSON item converts from its text, so ``1.5`` is no int here either.
    """
    def convert(value) -> list:
        items = value if isinstance(value, list) else [
            s.strip() for s in value.split(",") if s.strip()]
        if not items:
            raise argparse.ArgumentTypeError("empty list")
        try:
            return [item(str(s)) for s in items]
        except (TypeError, ValueError):
            raise argparse.ArgumentTypeError(
                f"bad {item.__name__} list {value!r}")
    return convert


_float_list = _list_type(float)
_int_list = _list_type(int)


def _tolerance(value) -> float:
    """Flag type for a tolerance: a positive finite float."""
    tol = float(value)
    if not 0.0 < tol < np.inf:
        raise argparse.ArgumentTypeError(
            f"tolerance must be positive and finite, got {value!r}")
    return tol


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
    """A config-file value converted (from its text) or checked as its
    flag's would be, so ``64.9`` is no int and ``true`` no float."""
    if isinstance(kind, tuple):
        if value not in kind:
            raise ValueError("choose from " + ", ".join(map(repr, kind)))
        return value
    if (kind in (_float_list, _int_list)) != isinstance(value, list):
        raise TypeError("list flags take JSON lists, other flags single values")
    return kind(value if isinstance(value, list) else str(value))


def _resolve(ns: argparse.Namespace, config: dict, command: str,
             parser: argparse.ArgumentParser) -> dict:
    """Flag > config file > default, with unknown config keys rejected.

    Config values go through the same converters and choices as their
    flags, so a command sees one form whatever the source; a value that
    does not convert is a usage error naming its key.
    """
    params = defaults(command)
    kinds = {dest: kind for _, kind, _, _, dest in _rows(command)}
    for key, value in config.items():
        if key not in params:
            parser.error(f"unknown config key {key!r}")
        if value is None:  # null leaves the default, as an absent flag does
            continue
        try:
            params[key] = _config_value(value, kinds[key])
        except (argparse.ArgumentTypeError, TypeError, ValueError) as exc:
            parser.error(f"config key {key!r}: bad value {value!r} ({exc})")
    for key in kinds:
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
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, (np.floating, float)):
        # RFC 8259 has no NaN or Infinity; a missing figure is null
        return float(value) if np.isfinite(value) else None
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


def _meta_block(command: str, params: dict, extra: dict) -> str:
    doc = _meta_dict(command, params)
    lines = [f"# {key}={doc[key]}" for key in sorted(doc)]
    lines += [f"# {key}={_fmt(extra[key])}" for key in sorted(extra)]
    return "\n".join(lines) + "\n"


def _json(doc: dict) -> str:
    return json.dumps(_jsonable(doc), sort_keys=True, indent=2) + "\n"


def _make_profile(params: dict, parser: argparse.ArgumentParser):
    kind = params["potential"]
    if kind == "square":
        return square_well(params["tau"], params["eta"])
    if kind == "gaussian":
        for key in ("amp", "sigma"):
            _require(params, key, parser)
        return truncated_gaussian(params["amp"], params["sigma"], params["eta"])
    path = _require(params, "file", parser)  # the "table" family
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return profile_from_json(fh.read())
    except OSError as exc:
        parser.error(f"cannot read potential table {path}: {exc}")


# ---------------------------------------------------------------------------
# coupling


def cmd_coupling(params, parser) -> tuple:
    profile = _make_profile(params, parser)
    tol = params["tol"]
    terms = params["terms"]
    if terms < 0:
        parser.error(f"--terms must be nonnegative, got {terms}")
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

    ce, cs = (effective_coupling(profile.integral(), kind) for kind in KINDS)
    methods["closed_form"] = {"lambda_e": ce, "lambda_s": cs}
    cand_e.append(ce)
    cand_s.append(cs)

    agreement = max(max(cand_e) - min(cand_e), max(cand_s) - min(cand_s))
    meta = dict(params)
    if params["potential"] == "table":
        # the file's profile ran, with its own eta; --tau and --eta did not
        del meta["tau"]
        meta["eta"] = float(profile.eta)
    doc = {"lambda_e": direct.lambda_e, "lambda_s": direct.lambda_s,
           "hs_norm": kv.hs_norm, "method_agreement": agreement,
           "methods": methods, "metadata": meta}
    return doc, None if agreement <= tol else (
        "MethodDisagreement",
        f"methods spread {agreement:.3e} exceeds tolerance {tol:.3e}")


# ---------------------------------------------------------------------------
# jump-check


def _jump_density(mesh, name: str, seed: int) -> np.ndarray:
    n = len(mesh)
    if name == "constant":
        g = np.tile(np.array([1.0, 0.0, 0.0, 0.0], dtype=complex), (n, 1))
    elif name == "plane-wave":
        phase = np.exp(1j * mesh.nodes @ np.array([0.3, -0.2, 0.5]))
        g = phase[:, None] * np.array([1.0, 0.4, -0.2j, 0.1])
    else:  # random-wave
        rng = np.random.default_rng(seed)
        g = np.zeros((n, 4), dtype=complex)
        for _ in range(3):
            k = rng.normal(size=3)
            spinor = rng.normal(size=4) + 1j * rng.normal(size=4)
            g += np.exp(1j * mesh.nodes @ k)[:, None] * spinor
    return g.ravel()


def cmd_jump_check(params, parser) -> tuple:
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
           "tol": tol, "passed": passed}
    return doc, None if passed else (
        "JumpToleranceExceeded",
        f"max relative error {report.max_rel_error:.3e} exceeds tolerance {tol:.3e}")


# ---------------------------------------------------------------------------
# geometry-audit


def cmd_geometry_audit(params, parser) -> tuple:
    name = params["surface"]
    if name == "sphere":
        surf = sphere(params["radius"])
    else:  # ellipsoid
        axes = _require(params, "axes", parser)
        if len(axes) != 3:
            parser.error("--axes needs three comma-separated values")
        surf = ellipsoid(*axes)
    mesh = build_mesh(surf, params["n"])
    eps = params["eps"]
    tol = params["tol"]

    volume = coarea_integrate(mesh, lambda pts: np.ones(len(pts)), eps,
                              params["t_nodes"])
    moment = coarea_integrate(mesh, lambda pts: np.sum(pts * pts, axis=1), eps,
                              params["t_nodes"])
    doc = {"volume": volume, "radial_moment": moment,
           "collar_eta": surf.collar_eta(), "nodes": len(mesh)}
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
        growth = measure_growth_audit(mesh, params["t"], params["radii"],
                                      params["max_centers"])
        doc["growth"] = {"t": growth.t, "resolution": growth.resolution,
                         "diameter": growth.diameter, "c1": growth.c1,
                         "c2": growth.c2, "rows": [list(r) for r in growth.rows]}
        checks.append(True)
    except CheckFailed as exc:
        doc["growth"] = {"error": str(exc)}
        checks.append(False)

    doc["passed"] = all(checks)
    return doc, None if doc["passed"] else (
        "GeometryAuditFailed", "a coarea or measure-growth check failed")


# ---------------------------------------------------------------------------
# converge


def cmd_converge(params, parser) -> tuple:
    eps = _require(params, "eps", parser)
    sp = SpectralParameter(_as_complex(params["a"]), params["m"])
    mesh = build_mesh(sphere(1.0), params["n"])
    uv = factorize(square_well(params["tau"], params["eta"]))
    grid = make_operator_grid(mesh, uv, params["m_nodes"])
    table = strong_convergence_experiment(grid, sp, eps)
    # the coupling the eps -> 0 limit reaches: the grid's own J, not 2 tan(s/2)
    lam = lambda_electrostatic(grid.kv).lambda_e
    return table.csv(), {"lambda_grid": lam, "mesh_nodes": len(mesh)}


# ---------------------------------------------------------------------------
# spectrum


def cmd_spectrum(params, parser) -> tuple:
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
    return "\n".join(lines) + "\n", {}


# ---------------------------------------------------------------------------
# klein


def cmd_klein(params, parser) -> tuple:
    eps = _require(params, "eps", parser)
    profile = _make_profile(params, parser)
    study = klein_convergence_study(
        profile, eps, kappa=params["kappa"], m=params["m"], R=params["R"],
        kind=params["kind"], sub_panels=params["panels"])
    summary = study.summary()
    return study.csv(), summary, {**summary, "kind": study.kind,
                                  "epsilons": [eps for eps, _, _ in study.rows],
                                  "gaps": [gap for _, _, gap in study.rows]}


# ---------------------------------------------------------------------------
# parser


#: parameter rows ``(flag, type or choices, default, help[, dest])``; dest
#: defaults to the flag's name, and a default other than None joins the help
_OUT = ("--out", str, None, "write the result to a file instead of stdout")
_PROFILE = [
    ("--potential", ("square", "gaussian", "table"), "square", "profile family"),
    ("--tau", float, 1.0, "square-well strength"),
    ("--eta", float, 1.0, "support half-width"),
    ("--amp", float, None, "gaussian amplitude"),
    ("--sigma", float, None, "gaussian width"),
    ("--file", str, None, "JSON potential table for --potential table"),
]

#: command name -> (function, summary, parameter rows after --out)
COMMANDS = {
    "coupling": (cmd_coupling,
                 "nonlinear shell couplings of a squeezed potential, three ways", [
        *_PROFILE,
        ("--n", int, 128, "quadrature nodes"),
        ("--terms", int, 20, "Neumann terms"),
        ("--tol", _tolerance, COUPLING_TOL, "method agreement tolerance"),
    ]),
    "jump-check": (cmd_jump_check,
                   "one-sided trace extrapolation against the jump formulas", [
        ("--n", int, 512, "requested mesh nodes"),
        ("--a", str, "i", "spectral point, e.g. 'i' or '0.5'"),
        ("--m", float, 1.0, "mass"),
        ("--radius", float, 1.0, "sphere radius"),
        ("--eta", float, 0.3, "collar half-width"),
        ("--density", ("constant", "plane-wave", "random-wave"),
         "plane-wave", "trace density"),
        ("--seed", int, 7, "seed for random-wave"),
        ("--offsets", _float_list, None, "explicit offset heights, comma-separated"),
        ("--max-eval-nodes", int, 1024, "evaluation node cap"),
        ("--tol", _tolerance, JUMP_TOL, "max relative error bound"),
    ]),
    "geometry-audit": (cmd_geometry_audit,
                       "coarea closed forms and measure growth on a shell", [
        ("--surface", ("sphere", "ellipsoid"), "sphere", "surface family"),
        ("--radius", float, 1.0, "sphere radius"),
        ("--axes", _float_list, None, "ellipsoid semi-axes a,b,c"),
        ("--n", int, 2048, "requested mesh nodes"),
        ("--eps", float, 0.1, "shell half-width"),
        ("--t-nodes", int, 16, "transverse Gauss nodes"),
        ("--t", float, 0.0, "growth audit offset"),
        ("--radii", _float_list, [0.3, 0.5, 1.0], "growth audit ball radii"),
        ("--max-centers", int, 256, "growth audit center cap"),
        ("--tol", _tolerance, COAREA_TOL, "closed-form tolerance"),
    ]),
    "converge": (cmd_converge,
                 "strong-convergence table for the squeezed operator family", [
        ("--N", int, 256, "requested mesh nodes", "n"),
        ("--M", int, 8, "transverse nodes", "m_nodes"),
        ("--eps", _float_list, None, "epsilon list, comma-separated"),
        ("--tau", float, 0.4, "square-well strength"),
        ("--eta", float, 0.25, "support half-width"),
        ("--a", str, "i", "spectral point"),
        ("--m", float, 1.0, "mass"),
    ]),
    "spectrum": (cmd_spectrum,
                 "gap eigenvalues of the singular shell per channel", [
        ("--kappa", _int_list, [-1], "channel indices, comma-separated"),
        ("--lam", float, None, "shell coupling (required)"),
        ("--kind", KINDS, "electrostatic", "coupling kind"),
        ("--m", float, 1.0, "mass"),
        ("--R", float, 1.0, "shell radius"),
        ("--scan", _float_list, None, "scan window lo,hi,steps"),
    ]),
    "klein": (cmd_klein,
              "squeezed eigenvalues against the two candidate couplings", [
        *_PROFILE,
        ("--eps", _float_list, None, "strictly decreasing epsilon list, comma-separated"),
        ("--kappa", int, -1, "channel index"),
        ("--kind", KINDS, "electrostatic", "coupling kind"),
        ("--m", float, 1.0, "mass"),
        ("--R", float, 1.0, "shell radius"),
        ("--panels", int, TRANSFER_PANELS, "transfer sub-panels"),
        ("--json-out", str, None, "also write the JSON summary to this file"),
    ]),
}


def _rows(command: str) -> list:
    """A command's rows as ``(flag, kind, default, help, dest)``, --out first."""
    return [(flag, kind, default, text,
             dest[0] if dest else flag[2:].replace("-", "_"))
            for flag, kind, default, text, *dest in [_OUT, *COMMANDS[command][2]]]


def defaults(command: str) -> dict:
    """Each parameter of ``command`` at its default, keyed by destination."""
    return {dest: default for _, _, default, _, dest in _rows(command)}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deltashell",
        description="Reproducible experiments on Dirac delta-shell operators.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, summary, _) in COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        p.add_argument("--config", help="JSON config file; flags override it")
        # default None means "flag not given", so a config value can fill it
        for flag, kind, default, text, dest in _rows(command):
            if default is not None:
                text += f" (default: {_fmt(default)})"
            choices = kind if isinstance(kind, tuple) else None
            p.add_argument(flag, dest=dest, help=text, choices=choices,
                           type=None if choices else kind)
        p.set_defaults(parser=p)
    return parser


def _cannot_write(path: str, why) -> int:
    """One ``error:`` line on stderr naming an unwritable path; code 2."""
    sys.stderr.write(f"error: cannot write {path}: {why}\n")
    return 2


def _emit(writes: list, code: int) -> int:
    """Write each ``(text, path)``, to stdout for a None path; the exit code.

    A path that only the write finds unwritable, such as a directory or
    one without permission, is a usage error (:func:`_cannot_write`).
    """
    for text, out in writes:
        if out is None:
            sys.stdout.write(text)
            continue
        try:
            with open(out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except (OSError, ValueError) as exc:
            return _cannot_write(out, exc)
    return code


def main(argv=None) -> int:
    """Run one command, write its result and return the exit code.

    A command returns its result and writes nothing.  A JSON document
    comes with its failed check, ``(type, message)``, or None; here it
    gets the metadata of the parameters it names under ``"metadata"``,
    or else of all of them, and the failure as its ``"error"`` block
    (exit 1).  CSV text comes with the figures its metadata block adds
    to the parameters, and ``klein``'s also with the document for
    ``--json-out``.  A :class:`CheckFailed` raised inside a computation
    leaves no result: its ``"error"`` block alone goes to stdout, never
    to ``--out``.  An output path with a NUL byte, or in no existing
    directory, is refused before the command runs.
    """
    parser = _build_parser()
    ns = parser.parse_args(argv)
    config = _load_config(ns.config, parser)
    params = _resolve(ns, config, ns.command, ns.parser)
    for path in (params["out"], params.get("json_out")):
        if path is not None and "\0" in path:
            return _cannot_write(path, "the path holds a NUL byte")
        if path is not None and not os.path.isdir(os.path.dirname(path) or "."):
            return _cannot_write(path, f"no directory {os.path.dirname(path)}")
    try:
        result, extra, *also = COMMANDS[ns.command][0](params, ns.parser)
    except CheckFailed as exc:
        return _emit([(_json({"error": {"type": type(exc).__name__,
                                        "message": str(exc)}}), None)], 1)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    if isinstance(result, str):
        writes = [(result + _meta_block(ns.command, params, extra), params["out"])]
        if also and params["json_out"] is not None:
            writes.append((_json(also[0]), params["json_out"]))
        return _emit(writes, 0)
    result["metadata"] = _meta_dict(ns.command, result.get("metadata", params))
    if extra is not None:
        result["error"] = {"type": extra[0], "message": extra[1]}
    return _emit([(_json(result), params["out"])], int(extra is not None))


if __name__ == "__main__":
    sys.exit(main())
