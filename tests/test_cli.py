import importlib.util
import json
import math
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from deltashell import CheckFailed, cli, geometry
from deltashell.cli import _build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"


def run_json(args, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, json.loads(out.read_text())


def run_text(args, tmp_path, name="out.csv"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, out.read_text()


def csv_rows(text):
    lines = [ln for ln in text.strip().split("\n") if not ln.startswith("#")]
    return lines[0], [ln.split(",") for ln in lines[1:]]


def meta_lines(text):
    return [ln for ln in text.strip().split("\n") if ln.startswith("#")]


# ---------------------------------------------------------------------------
# coupling


def test_coupling_square_well_hits_the_closed_form(tmp_path):
    code, doc = run_json(
        ["coupling", "--potential", "square", "--tau", "10",
         "--eta", "0.157079632679"], tmp_path)
    assert code == 0
    assert abs(doc["lambda_e"] - 2.0) < 1e-9
    assert doc["method_agreement"] < 1e-8
    assert set(doc) >= {"lambda_e", "lambda_s", "hs_norm", "method_agreement"}
    assert doc["metadata"]["command"] == "coupling"


def test_coupling_zero_well(tmp_path):
    code, doc = run_json(["coupling", "--tau", "0", "--eta", "0.1"], tmp_path)
    assert code == 0
    assert doc["lambda_e"] == 0.0 and doc["lambda_s"] == 0.0
    assert doc["hs_norm"] == 0.0


def test_coupling_table_matches_closed_form(tmp_path):
    ts = np.linspace(-0.25, 0.25, 801)
    table = {"kind": "table", "eta": 0.25,
             "ts": list(ts), "vs": [0.2] * len(ts)}
    vfile = tmp_path / "v.json"
    vfile.write_text(json.dumps(table))
    code, doc = run_json(
        ["coupling", "--potential", "table", "--file", str(vfile)], tmp_path)
    assert code == 0
    # the table samples a square well with tau*eta = 0.1
    assert abs(doc["lambda_e"] - 2.0 * math.tan(0.05)) < 1e-4
    assert abs(doc["lambda_s"] - 2.0 * math.tanh(0.05)) < 1e-4


def test_coupling_malformed_table_exits_two(tmp_path, capsys):
    vfile = tmp_path / "v.json"
    vfile.write_text(json.dumps({"x": [0.0, 1.0], "v": [1.0, 1.0]}))
    code = main(["coupling", "--potential", "table", "--file", str(vfile)])
    assert code == 2
    assert "'kind'" in capsys.readouterr().err


def test_coupling_disagreement_exits_one(tmp_path):
    code, doc = run_json(
        ["coupling", "--tau", "2.8", "--eta", "1.0", "--n", "8",
         "--tol", "1e-14"], tmp_path)
    assert code == 1
    assert doc["error"]["type"] == "MethodDisagreement"
    assert doc["method_agreement"] > 1e-14


def test_coupling_neumann_reported_with_bound(tmp_path):
    code, doc = run_json(["coupling", "--tau", "0.4", "--eta", "1.0"], tmp_path)
    assert code == 0
    neu = doc["methods"]["neumann"]
    assert abs(neu["lambda_e"] - doc["lambda_e"]) < 1e-10
    assert neu["error_bound"] < 1e-12


# ---------------------------------------------------------------------------
# config file resolution


def test_config_file_supplies_parameters(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tau": 10.0, "eta": 0.157079632679}))
    code, doc = run_json(["coupling", "--config", str(cfg)], tmp_path)
    assert code == 0
    assert abs(doc["lambda_e"] - 2.0) < 1e-9
    # a JSON list for a list flag and an integer for a float flag give
    # the same run, metadata included, as the flags
    cfg.write_text(json.dumps({"lam": 1, "kappa": [-1, 1]}))
    _, from_config = run_text(["spectrum", "--config", str(cfg)], tmp_path)
    _, from_flags = run_text(
        ["spectrum", "--lam", "1.0", "--kappa=-1,1"], tmp_path, "flags.csv")
    assert from_config == from_flags


def test_flags_override_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tau": 10.0, "eta": 0.157079632679}))
    code, doc = run_json(
        ["coupling", "--config", str(cfg), "--tau", "0"], tmp_path)
    assert code == 0
    assert doc["lambda_e"] == 0.0


def test_unknown_config_key_is_usage_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    with pytest.raises(SystemExit) as exc:
        main(["coupling", "--config", str(cfg)])
    assert exc.value.code == 2


@pytest.mark.parametrize("command, config", [
    ("spectrum", {"lam": 1.0, "kappa": -1}),
    ("klein", {"eps": 0.1}),
    ("geometry-audit", {"radii": 0.5}),
    ("converge", {"eps": []}),
])
def test_config_value_of_wrong_shape_is_usage_error(tmp_path, capsys,
                                                    command, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(cfg)])
    assert exc.value.code == 2
    assert repr(list(config)[-1]) in capsys.readouterr().err


@pytest.mark.parametrize("command, defaults", [
    (command, cli.defaults(command)) for command in cli.COMMANDS])
def test_parser_destinations_are_the_defaults_keys(command, defaults):
    # _resolve reads "flag not given" from None, so a parser default
    # other than None would silently override the config file
    dests = vars(_build_parser().parse_args([command]))
    for plumbing in ("command", "parser", "config"):
        dests.pop(plumbing)
    assert set(dests) == set(defaults)
    assert all(value is None for value in dests.values())


def test_missing_config_file_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["coupling", "--config", str(tmp_path / "nope.json")])
    assert exc.value.code == 2


def test_readme_examples_parse():
    # a renamed or dropped flag fails here, not when the benchmark runs
    # the examples; nothing is run
    blocks = re.findall(r"^```\w*\n(.*?)^```", README.read_text(encoding="utf-8"),
                        flags=re.M | re.S)
    examples = [shlex.split(line)[1:] for block in blocks
                for line in block.splitlines() if line.startswith("deltashell ")]
    assert {argv[0] for argv in examples} == set(cli.COMMANDS)
    parser = _build_parser()
    for argv in examples:
        assert parser.parse_args(argv).command == argv[0]


# ---------------------------------------------------------------------------
# klein


def test_klein_example_emits_decreasing_gaps(tmp_path):
    code, text = run_text(
        ["klein", "--tau", "1.0", "--eta", "1.0",
         "--eps", "0.2,0.1,0.05,0.025", "--kappa", "-1"], tmp_path)
    assert code == 0
    header, rows = csv_rows(text)
    assert header == "epsilon,a_eps,a_nonlinear,a_linear,gap"
    assert len(rows) == 4
    gaps = [float(r[4]) for r in rows]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    meta = meta_lines(text)
    assert any(ln.startswith("# command=klein") for ln in meta)
    assert any(ln.startswith("# slope=") for ln in meta)


def test_klein_json_summary_file(tmp_path):
    jout = tmp_path / "summary.json"
    code, _ = run_text(
        ["klein", "--tau", "1.0", "--eta", "1.0", "--eps", "0.2,0.1",
         "--json-out", str(jout)], tmp_path)
    assert code == 0
    doc = json.loads(jout.read_text())
    assert doc["separation"] == pytest.approx(0.0877744711461932, abs=1e-9)
    assert doc["epsilons"] == [0.2, 0.1]


def test_klein_empty_eps_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["klein", "--tau", "1.0", "--eta", "1.0", "--eps", ""])
    assert exc.value.code == 2


def test_klein_strength_outside_domain_exits_two(capsys):
    code = main(["klein", "--tau", "3.5", "--eta", "1.0", "--eps", "0.1"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_klein_reruns_are_byte_identical(tmp_path):
    args = ["klein", "--tau", "1.0", "--eta", "1.0", "--eps", "0.2,0.1"]
    _, first = run_text(args, tmp_path, "a.csv")
    _, second = run_text(args, tmp_path, "b.csv")
    assert first == second
    assert "# out=" not in first


# ---------------------------------------------------------------------------
# spectrum


def test_spectrum_single_channel_root(tmp_path):
    code, text = run_text(
        ["spectrum", "--lam", "1.0", "--kappa=-1,1"], tmp_path)
    assert code == 0
    header, rows = csv_rows(text)
    assert header == "kappa,index,eigenvalue,residual,bracket_lo,bracket_hi"
    assert len(rows) == 1
    assert rows[0][0] == "-1"
    # closed form, frozen before the build
    assert float(rows[0][2]) == pytest.approx(-0.6526579385650109, abs=1e-9)


def test_spectrum_critical_coupling_exits_two(capsys):
    code = main(["spectrum", "--lam", "2.0"])
    assert code == 2
    assert "critical" in capsys.readouterr().err.lower()


def test_spectrum_requires_lam():
    with pytest.raises(SystemExit) as exc:
        main(["spectrum"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# converge


def test_converge_emits_decaying_norms(tmp_path):
    code, text = run_text(
        ["converge", "--N", "80", "--M", "3", "--eps", "0.2,0.1"], tmp_path)
    assert code == 0
    header, rows = csv_rows(text)
    assert header == "epsilon,norm_B,norm_A,norm_C,floor_flag"
    assert len(rows) == 2
    for col in (1, 2, 3):
        assert float(rows[1][col]) < float(rows[0][col])
    assert any(ln.startswith("# mesh_nodes=80") for ln in meta_lines(text))


def test_converge_empty_eps_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["converge", "--eps", ""])
    assert exc.value.code == 2


def test_converge_requires_eps():
    with pytest.raises(SystemExit) as exc:
        main(["converge", "--N", "80", "--M", "3"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# jump-check and geometry-audit


def test_jump_check_coarse_mesh_passes(tmp_path):
    code, doc = run_json(
        ["jump-check", "--n", "320", "--density", "random-wave"], tmp_path)
    assert code == 0
    assert doc["passed"] is True
    assert doc["max_rel_error"] < 5e-2
    assert doc["jump_identity_rel"] < 5e-2
    assert doc["nodes"] == 320


def test_jump_check_bad_density_from_config_exits_two(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"density": "sawtooth", "n": 320}))
    with pytest.raises(SystemExit) as exc:  # parser.error
        main(["jump-check", "--config", str(cfg)])
    assert exc.value.code == 2
    assert "density" in capsys.readouterr().err


def test_geometry_audit_sphere_closed_forms(tmp_path):
    code, doc = run_json(["geometry-audit"], tmp_path)
    assert code == 0
    assert doc["passed"] is True
    assert doc["volume_rel_error"] < 1e-6
    assert doc["radial_moment_rel_error"] < 1e-6
    r, eps = 1.0, 0.1
    exact = 4.0 * math.pi * ((r + eps) ** 3 - (r - eps) ** 3) / 3.0
    assert doc["volume"] == pytest.approx(exact, rel=1e-9)
    assert all(not row[1] for row in doc["growth"]["rows"])


def test_geometry_audit_ellipsoid_runs_growth(tmp_path):
    code, doc = run_json(
        ["geometry-audit", "--surface", "ellipsoid", "--axes", "1.3,1.0,0.8",
         "--n", "1280", "--radii", "0.5,1.0"], tmp_path)
    assert code == 0
    assert "volume_closed_form" not in doc
    assert doc["growth"]["c1"] > 3.3


def test_geometry_audit_needs_axes_for_ellipsoid():
    with pytest.raises(SystemExit) as exc:
        main(["geometry-audit", "--surface", "ellipsoid"])
    assert exc.value.code == 2


def test_geometry_audit_window_violation_exits_one(tmp_path, monkeypatch):
    monkeypatch.setattr(geometry, "C1_GROWTH", 1.0)
    tm = geometry.tubular_map(geometry.build_mesh(geometry.sphere(1.0), 320))
    with pytest.raises(CheckFailed, match="measure growth outside"):
        geometry.measure_growth_audit(tm, 0.0, [0.5])
    code, doc = run_json(
        ["geometry-audit", "--n", "320", "--radii", "0.5"], tmp_path)
    assert code == 1
    assert doc["passed"] is False
    assert "measure growth outside" in doc["growth"]["error"]


# ---------------------------------------------------------------------------
# guards and strict output


@pytest.mark.parametrize("args, names", [
    (["geometry-audit", "--n", "80", "--max-centers", "0"], "max_centers"),
    (["geometry-audit", "--n", "80", "--max-centers=-3"], "max_centers"),
    (["geometry-audit", "--n", "80", "--t", "5"], "eta"),
    (["geometry-audit", "--n", "80", "--radii=-1"], "radii"),
    (["jump-check", "--n", "320", "--max-eval-nodes", "0"], "max_eval_nodes"),
    (["spectrum", "--lam", "1.0", "--scan=-0.9,0.9,2.7"], "--scan"),
    (["spectrum", "--lam", "1.0", "--scan=-0.9,0.9,1"], "--scan"),
    (["geometry-audit", "--n", "80", "--eps=-0.1"], "eps"),
    (["geometry-audit", "--n", "80", "--eps", "0"], "eps"),
    (["converge", "--N", "80", "--M", "3", "--eps", "1.5,0.8"], "eps"),
])
def test_input_outside_a_limit_is_usage_error(capsys, args, names):
    try:
        code = main(args)
    except SystemExit as exc:  # parser.error
        code = exc.code
    assert code == 2
    assert names in capsys.readouterr().err


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_klein_json_out_is_strict_json(tmp_path):
    # one width leaves the log-log slope undefined
    jout = tmp_path / "summary.json"
    code, _ = run_text(["klein", "--tau", "1.0", "--eta", "1.0", "--eps",
                        "0.1", "--json-out", str(jout)], tmp_path)
    assert code == 0
    doc = json.loads(jout.read_text(), parse_constant=_reject_constant)
    assert doc["slope"] is None


def test_geometry_audit_flagged_row_is_strict_json(tmp_path):
    out = tmp_path / "out.json"
    code = main(["geometry-audit", "--n", "320", "--radii", "0.01,1.0",
                 "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text(), parse_constant=_reject_constant)
    assert doc["growth"]["rows"][0] == [0.01, True, None, None]


# ---------------------------------------------------------------------------
# benchmark tracer


def test_benchmark_tracer_installs_and_uninstalls(tmp_path):
    # the traced benchmark rebinds program names from outside; a rename
    # or a changed signature must fail here, not at benchmark time
    from deltashell import coupling, shell_ops

    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = [(shell_ops, "phi_a"), (shell_ops, "b_eps_apply"),
             (shell_ops.ShellOperator, "norm"), (cli, "main"),
             (cli, "lambda_electrostatic"), (coupling, "np")]
    before = [getattr(owner, attr) for owner, attr in names]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(getattr(owner, attr) is not old
                   for (owner, attr), old in zip(names, before))
        out = tmp_path / "coupling.json"
        assert cli.main(["coupling", "--tau", "0.4", "--out", str(out)]) == 0
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is old
               for (owner, attr), old in zip(names, before))
    counts = tracer.counts["setup"]
    assert counts["cli.coupling.calls"] == 1
    assert counts["coupling.lambda_electrostatic.calls"] == 1
    assert counts["coupling.solves"] == 2
