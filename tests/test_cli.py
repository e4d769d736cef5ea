import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from memspin import cli


def run_cli(args):
    return cli.main([str(a) for a in args])


def test_bundled_scenarios_present():
    names = cli.bundled_scenarios()
    for expected in ("identity_1mode", "hadamard_2mode", "random_3mode",
                     "ten_mode_two_ops", "klm_cz", "eq5_regime_sweep"):
        assert expected in names


def test_every_bundled_scenario_validates():
    """validate precedes run for each shipped config."""
    for name in cli.bundled_scenarios():
        assert run_cli(["validate", name]) == cli.EXIT_OK, name


def test_hundredfold_tighter_spacing_fails_margin9(tmp_path):
    cfg = json.loads(cli.scenario_path("fifty_mhz_margins").read_text())
    det = [250.0 + 0.5 * k for k in range(10)]
    cfg["spectrum"] = {"mean_mhz": sum(det) / len(det), "detunings_mhz": det,
                       "guard": 0.5}
    path = tmp_path / "tight.json"
    path.write_text(json.dumps(cfg))
    setup = cli.NetworkSetup(json.loads(path.read_text()))
    rep = setup.margin_report()
    assert not rep.pass9


def test_validate_fifty_mhz(capsys):
    assert run_cli(["validate", "fifty_mhz_margins"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    payload = json.loads(out[:out.rindex("}") + 1])
    m = payload["margins"]
    assert m["pass7"] and m["pass9"]
    assert m["margin9"] < m["margin7"]


def test_validate_single_mode_margins_infinite(capsys):
    assert run_cli(["validate", "identity_1mode"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    payload = json.loads(out[:out.rindex("}") + 1])
    assert payload["margins"]["margin7"] is None
    assert payload["margins"]["pass7"] and payload["margins"]["pass9"]


def test_run_identity_scenario(tmp_path):
    out = tmp_path / "run"
    assert run_cli(["run", "identity_1mode", "--out", out]) == cli.EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["efficiency"] >= 0.90
    assert report["overlap"] >= 0.99
    assert report["config_hash"]


def test_run_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli(["run", "hadamard_2mode", "--out", a]) == cli.EXIT_OK
    assert run_cli(["run", "hadamard_2mode", "--out", b]) == cli.EXIT_OK
    ra = json.loads((a / "report.json").read_text())
    rb = json.loads((b / "report.json").read_text())
    ra.pop("wall_time_s")
    rb.pop("wall_time_s")
    assert json.dumps(ra, sort_keys=True) == json.dumps(rb, sort_keys=True)


def test_malformed_config_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"label": "x"}')
    out = tmp_path / "out"
    assert run_cli(["run", bad, "--out", out]) == cli.EXIT_CONFIG
    assert not out.exists()


def test_unknown_scenario_exits_2(tmp_path):
    assert run_cli(["run", "no_such_scenario", "--out", tmp_path]) == cli.EXIT_CONFIG


def test_invalid_json_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert run_cli(["validate", bad]) == cli.EXIT_CONFIG


def test_non_unitary_explicit_matrix_exits_2(tmp_path):
    cfg = json.loads(cli.scenario_path("hadamard_2mode").read_text())
    cfg["unitaries"]["write"] = {"kind": "explicit",
                                 "re": [[1.0, 0.1], [0.0, 1.0]],
                                 "im": [[0.0, 0.0], [0.0, 0.0]]}
    bad = tmp_path / "nonunitary.json"
    bad.write_text(json.dumps(cfg))
    assert run_cli(["run", bad, "--out", tmp_path / "o"]) == cli.EXIT_CONFIG


def test_extract_transfer(tmp_path):
    out = tmp_path / "xt"
    assert run_cli(["extract-transfer", "identity_1mode", "--out", out]) == cli.EXIT_OK
    report = json.loads((out / "report.json").read_text())
    m = np.asarray(report["transfer"]["re"]) + 1j * np.asarray(report["transfer"]["im"])
    assert abs(m[0, 0]) ** 2 >= 0.90
    csv = (out / "transfer.csv").read_text().strip().split("\n")
    assert csv[0] == "out_mode,in_0"
    assert len(csv) == 2


def test_run_dispatches_fock_scenarios(tmp_path):
    out = tmp_path / "fockrun"
    assert run_cli(["run", "klm_cz", "--out", out]) == cli.EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert len(report["gates"]) == 5


def test_fock_verify_reports(tmp_path):
    out = tmp_path / "fock"
    assert run_cli(["fock-verify", "klm_cz", "--out", out]) == cli.EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert len(report["gates"]) == 5
    for row in report["gates"]:
        assert row["fidelity"] >= 1 - 1e-10
        assert row["success_probability"] == pytest.approx(1 / 16, abs=1e-10)
    assert report["stage_labels"] == ["U1", "U2", "U3", "U4", "U5"]
    assert len(report["stage_plans"]) == 5


def test_corrupted_stage_unitary_exits_2(tmp_path):
    cfg = json.loads(cli.scenario_path("klm_cz").read_text())
    cfg["fock"]["stages"][3]["re"] = [[1.0, 0.2], [0.0, 1.0]]
    cfg["fock"]["stages"][3]["im"] = [[0.0, 0.0], [0.0, 0.0]]
    bad = tmp_path / "badstage.json"
    bad.write_text(json.dumps(cfg))
    assert run_cli(["fock-verify", bad, "--out", tmp_path / "o"]) == cli.EXIT_CONFIG


def test_stage_override_round_trip(tmp_path):
    """An explicit (unitary) stage override is accepted and used."""
    cfg = json.loads(cli.scenario_path("klm_cz").read_text())
    cfg["fock"]["stages"][4]["re"] = np.diag([1.0, 1.0, 1.0, -1.0]).tolist()
    cfg["fock"]["stages"][4]["im"] = np.zeros((4, 4)).tolist()
    path = tmp_path / "override.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert run_cli(["fock-verify", path, "--out", out]) == cli.EXIT_OK
    report = json.loads((out / "report.json").read_text())
    by_input = {row["input"]: row for row in report["gates"]}
    # the extra rail phase only disturbs inputs that occupy the flipped rail
    assert by_input["00"]["fidelity"] >= 1 - 1e-10
    assert by_input["++"]["fidelity"] < 1 - 1e-3


def test_eq5_sweep_report(tmp_path):
    out = tmp_path / "eq5"
    # the margin_1 case is designed to violate the validity margins, which
    # the integrator flags as an advisory warning
    with pytest.warns(RuntimeWarning):
        assert run_cli(["run", "eq5_regime_sweep", "--out", out]) == cli.EXIT_OK
    report = json.loads((out / "report.json").read_text())
    cases = {c["label"]: c for c in report["cases"]}
    assert cases["margin_100"]["margin9"] >= 100
    assert cases["margin_100"]["relative_deviation"] <= 0.01
    assert cases["margin_1"]["margin9"] <= 1.5
    assert cases["margin_1"]["relative_deviation"] > 0.05


def test_grid_scale_flag(tmp_path):
    out = tmp_path / "coarse"
    code = run_cli(["run", "identity_1mode", "--out", out, "--grid-scale", "0.5"])
    assert code == cli.EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["grid"]["nz"] == 128
    assert report["grid"]["dt_us"] == pytest.approx(0.04)


def test_heatmap_files_written(tmp_path):
    out = tmp_path / "heat"
    assert run_cli(["run", "ten_mode_two_ops", "--out", out, "--grid-scale", "0.5"]) \
        == cli.EXIT_OK
    field = (out / "heatmap_field.csv").read_text().strip().split("\n")
    spin = (out / "heatmap_spin.csv").read_text().strip().split("\n")
    assert field[0].startswith("nz=128,n_cells=10,")
    assert len(field) == 10 * 128 + 1
    assert len(spin) == len(field)


def test_heatmap_rows_match_percent_format(tmp_path):
    """The written heatmaps of a run equal '%.8e' applied to the result's matrices."""
    out = tmp_path / "heat"
    assert run_cli(["run", "ten_mode_two_ops", "--out", out, "--grid-scale", "0.5"]) \
        == cli.EXIT_OK
    cfg = json.loads(cli.scenario_path("ten_mode_two_ops").read_text())
    result, _ = cli.run_network(cli.NetworkSetup(cfg, grid_scale=0.5, heatmap=True))
    for name, matrix in (("heatmap_field.csv", result.heatmap_field),
                         ("heatmap_spin.csv", result.heatmap_spin)):
        row_format = ",".join(["%.8e"] * matrix.shape[1]) + "\n"
        body = (out / name).read_bytes().split(b"\n", 1)[1]
        assert body == "".join(row_format % tuple(row) for row in matrix.tolist()).encode()


def test_env_var_default_out(tmp_path, monkeypatch):
    monkeypatch.setenv("MEMSPIN_OUT", str(tmp_path / "envout"))
    assert run_cli(["run", "identity_1mode"]) == cli.EXIT_OK
    assert (tmp_path / "envout" / "report.json").exists()


def test_validate_failed_margins_exits_2(tmp_path, capsys):
    cfg = json.loads(cli.scenario_path("fifty_mhz_margins").read_text())
    cfg["margin_threshold"] = 1e12
    path = tmp_path / "strict.json"
    path.write_text(json.dumps(cfg))
    assert run_cli(["validate", path]) == cli.EXIT_CONFIG
    assert "FAIL" in capsys.readouterr().out


def set_entry(cfg, path, value):
    """Set the entry at a dotted path, creating missing sections."""
    *sections, key = path.split(".")
    node = cfg
    for part in sections:
        node = node[int(part)] if isinstance(node, list) else node.setdefault(part, {})
    node[key] = value


@pytest.mark.parametrize("path", ["grid.nz", "atoms.optical_depth",
                                  "unitaries.read.seed", "fock.photon_cap"])
def test_json_bool_rejected_as_number(tmp_path, capsys, path):
    scenario = {"unitaries": "random_3mode", "fock": "klm_cz"}.get(path.split(".")[0],
                                                                   "fifty_mhz_margins")
    cfg = json.loads(cli.scenario_path(scenario).read_text())
    set_entry(cfg, path, True)
    bad = tmp_path / "bool.json"
    bad.write_text(json.dumps(cfg))
    assert run_cli(["validate", bad]) == cli.EXIT_CONFIG
    assert f"'{path}'" in capsys.readouterr().err


@pytest.mark.parametrize("scenario, path", [
    ("random_3mode", "options.power_broadning"),
    ("eq5_regime_sweep", "cases.1.spacing"),
    ("klm_cz", "fock.stages.2.rol"),
])
def test_unknown_key_rejected(tmp_path, capsys, scenario, path):
    """A misspelt key exits 2 and is named by its full dotted path."""
    cfg = json.loads(cli.scenario_path(scenario).read_text())
    set_entry(cfg, path, False)
    bad = tmp_path / "typo.json"
    bad.write_text(json.dumps(cfg))
    assert run_cli(["validate", bad]) == cli.EXIT_CONFIG
    assert f"unknown config entry '{path}'" in capsys.readouterr().err


def test_string_switch_rejected(tmp_path, capsys):
    cfg = json.loads(cli.scenario_path("fifty_mhz_margins").read_text())
    cfg["options"] = {"power_broadening": "false"}
    bad = tmp_path / "switch.json"
    bad.write_text(json.dumps(cfg))
    assert run_cli(["validate", bad]) == cli.EXIT_CONFIG
    assert "'options.power_broadening'" in capsys.readouterr().err


def explicit(re):
    return {"kind": "explicit", "re": re, "im": [[0, 0], [0, 0]]}


@pytest.mark.parametrize("scenario, edits, message", [
    ("eq5_regime_sweep", {"atoms.Gamma_mhz": -1}, None),
    ("eq5_regime_sweep", {"cases.0.spacing_mhz": 1e6}, None),
    ("klm_cz", {"fock.inputs": ["0x"]}, None),
    ("klm_cz", {"fock.export_plans.mean_mhz": True}, None),
    ("hadamard_2mode", {"unitaries.write": explicit([[1, 0], [0]])},
     "'unitaries.write.re.1'"),
    ("hadamard_2mode", {"unitaries.write": explicit([["1", 0], [0, 1]])},
     "'unitaries.write.re.0.0' must be float"),
    ("klm_cz", {"fock.stages.0.re": [[1, 0], [0, True]]}, "'fock.stages.0.re.1.1'"),
    ("identity_1mode", {"pulse.center_us": 45.0, "outputs.transfer": True},
     "no rephasing point inside the scheduled windows"),
    ("klm_cz", {"fock.ancilla_modes": [4, 5, 6, 8]}, "mode index out of range"),
    ("klm_cz", {"fock.ancilla_modes": [4, 4, 6, 7]}, "duplicate mode indices"),
    ("klm_cz", {"fock.herald": [1, 0, 1]}, "3 mode indices needed"),
    ("klm_cz", {"fock.ancilla_modes": [4, 5, 6, -1]}, "mode index out of range"),
], ids=["Gamma_mhz", "spacing_mhz", "inputs", "export_plans", "ragged_matrix",
        "string_entry", "bool_stage_entry", "echo_outside_windows",
        "ancilla_out_of_range", "ancilla_duplicate", "herald_length", "ancilla_negative"])
def test_validate_fails_as_run_does(tmp_path, capsys, scenario, edits, message):
    """validate builds what run builds, so it exits 2 with the error run prints."""
    cfg = json.loads(cli.scenario_path(scenario).read_text())
    for path, value in edits.items():
        set_entry(cfg, path, value)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    assert run_cli(["run", bad, "--out", tmp_path / "o"]) == cli.EXIT_CONFIG
    run_err = capsys.readouterr().err
    assert run_err.startswith("error: ")
    if message is not None:
        assert message in run_err
    assert run_cli(["validate", bad]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == run_err


@pytest.mark.parametrize("path, value", [
    ("fock.ancilla_modes", [4, 5, 6, 8]),
    ("fock.ancilla_modes", [4, 4, 6, 7]),
    ("fock.herald", [1, 0, 1]),
    ("fock.ancilla_modes", [4, 5, 6, -1]),
], ids=["ancilla_out_of_range", "ancilla_duplicate", "herald_length", "ancilla_negative"])
def test_fock_policy_error_names_entry(tmp_path, capsys, path, value):
    """validate and fock-verify both name the offending entry by its dotted path."""
    cfg = json.loads(cli.scenario_path("klm_cz").read_text())
    set_entry(cfg, path, value)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    for command in (["validate", bad], ["fock-verify", bad, "--out", tmp_path / "o"]):
        assert run_cli(command) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"error: config entry '{path}': ")


def test_import_leaves_scipy_solvers_unloaded():
    """Importing the command line loads neither scipy.linalg nor scipy.optimize."""
    code = ("import sys, memspin.cli; "
            "print(sorted(m for m in ('scipy.linalg', 'scipy.optimize') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_fock_verify_leaves_scipy_solvers_unloaded(tmp_path):
    """The CZ path, the nonlinear-sign derivation included, runs on numpy alone."""
    code = ("import sys; from memspin import cli; "
            f"assert cli.main(['fock-verify', 'klm_cz', '--out', {str(tmp_path)!r}]) == 0; "
            "print(sorted(m for m in ('scipy.linalg', 'scipy.optimize') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip().splitlines()[-1] == "[]"
