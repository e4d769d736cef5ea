import gc
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from memspin import cli, compiler, pde


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


# every (command, bundled scenario) pair whose op writes report.json, one per op
WRITING_OPS = [("run", "identity_1mode"), ("run", "eq5_regime_sweep"), ("run", "klm_cz"),
               ("fock-verify", "klm_cz"), ("extract-transfer", "identity_1mode")]


@pytest.mark.parametrize("command, scenario", WRITING_OPS)
def test_every_report_holds_label_hash_and_wall_time(tmp_path, command, scenario):
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # eq5's margin_1 case fails the margins
        assert run_cli([command, scenario, "--out", out]) == cli.EXIT_OK
    report = json.loads((out / "report.json").read_text())
    cfg = cli.load_config(scenario)
    assert report["label"] == cfg["label"]
    assert report["config_hash"] == cli.config_hash(cfg)
    assert report["wall_time_s"] >= 0


@pytest.mark.parametrize("command, scenario", WRITING_OPS)
def test_out_naming_a_file_exits_2_before_the_op(tmp_path, monkeypatch, capsys, command,
                                                 scenario):
    def build(*args, **kwargs):
        pytest.fail("the op started although --out names a file")

    for name in ("NetworkSetup", "build_eq5_cases", "build_fock_run"):
        monkeypatch.setattr(cli, name, build)
    afile = tmp_path / "afile"
    afile.write_text("kept")
    assert run_cli([command, scenario, "--out", afile]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"error: --out '{afile}' names a file, not a directory\n"
    assert afile.read_text() == "kept"
    # a directory below the file cannot be made either
    below = afile / "sub"
    assert run_cli([command, scenario, "--out", below]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == (f"error: --out '{below}' lies below '{afile}', "
                                       "a file, not a directory\n")
    assert afile.read_text() == "kept"


def test_unknown_scenario_exits_2(tmp_path):
    assert run_cli(["run", "no_such_scenario", "--out", tmp_path]) == cli.EXIT_CONFIG


def test_invalid_json_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert run_cli(["validate", bad]) == cli.EXIT_CONFIG


@pytest.mark.parametrize("kind", ["directory", "not_utf8"])
def test_unreadable_config_exits_2(tmp_path, capsys, kind):
    bad = tmp_path / "cfg.json"
    if kind == "directory":
        bad.mkdir()
    else:
        bad.write_bytes(b"\xff\xfe{}")
    assert run_cli(["validate", bad]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"error: config '{bad}' ")


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


def test_herald_that_never_fires_exits_3(tmp_path, capsys):
    """A U1 override that swaps ancilla modes 4 and 5 (rows 2 and 3 of its six
    modes) leaves fock-verify no success branch to condition on."""
    cfg = json.loads(cli.scenario_path("klm_cz").read_text())
    cfg["fock"]["stages"][0]["re"] = np.eye(6)[[0, 1, 3, 2, 4, 5]].tolist()
    bad = tmp_path / "swapped.json"
    bad.write_text(json.dumps(cfg))
    assert run_cli(["fock-verify", bad, "--out", tmp_path / "o"]) == cli.EXIT_NUMERIC
    assert capsys.readouterr().err == "numerical error: input 00: expected one success branch\n"


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


def test_eq5_cases_on_two_grids_report_in_config_order(tmp_path):
    """Cases on different steps run as separate batches; the report keeps the
    config's case order and each case's values are those of its own run."""
    cfg = cli.load_config("eq5_regime_sweep")
    cfg["cases"] = [
        {"label": "a", "spacing_mhz": 1.0, "dt_us": 0.02},
        {"label": "b", "spacing_mhz": 0.5, "dt_us": 0.01},
        {"label": "c", "spacing_mhz": 0.25, "dt_us": 0.02},
    ]
    path = tmp_path / "eq5.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "eq5"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # narrow spacings fail the margins
        assert run_cli(["run", path, "--out", out, "--grid-scale", "0.5"]) == cli.EXIT_OK
        cell, pulse, options, groups = cli.build_eq5_cases(cfg, 0.5)
        report = json.loads((out / "report.json").read_text())
        assert [c["label"] for c in report["cases"]] == ["a", "b", "c"]
        assert [c["spacing_mhz"] for c in report["cases"]] == [1.0, 0.5, 0.25]
        assert len(groups) == 2
        cases = {case["label"]: (grid, case) for grid, group in groups.items() for case in group}
        for row in report["cases"]:
            grid, case = cases[row["label"]]
            (ref,) = pde.eq5_deviation(cell, [case["entries"]], pulse, grid,
                                       [case["spectrum"]], options)
            got = (row["efficiency_multi_transition"], row["efficiency_single_excited"],
                   row["relative_deviation"])
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)


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
    result, *_ = cli.run_network(cli.NetworkSetup(cfg, grid_scale=0.5, heatmap=True))
    for name, matrix in (("heatmap_field.csv", result.heatmap_field),
                         ("heatmap_spin.csv", result.heatmap_spin)):
        row_format = ",".join(["%.8e"] * matrix.shape[1]) + "\n"
        body = (out / name).read_bytes().split(b"\n", 1)[1]
        assert body == "".join(row_format % tuple(row) for row in matrix.tolist()).encode()


def test_modal_heatmaps_match_real_space(monkeypatch):
    """The heatmaps of a run in modal coordinates, mapped back to the grid at
    every sample, equal those of the run forced into real space (a
    conditioning limit of 0) to 1e-12 of their largest entry."""
    cfg = json.loads(cli.scenario_path("ten_mode_two_ops").read_text())
    setup = cli.NetworkSetup(cfg, grid_scale=0.5, heatmap=True)
    modal, *_ = cli.run_network(setup)
    monkeypatch.setattr(pde, "MODAL_COND_LIMIT", 0.0)
    real, *_ = cli.run_network(setup)
    for name in ("heatmap_field", "heatmap_spin"):
        ref = getattr(real, name)
        assert np.max(np.abs(getattr(modal, name) - ref)) <= 1e-12 * np.max(ref)


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


SCENARIO_OF_TYPE = {"network": "random_3mode", "eq5_sweep": "eq5_regime_sweep",
                    "fock": "klm_cz"}


def scalar_entries(schema, path=""):
    """(dotted path, type) of every value a schema allows, list entries at index 0."""
    if isinstance(schema, tuple):
        for form in schema:
            yield from scalar_entries(form, path)
    elif isinstance(schema, dict):
        for key, sub in schema.items():
            yield from scalar_entries(sub, f"{path}.{key}" if path else key)
    elif isinstance(schema, list):
        yield from scalar_entries(schema[0], f"{path}.0")
    elif isinstance(schema, type):
        yield path, schema


def with_entry(node, parts, value):
    """``node`` with the entry at ``parts`` set to ``value``; a section or list
    missing on the way, or another value in its place, is made anew."""
    if not parts:
        return value
    head, *rest = parts
    if head == "0":
        node = list(node) if isinstance(node, list) and node else [None]
        node[0] = with_entry(node[0], rest, value)
    else:
        node = dict(node) if isinstance(node, dict) else {}
        node[head] = with_entry(node.get(head), rest, value)
    return node


def wrong_typed_entries():
    """A bool where a number or string belongs and a string where a switch
    belongs, for every value of every config type; a path seen under an earlier
    type is named with its type."""
    seen = set()
    for kind, schema in cli.SCHEMAS.items():
        for path, typ in scalar_entries(schema):
            name = f"{kind}:{path}" if path in seen else path
            seen.add(path)
            yield pytest.param(kind, path, "true" if typ is bool else True, id=name)
    yield pytest.param("network", "label", 5, id="label_int")
    yield pytest.param("network", "type", [], id="type_list")


@pytest.mark.parametrize("kind, path, value", list(wrong_typed_entries()))
def test_json_bool_rejected_as_number(tmp_path, capsys, kind, path, value):
    """Every entry is checked against the type its schema gives, read or not."""
    cfg = json.loads(cli.scenario_path(SCENARIO_OF_TYPE[kind]).read_text())
    bad = tmp_path / "wrong.json"
    bad.write_text(json.dumps(with_entry(cfg, path.split("."), value)))
    assert run_cli(["validate", bad]) == cli.EXIT_CONFIG
    assert f"config entry '{path}' must be " in capsys.readouterr().err


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
    ("klm_cz", {"fock.stages.0.label": "U9"},
     "fock.stages.0.label 'U9' does not match assembly label 'U1'"),
    ("klm_cz", {"fock.stages.0.window": 7},
     "fock.stages.0.window 7 does not match assembly window 0"),
    ("fifty_mhz_margins", {"spectrum.n_modes": 3, "spectrum.spacing_mhz": 15},
     "'spectrum.n_modes' is ignored"),
    ("fifty_mhz_margins", {"spectrum.spacing_mhz": 15}, "'spectrum.spacing_mhz' is ignored"),
    ("hadamard_2mode", {"unitaries.write.seed": 3}, "'unitaries.write.seed' is ignored"),
    ("random_3mode", {"unitaries.read.re": np.eye(3).tolist()},
     "'unitaries.read.re' is ignored"),
    ("identity_1mode", {"unitaries.read.im": [[0.0]]}, "'unitaries.read.im' is ignored"),
    ("identity_1mode", {"spectrum.spacing_mhz": 15.0},
     "config entry 'spectrum.spacing_mhz' is ignored where 'spectrum.n_modes' is 1"),
    ("hadamard_2mode", {"pulse.mode_amplitudes": {"re": [1, 0], "im": [0]}},
     "'pulse.mode_amplitudes.im' differ in shape"),
    ("hadamard_2mode", {"pulse.mode_amplitudes": {"re": [1, 0], "im": [0, 0, 0]}},
     "'pulse.mode_amplitudes.im' differ in shape"),
    ("identity_1mode", {"atoms.Gamma_mhz": float("nan")},
     "config entry 'atoms.Gamma_mhz' must be finite"),
    ("identity_1mode", {"pulse.fwhm_us": float("nan")},
     "config entry 'pulse.fwhm_us' must be finite"),
    ("identity_1mode", {"cells.gradient_mhz": float("nan")},
     "config entry 'cells.gradient_mhz' must be finite"),
    ("identity_1mode", {"grid.dt_us": float("nan")}, "config entry 'grid.dt_us' must be finite"),
    ("identity_1mode", {"grid.window_us": float("inf")},
     "config entry 'grid.window_us' must be finite"),
    ("klm_cz", {"fock.photon_cap": 3},
     "config entry 'fock.photon_cap' must be at least 4, the photons of the 'cz' assembly"),
    ("klm_cz", {"fock.photon_cap": 0}, "config entry 'fock.photon_cap' must be at least 4"),
    ("klm_cz", {"fock.inputs": []}, "config entry 'fock.inputs' must not be empty"),
    ("klm_cz", {"fock.herald": [1, 0, 1, -1]},
     "config entry 'fock.herald': photon counts must lie in 0 ... 4"),
    ("klm_cz", {"fock.herald": [5, 0, 1, 0]},
     "config entry 'fock.herald': photon counts must lie in 0 ... 4"),
    ("klm_cz", {"fock.herald": [2, 0, 2, 1]},
     "config entry 'fock.herald': photon counts must lie in 0 ... 4, the photon cap, "
     "and total at most 4, the photons of the 'cz' assembly; got [2, 0, 2, 1]"),
    ("eq5_regime_sweep", {"cases": []}, "config entry 'cases' must not be empty"),
    ("eq5_regime_sweep", {"cases.1.label": "margin_100"},
     "config entry 'cases': labels must be distinct; got ['margin_100', 'margin_100']"),
    ("fifty_mhz_margins", {"spectrum.detunings_mhz": []},
     "config entry 'spectrum.detunings_mhz' must not be empty"),
], ids=["Gamma_mhz", "spacing_mhz", "inputs", "export_plans", "ragged_matrix",
        "string_entry", "bool_stage_entry", "echo_outside_windows",
        "ancilla_out_of_range", "ancilla_duplicate", "herald_length", "ancilla_negative",
        "stage_label", "stage_window", "n_modes_beside_detunings",
        "spacing_beside_detunings", "seed_not_haar", "re_not_explicit", "im_not_explicit",
        "spacing_beside_one_mode", "im_shorter_than_re", "im_longer_than_re",
        "Gamma_nan", "fwhm_nan", "gradient_nan", "dt_nan", "window_infinity",
        "photon_cap_below_photons", "photon_cap_zero", "inputs_empty", "herald_negative",
        "herald_above_cap", "herald_above_photons", "cases_empty", "cases_duplicate_label",
        "detunings_empty"])
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
    ("fock.herald", [1, 0, 1, -1]),
    ("fock.herald", [5, 0, 1, 0]),
], ids=["ancilla_out_of_range", "ancilla_duplicate", "herald_length", "ancilla_negative",
        "herald_negative", "herald_above_cap"])
def test_fock_policy_error_names_entry(tmp_path, capsys, path, value):
    """validate and fock-verify both name the offending entry by its dotted path."""
    cfg = json.loads(cli.scenario_path("klm_cz").read_text())
    set_entry(cfg, path, value)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    for command in (["validate", bad], ["fock-verify", bad, "--out", tmp_path / "o"]):
        assert run_cli(command) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"error: config entry '{path}': ")


def test_bundled_configs_load_as_parsed():
    """load_config coerces nothing and fills in nothing, so the hash is the file's."""
    for name in cli.bundled_scenarios():
        parsed = json.loads(cli.scenario_path(name).read_text())
        assert cli.config_hash(cli.load_config(name)) == cli.config_hash(parsed), name


def test_float_entries_written_as_integers_report_as_floats(tmp_path):
    """A float entry written as a JSON integer runs and reports as the float would."""
    def integral_as_int(text):
        return int(float(text)) if float(text).is_integer() else float(text)

    cfg = json.loads(cli.scenario_path("identity_1mode").read_text(),
                     parse_float=integral_as_int)
    assert type(cfg["grid"]["window_us"]) is int and type(cfg["atoms"]["Gamma_mhz"]) is int
    path = tmp_path / "ints.json"
    path.write_text(json.dumps(cfg))
    reports = []
    for config in ("identity_1mode", path):
        assert run_cli(["run", config, "--out", tmp_path / "o"]) == cli.EXIT_OK
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        reports.append({k: v for k, v in report.items()
                        if k not in ("config_hash", "wall_time_s")})
    assert json.dumps(reports[0], sort_keys=True) == json.dumps(reports[1], sort_keys=True)


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


def edited(tmp_path, scenario, edits):
    """Path of a copy of a bundled scenario with ``edits`` (dotted path -> value)."""
    cfg = json.loads(cli.scenario_path(scenario).read_text())
    for path, value in edits.items():
        set_entry(cfg, path, value)
    path = tmp_path / f"{scenario}_edited.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.mark.parametrize("scenario, edits, message", [
    ("eq5_regime_sweep", {"cases.0.dt_us": 0.2},
     "time step 0.2 does not resolve the fastest beat (need <= 0.025)"),
    ("identity_1mode", {"grid.dt_us": 1.0}, "(dt * rate = 0.92 > 0.5)"),
    ("eq5_regime_sweep", {"cases": [{"label": "margin_1", "spacing_mhz": 0.019068,
                                     "dt_us": 0.4}]}, "(dt * rate = 0.61 > 0.5)"),
    ("eq5_regime_sweep", {"atoms.delta_mhz": 40.0},
     "too large for rotation 252 rad/us (dt * rotation = 2.52 > 0.2)"),
    ("eq5_regime_sweep", {"atoms.delta_mhz": 45.0},
     "too large for rotation 283 rad/us (dt * rotation = 2.83 > 0.2)"),
    ("random_3mode", {"atoms.delta_mhz": 20.0, "options": {"auto_two_photon": False}},
     "too large for rotation 126 rad/us (dt * rotation = 2.52 > 0.2)"),
    ("random_3mode", {"atoms.delta_mhz": 1.55, "options": {"auto_two_photon": False}},
     "too large for rotation 10.1 rad/us (dt * rotation = 0.201 > 0.2)"),
], ids=["eq5_beat", "chain_rate", "eq5_rate", "eq5_rotation_40", "eq5_rotation_45",
        "chain_rotation", "chain_rotation_edge"])
def test_validate_runs_the_step_size_guards(tmp_path, capsys, scenario, edits, message):
    """validate builds the window operators of every chain run would build, so
    a step run rejects exits 3 in validate too, with run's message.  The
    rotation cases are two-photon detunings the RK4 step misreads: unguarded,
    the sweep at 40 MHz exits 0 with efficiencies about 110 times off, and
    at 45 MHz one efficiency exceeds unity."""
    bad = edited(tmp_path, scenario, edits)
    assert run_cli(["run", bad, "--out", tmp_path / "o"]) == cli.EXIT_NUMERIC
    run_err = capsys.readouterr().err
    assert run_err.startswith("numerical error: ") and message in run_err
    assert run_cli(["validate", bad]) == cli.EXIT_NUMERIC
    assert capsys.readouterr().err == run_err


@pytest.mark.parametrize("command, scenario, edits, calls", [
    ("run", "identity_1mode", {}, 1),
    ("run", "random_3mode", {"outputs.transfer": True}, 1),
    ("extract-transfer", "hadamard_2mode", {}, 1),
    ("run", "eq5_regime_sweep", {}, 1),
    ("run", "eq5_regime_sweep", {"cases.1.dt_us": 0.005}, 2),
], ids=["run", "run_transfer", "extract_transfer", "eq5_one_grid", "eq5_two_grids"])
def test_one_integration_per_op(tmp_path, monkeypatch, command, scenario, edits, calls):
    """Each op integrates once: the network with its echo (and probes), the
    probes with the echo, and both eq5 models of all cases on a grid."""
    counted = []
    batch = pde._simulate_batch

    def counting(chains, grid, heat=None):
        counted.append(len(chains))
        return batch(chains, grid, heat)

    monkeypatch.setattr(pde, "_simulate_batch", counting)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # margin_1 fails the margins
        assert run_cli([command, edited(tmp_path, scenario, edits), "--out", tmp_path / "o",
                        "--grid-scale", "0.5"]) == cli.EXIT_OK
    assert len(counted) == calls
    if scenario == "random_3mode":
        assert counted == [1 + 3 + 1]  # network, three probes, echo


def test_eq5_sweep_matches_pinned_values(tmp_path):
    """The bundled sweep's efficiencies against pinned reference values to 1e-12
    relative; a deviation is a difference of efficiencies over eff_multi, so it
    is held to the same bound in absolute terms."""
    pinned = {
        "margin_100": (0.8306179955704462, 0.8304430076804689, 0.00021067192248490582),
        "margin_1": (0.8306179955704466, 0.6795878871496733, 0.18182860138618806),
    }
    with pytest.warns(RuntimeWarning):
        assert run_cli(["run", "eq5_regime_sweep", "--out", tmp_path]) == cli.EXIT_OK
    for case in json.loads((tmp_path / "report.json").read_text())["cases"]:
        multi, single, deviation = pinned[case["label"]]
        assert case["efficiency_multi_transition"] == pytest.approx(multi, rel=1e-12, abs=0)
        assert case["efficiency_single_excited"] == pytest.approx(single, rel=1e-12, abs=0)
        assert case["relative_deviation"] == pytest.approx(deviation, rel=0, abs=1e-12)


@pytest.mark.parametrize("nz, dt, scale", [(64, 0.02, 1.0), (256, 0.02, 0.5), (100, 0.01, 2.0),
                                           (128, 0.02, 1.5), (256, 0.04, 0.25)])
def test_build_grid_refines_as_before(nz, dt, scale):
    """build_grid goes through Grid.refined and builds the grid the explicit
    arithmetic built: nz scaled and rounded, dt divided by the scale."""
    cfg = {"grid": {"nz": nz, "dt_us": dt, "window_us": 40.0}}
    expected = pde.Grid(nz=int(round(nz * scale)), dt=dt / scale, window=40.0)
    assert cli.build_grid(cfg, scale) == expected


def test_grid_scale_does_not_lift_an_invalid_base_grid(tmp_path, capsys):
    """The unscaled grid must be valid itself: nz 48 fails even where a scale of 2
    would lift it over the limit."""
    small = edited(tmp_path, "identity_1mode", {"grid.nz": 48})
    assert run_cli(["validate", small, "--grid-scale", "2"]) == cli.EXIT_CONFIG
    assert "nz must be at least 64" in capsys.readouterr().err


@pytest.mark.parametrize("scale", ["nan", "inf", "0", "-1"])
def test_grid_scale_must_be_finite_and_positive(tmp_path, capsys, scale):
    """Every command refuses the scale with exit 2, not a traceback, for every
    config type, a fock config too, which builds no grid."""
    for command in (["validate", "identity_1mode"],
                    ["run", "identity_1mode", "--out", tmp_path / "o"],
                    ["validate", "eq5_regime_sweep"],
                    ["extract-transfer", "identity_1mode", "--out", tmp_path / "o"],
                    ["validate", "klm_cz"],
                    ["fock-verify", "klm_cz", "--out", tmp_path / "o"]):
        assert run_cli([*command, "--grid-scale", scale]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == ("error: grid scale must be finite and positive, "
                                           f"not {float(scale)}\n")
    assert not (tmp_path / "o").exists()


def test_load_config_closes_the_file(tmp_path):
    """A config given by path is read and closed: no ResourceWarning."""
    path = edited(tmp_path, "identity_1mode", {})
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        cli.load_config(str(path))
        gc.collect()
    assert [w for w in record if issubclass(w.category, ResourceWarning)] == []


@pytest.mark.parametrize("command, scenario, needed", [
    ("fock-verify", "ten_mode_two_ops", "fock"),
    ("fock-verify", "eq5_regime_sweep", "fock"),
    ("extract-transfer", "eq5_regime_sweep", "network"),
    ("extract-transfer", "klm_cz", "network"),
])
def test_command_refuses_a_config_of_another_type(tmp_path, capsys, command, scenario, needed):
    assert run_cli([command, scenario, "--out", tmp_path / "o"]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == (f"error: {command} needs a config of type "
                                       f"'{needed}'\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, edits", [
    ("extract-transfer", {}),
    ("run", {"outputs.transfer": True}),
], ids=["extract_transfer", "run_transfer"])
def test_failed_margins_warn_once_per_op(tmp_path, command, edits):
    """A network and its basis probes share their couplings, so an op whose
    margins fail warns once, from the line in cli that integrates."""
    path = edited(tmp_path, "random_3mode", {"margin_threshold": 1e12, **edits})
    with pytest.warns(RuntimeWarning, match="validity margins below threshold") as record:
        assert run_cli([command, path, "--out", tmp_path / "o",
                        "--grid-scale", "0.5"]) == cli.EXIT_OK
    margins = [w for w in record if issubclass(w.category, RuntimeWarning)]
    assert [Path(w.filename).name for w in margins] == ["cli.py"]


@pytest.mark.parametrize("command, scenario, edits, calls", [
    ("extract-transfer", "random_3mode", {}, 6 + 2),
    ("run", "random_3mode", {"outputs.transfer": True}, 6 + 2),
    ("run", "ten_mode_two_ops", {"outputs.heatmap": False}, 20 + 2),
    ("run", "eq5_regime_sweep", {}, 6),
], ids=["extract_transfer", "run_transfer", "run_golden", "eq5"])
def test_margins_checked_once_per_distinct_chain(tmp_path, monkeypatch, command, scenario,
                                                 edits, calls):
    """The basis probes share the network's cells, schedule, spectrum and
    threshold, so their couplings are checked with the network's: one
    margin_report per coupling of each distinct chain (the reference echo's
    two, a network's two per cell, and an eq5 sweep's one per model of a case)."""
    counted = []
    report = pde.margin_report

    def counting(*args, **kwargs):
        counted.append(1)
        return report(*args, **kwargs)

    monkeypatch.setattr(pde, "margin_report", counting)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # margin_1 fails the margins
        assert run_cli([command, edited(tmp_path, scenario, edits), "--out", tmp_path / "o",
                        "--grid-scale", "0.5"]) == cli.EXIT_OK
    assert len(counted) == calls


def test_eq5_light_shift_counted_once_without_the_retune(tmp_path):
    """With the retune off, the single-excited model carries the light shift in
    its oscillating rate alone, as the multi-transition model carries it in
    its static detuning: margin_100 agrees to 1e-3 (it read 0.175 with the
    shift applied twice) and margin_1 stays out of regime."""
    path = edited(tmp_path, "eq5_regime_sweep", {"options": {"auto_two_photon": False}})
    with pytest.warns(RuntimeWarning, match="validity margins"):
        assert run_cli(["run", path, "--out", tmp_path / "o"]) == cli.EXIT_OK
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    deviation = {case["label"]: case["relative_deviation"] for case in report["cases"]}
    assert deviation["margin_100"] <= 1e-3
    assert deviation["margin_1"] > 0.05


@pytest.mark.parametrize("center", [20.0, 10.0, 6.0])
def test_transfer_divides_by_the_input_energy_the_efficiency_divides_by(center):
    """On one mode |T|^2 is the efficiency, also where part of the pulse falls
    before the window: both divide by the energy that enters it."""
    cfg = cli.load_config("identity_1mode")
    cfg["pulse"]["center_us"] = center
    result, _, t = cli.run_network(cli.NetworkSetup(cfg, grid_scale=0.5), transfer=True)
    assert abs(t[0, 0]) ** 2 == pytest.approx(result.efficiency, rel=1e-12, abs=0)


@pytest.mark.parametrize("which", ["write", "read"])
def test_negative_haar_seed_exits_2_before_any_integration(tmp_path, monkeypatch, capsys,
                                                           which):
    """validate and run name a negative seed instead of passing it to numpy's
    generator, and integrate nothing."""
    def integrate(*args, **kwargs):
        raise AssertionError("integrated")

    monkeypatch.setattr(pde, "_simulate_batch", integrate)
    bad = edited(tmp_path, "random_3mode", {f"unitaries.{which}.seed": -1})
    for command in (["validate", bad], ["run", bad, "--out", tmp_path / "o"]):
        assert run_cli(command) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (f"error: config entry 'unitaries.{which}.seed' "
                                           f"must be non-negative; got -1\n")
    assert not (tmp_path / "o").exists()


def test_golden_run_keeps_the_seed_values():
    """ten_mode_two_ops, heatmaps off, against the efficiency and overlap of the
    seed to 1e-10 relative."""
    result, _, _ = cli.run_network(cli.NetworkSetup(cli.load_config("ten_mode_two_ops")))
    assert result.efficiency == pytest.approx(0.9092112727234078, rel=1e-10, abs=0)
    assert result.overlap == pytest.approx(0.9999999999999998, rel=1e-10, abs=0)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_realised_transfer_is_the_echo_times_the_compiled_unitary(n):
    """Seeded Haar write and read plans on random_3mode physics at grid scale
    0.5: the extracted transfer T is tau U for the ideal transfer U, and the
    network loses what its reference echo loses."""
    cfg = cli.load_config("random_3mode")
    cfg["cells"]["count"] = cfg["spectrum"]["n_modes"] = n
    cfg["unitaries"] = {"write": {"kind": "haar", "seed": 100 + n},
                        "read": {"kind": "haar", "seed": 200 + n}}
    setup = cli.NetworkSetup(cfg, grid_scale=0.5)
    network, *probes, echo = pde._simulate_batch(setup.chains(True), setup.grid)
    t = pde.transfer_from_probes(probes, pde.echo_mode(echo), setup.schedule, setup.grid,
                                 setup.pulse)
    u = compiler.ideal_transfer(setup.u_in, setup.u_out)
    tau = np.trace(u.conj().T @ t) / n
    assert np.linalg.norm(t - tau * u) <= 1e-11 * np.linalg.norm(t)
    assert abs(network.efficiency - echo.efficiency) <= 1e-11
