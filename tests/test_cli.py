"""Batch CLI: config handling, outputs, atomicity, determinism."""

import csv
import json
from dataclasses import replace

import numpy as np
import pytest
import yaml

from dosedid.cli import dispatch
from dosedid.data import PanelDataset, TwoPeriodDataset, write_panel
from dosedid.errors import EstimationError
from dosedid.simulation import generate_placebo_panel, generate_scenario_data


@pytest.fixture()
def panel_file(tmp_path):
    data = generate_scenario_data(260, 61)
    panel = PanelDataset(
        ids=data.ids,
        x=data.x,
        a=data.a,
        dose=data.dose,
        y=np.column_stack([data.y0, data.y1]),
        period_labels=(0, 1),
        covariate_names=data.covariate_names,
    )
    path = tmp_path / "panel.csv"
    write_panel(panel, path)
    return path


def _schema_block():
    return {
        "id": "id",
        "treatment": "a",
        "dose": "d",
        "covariates": ["x1", "x2", "x3", "x4"],
        "outcomes": {0: "y_0", 1: "y_1"},
    }


def _write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(payload), encoding="utf-8")
    return path


def test_validate_command(tmp_path, panel_file, capsys):
    cfg = _write_config(
        tmp_path, "validate.yaml", {"data": {"path": str(panel_file), "schema": _schema_block()}}
    )
    assert dispatch(["validate", "-c", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "no violations" in out


def test_repeated_unit_id_is_a_data_error(tmp_path, panel_file, capsys):
    """A panel that repeats a unit id fails ``validate`` and ``estimate``
    with a data error naming it; ``validate`` still prints and writes its
    report."""
    lines = panel_file.read_text(encoding="utf-8").splitlines()
    second_id = lines[2].split(",")[0]
    lines[2] = ",".join(["u0", *lines[2].split(",")[1:]])
    panel_file.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert second_id != "u0" and lines[1].startswith("u0,")
    cfg = _write_config(
        tmp_path,
        "validate.yaml",
        {"output": str(tmp_path / "report"), "data": {"path": str(panel_file), "schema": _schema_block()}},
    )
    assert dispatch(["validate", "-c", str(cfg)]) == 3
    captured = capsys.readouterr()
    assert "FATAL: repeated unit ids: 'u0' (2 rows)" in captured.out
    assert captured.err == "dosedid: data-error: repeated unit ids: 'u0' (2 rows)\n"
    assert "FATAL: repeated unit ids" in (tmp_path / "report" / "validation.txt").read_text(encoding="utf-8")
    assert _estimate(tmp_path, panel_file) == 3
    assert capsys.readouterr().err == "dosedid: data-error: repeated unit ids: 'u0' (2 rows)\n"
    assert not (tmp_path / "out").exists()


def test_estimate_outputs_and_determinism(tmp_path, panel_file):
    payload = {
        "seed": 3,
        "output": str(tmp_path / "run1"),
        "data": {"path": str(panel_file), "schema": _schema_block()},
        "methods": ["MR", "NAIVE"],
        "grid": {"size": 12},
        "nuisance": {"mu1": {"dose_powers": [1, 3], "dose_interactions": [0, 2]}},
        "inference": {"method": "both", "B": 8},
    }
    cfg = _write_config(tmp_path, "estimate.yaml", payload)
    assert dispatch(["estimate", "-c", str(cfg)]) == 0
    out1 = tmp_path / "run1"
    assert (out1 / "curve_MR.csv").exists()
    assert (out1 / "curve_MR_sandwich.csv").exists()
    assert (out1 / "curve_NAIVE.csv").exists()
    manifest = json.loads((out1 / "run_manifest.json").read_text())
    assert manifest["command"] == "estimate"
    assert manifest["config"]["seed"] == 3
    assert "MR" in manifest["diagnostics"]
    assert manifest["diagnostics"]["NAIVE"]["bandwidth_at_grid_edge"] in (None, "low", "high")
    assert manifest["diagnostics"]["NAIVE"]["bandwidth_extended"] in (True, False)
    assert manifest["diagnostics"]["MR_bootstrap_failures"] == {}
    assert manifest["diagnostics"]["MR_bootstrap_pi_a_unconverged"] == 0
    assert manifest["diagnostics"]["MR_bootstrap_pi_d_var_floored"] == 0
    assert 1.0 <= manifest["diagnostics"]["MR_sandwich_bread_cond_max"] < 1e12
    assert manifest["diagnostics"]["MR"]["marginal_nodes"] > 0
    assert 0.0 < manifest["diagnostics"]["MR"]["w1_ess"] <= 260
    assert manifest["diagnostics"]["MR"]["mu1_ridged"] is False
    assert manifest["diagnostics"]["MR"]["f_floor_hits"] == 0
    assert manifest["diagnostics"]["MR"]["pi_d_floor_hits"] == 0
    assert manifest["diagnostics"]["MR"]["pi_d_var_floor_hits"] == 0

    assert dispatch(["estimate", "-c", str(cfg), "--set", f"output={tmp_path / 'run2'}"]) == 0
    for name in ("curve_MR.csv", "curve_MR_sandwich.csv", "curve_NAIVE.csv"):
        assert (out1 / name).read_bytes() == (tmp_path / "run2" / name).read_bytes()


def test_estimate_fits_each_model_once(tmp_path, panel_file, monkeypatch):
    """MR, OR, NAIVE and TWFE with sandwich bands share one model bank: the
    four nuisance models are fitted once and the m and f marginals formed
    once each."""
    from dosedid import nuisance

    calls = {}

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        return counted

    for name in ("fit_pi_a", "fit_pi_d", "fit_mu1", "fit_mu0", "marginalize"):
        monkeypatch.setattr(nuisance, name, counting(name, getattr(nuisance, name)))
    payload = {
        "output": str(tmp_path / "run"),
        "data": {"path": str(panel_file), "schema": _schema_block()},
        "methods": ["MR", "OR", "NAIVE", "TWFE"],
        "grid": {"size": 12},
        "nuisance": {"mu1": {"dose_powers": [1, 3], "dose_interactions": [0, 2]}},
        "inference": {"method": "sandwich", "mode": "base"},
    }
    assert dispatch(["estimate", "-c", str(_write_config(tmp_path, "estimate.yaml", payload))]) == 0
    assert calls == {"fit_pi_a": 1, "fit_pi_d": 1, "fit_mu1": 1, "fit_mu0": 1, "marginalize": 2}


def test_estimate_fails_fast_without_partial_outputs(tmp_path, panel_file):
    payload = {
        "output": str(tmp_path / "broken"),
        "data": {"path": str(panel_file), "schema": {**_schema_block(), "covariates": ["x1", "nope"]}},
        "methods": ["NAIVE"],
    }
    cfg = _write_config(tmp_path, "bad.yaml", payload)
    code = dispatch(["estimate", "-c", str(cfg)])
    assert code == 3  # data-error
    assert not (tmp_path / "broken").exists()
    assert not (tmp_path / "broken.staging").exists()


def test_non_finite_cells_are_one_data_error_naming_each_unit(tmp_path, panel_file, capsys):
    """nan, inf and -Infinity parse as numbers; the panel's validation then
    names every unit that carries one, in one classified line."""
    rows = [line.split(",") for line in panel_file.read_text(encoding="utf-8").splitlines()]
    col = {name: k for k, name in enumerate(rows[0])}
    treated = [r for r in rows[1:] if r[col["a"]] == "1"]
    control = [r for r in rows[1:] if r[col["a"]] == "0"]
    treated[0][col["y_1"]] = "nan"
    control[0][col["x2"]] = "inf"
    treated[1][col["d"]] = "-Infinity"
    path = tmp_path / "non_finite.csv"
    path.write_text("\n".join(",".join(r) for r in rows) + "\n", encoding="utf-8")
    payload = {
        "output": str(tmp_path / "out"),
        "data": {"path": str(path), "schema": _schema_block()},
        "methods": ["NAIVE"],
    }
    code = dispatch(["estimate", "-c", str(_write_config(tmp_path, "nonfinite.yaml", payload))])
    err = capsys.readouterr().err
    assert code == 3
    assert err.count("\n") == 1
    assert err.startswith("dosedid: data-error: non-finite ")
    for kind, row in (("outcome", treated[0]), ("covariate", control[0]), ("dose", treated[1])):
        assert f"non-finite {kind} for unit {row[col['id']]!r}" in err
    assert not (tmp_path / "out").exists()


def test_error_line_is_single_and_classified(tmp_path, capsys):
    cfg = _write_config(tmp_path, "none.yaml", {"output": str(tmp_path / "x")})
    code = dispatch(["estimate", "-c", str(cfg)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1
    assert err.startswith("dosedid: config-error:")


def test_config_error_lists_all_problems(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        "multi.yaml",
        {"methods": ["NOPE"], "data": {}, "nuisance": {"mu9": {}}},
    )
    code = dispatch(["estimate", "-c", str(cfg)])
    err = capsys.readouterr().err
    assert code == 2
    assert "NOPE" in err and "mu9" in err and "output" in err and "path" in err


@pytest.mark.parametrize("method", ["sandwich", "bootstrap"])
@pytest.mark.parametrize("mode", ["stacked", "bogus"])
def test_unknown_inference_mode_is_a_config_error(tmp_path, panel_file, capsys, monkeypatch, method, mode):
    fits = []
    monkeypatch.setattr("dosedid.cli.ModelBank", lambda *a, **k: fits.append(a))
    monkeypatch.setattr("dosedid.cli.estimate_curves", lambda *a, **k: fits.append(a))
    payload = {
        "output": str(tmp_path / "out"),
        "data": {"path": str(panel_file), "schema": _schema_block()},
        "methods": ["MR"],
        "inference": {"method": method, "mode": mode, "B": 4},
    }
    code = dispatch(["estimate", "-c", str(_write_config(tmp_path, "mode.yaml", payload))])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1
    assert err.startswith("dosedid: config-error:") and mode in err
    assert fits == []
    assert not (tmp_path / "out").exists()


def test_existing_output_needs_force(tmp_path, panel_file):
    payload = {
        "output": str(tmp_path / "dup"),
        "data": {"path": str(panel_file), "schema": _schema_block()},
        "methods": ["NAIVE"],
        "grid": {"size": 8},
    }
    cfg = _write_config(tmp_path, "dup.yaml", payload)
    assert dispatch(["estimate", "-c", str(cfg)]) == 0
    assert dispatch(["estimate", "-c", str(cfg)]) == 2
    assert dispatch(["estimate", "-c", str(cfg), "--force"]) == 0


def test_simulate_command(tmp_path):
    payload = {
        "seed": 5,
        "output": str(tmp_path / "sim"),
        "methods": ["MR", "OR"],
        "scenario": {"n": 120, "replicates": 2, "misspecified": ["pi_a"], "super_n": 20000},
    }
    cfg = _write_config(tmp_path, "sim.yaml", payload)
    assert dispatch(["simulate", "-c", str(cfg)]) == 0
    report = (tmp_path / "sim" / "report.csv").read_text().splitlines()
    assert report[0].startswith("method,misspecified,integrated_abs_bias")
    assert len(report) == 3
    summary = json.loads((tmp_path / "sim" / "summary.json").read_text())
    assert "pi_a" in summary["scenarios"]
    # MR selects its bandwidth; OR smooths nothing, so its shares are empty.
    rows = {row["method"]: row for row in csv.DictReader(report)}
    mr, or_ = summary["scenarios"]["pi_a"]["MR"], summary["scenarios"]["pi_a"]["OR"]
    for name in ("bandwidth_at_grid_edge", "bandwidth_extended"):
        assert float(rows["MR"][name]) == mr[name] and 0.0 <= mr[name] <= 1.0
        assert rows["OR"][name] == "" and or_[name] is None


def test_simulate_reports_failed_bands(tmp_path, monkeypatch):
    """A sandwich band that raises is counted in report.csv's
    ``inference_failures_sandwich`` and summary.json's
    ``inference_failures``, and leaves no coverage or width behind. The
    report keeps its columns, the failure counts last."""

    def failing(*args, **kwargs):
        raise EstimationError("provoked")

    monkeypatch.setattr("dosedid.simulation.sandwich_bands", failing)
    payload = {
        "seed": 5,
        "output": str(tmp_path / "sim"),
        "workers": 1,
        "methods": ["MR", "OR"],
        "inference": {"method": "sandwich"},
        "scenario": {"n": 120, "replicates": 2},
    }
    assert dispatch(["simulate", "-c", str(_write_config(tmp_path, "sim.yaml", payload))]) == 0
    with (tmp_path / "sim" / "report.csv").open(encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        rows = {row["method"]: row for row in reader}
    assert reader.fieldnames == [
        "method", "misspecified", "integrated_abs_bias", "integrated_rmse", "integrated_sd", "failures", "flagged",
        "coverage_sandwich", "coverage_bootstrap", "width_sandwich", "width_bootstrap", "bandwidth_at_grid_edge",
        "bandwidth_extended", "inference_failures_sandwich", "inference_failures_bootstrap",
    ]  # fmt: skip
    assert (rows["MR"]["inference_failures_sandwich"], rows["MR"]["coverage_sandwich"]) == ("2", "")
    assert rows["MR"]["inference_failures_bootstrap"] == rows["OR"]["inference_failures_sandwich"] == ""
    summary = json.loads((tmp_path / "sim" / "summary.json").read_text())["scenarios"]["none"]
    assert summary["MR"]["inference_failures"] == {"sandwich": 2}
    assert summary["MR"]["coverage"] == summary["MR"]["mean_width"] == summary["OR"]["inference_failures"] == {}
    assert set(summary["MR"]) == {
        "integrated_abs_bias", "integrated_rmse", "integrated_sd", "failures", "coverage", "mean_width",
        "bandwidth_at_grid_edge", "bandwidth_extended", "inference_failures",
    }  # fmt: skip


def test_simulate_permutations_list(tmp_path):
    payload = {
        "seed": 6,
        "output": str(tmp_path / "sim2"),
        "methods": ["OR"],
        "scenario": {
            "n": 120,
            "replicates": 2,
            "super_n": 20000,
            "permutations": [[], ["mu0", "mu1"]],
        },
    }
    cfg = _write_config(tmp_path, "sim2.yaml", payload)
    assert dispatch(["simulate", "-c", str(cfg)]) == 0
    rows = (tmp_path / "sim2" / "report.csv").read_text().splitlines()
    assert len(rows) == 3  # header + 2 scenarios x 1 method


def test_truth_command(tmp_path):
    cfg = _write_config(
        tmp_path, "truth.yaml", {"seed": 2, "super_n": 20000, "output": str(tmp_path / "truth")}
    )
    assert dispatch(["truth", "-c", str(cfg)]) == 0
    rows = (tmp_path / "truth" / "truth.csv").read_text().splitlines()
    assert rows[0] == "delta,psi_true,density_weight"
    assert len(rows) == 51
    weights = [float(r.split(",")[2]) for r in rows[1:]]
    assert abs(sum(weights) - 1.0) < 1e-9


def test_placebo_command(tmp_path):
    panel = generate_placebo_panel(240, 8)
    path = tmp_path / "pre.csv"
    schema = write_panel(panel, path)
    payload = {
        "output": str(tmp_path / "plc"),
        "data": {
            "path": str(path),
            "schema": {
                "id": schema.id,
                "treatment": schema.treatment,
                "dose": schema.dose,
                "covariates": list(schema.covariates),
                "outcomes": {k: v for k, v in schema.outcomes.items()},
            },
        },
        "method": "NAIVE",
        "placebo": {"baseline": 0, "posts": [1], "intervention": 2},
        "grid": {"size": 10},
    }
    cfg = _write_config(tmp_path, "plc.yaml", payload)
    assert dispatch(["placebo", "-c", str(cfg)]) == 0
    assert (tmp_path / "plc" / "placebo_NAIVE_post1.csv").exists()


def test_placebo_on_a_repeated_unit_id_is_a_data_error(tmp_path, capsys):
    """``placebo`` validates its panel as ``estimate`` does: a placebo panel
    whose second row repeats the id ``u0`` exits with a data error naming
    it, and writes no output."""
    path = tmp_path / "pre.csv"
    schema = write_panel(generate_placebo_panel(200, 3), path)
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[2] = ",".join(["u0", *lines[2].split(",")[1:]])
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    payload = {
        "output": str(tmp_path / "plc"),
        "data": {
            "path": str(path),
            "schema": {
                "id": schema.id,
                "treatment": schema.treatment,
                "dose": schema.dose,
                "covariates": list(schema.covariates),
                "outcomes": dict(schema.outcomes),
            },
        },
        "method": "NAIVE",
        "placebo": {"baseline": 0, "posts": [1], "intervention": 2},
        "grid": {"size": 10},
    }
    cfg = _write_config(tmp_path, "plc.yaml", payload)
    assert dispatch(["placebo", "-c", str(cfg)]) == 3
    assert capsys.readouterr().err == "dosedid: data-error: repeated unit ids: 'u0' (2 rows)\n"
    assert not (tmp_path / "plc").exists()


def _panel_from(tmp_path, data):
    """Write a two-period dataset as a panel file in the layout of
    ``panel_file``."""
    panel = PanelDataset(
        ids=data.ids,
        x=data.x,
        a=data.a,
        dose=data.dose,
        y=np.column_stack([data.y0, data.y1]),
        period_labels=(0, 1),
        covariate_names=data.covariate_names,
    )
    path = tmp_path / "edge.csv"
    write_panel(panel, path)
    return path


def _estimate(tmp_path, path, **extra):
    payload = {"output": str(tmp_path / "out"), "data": {"path": str(path), "schema": _schema_block()}, **extra}
    return dispatch(["estimate", "-c", str(_write_config(tmp_path, "edge.yaml", payload))])


@pytest.mark.parametrize(
    ("grid", "message"),
    [
        ({"size": 0}, "size must be at least 1, got 0"),
        ({"size": -3}, "size must be at least 1, got -3"),
        ({"points": []}, "evaluation grid must hold at least one point"),
        ({"points": [3, 1, 2]}, "evaluation grid must be finite and strictly increasing"),
    ],
    ids=["size-zero", "size-negative", "points-empty", "points-unsorted"],
)
def test_bad_grid_is_one_config_error(tmp_path, panel_file, capsys, monkeypatch, grid, message):
    fits = []
    monkeypatch.setattr("dosedid.cli.ModelBank", lambda *a, **k: fits.append(a))
    assert _estimate(tmp_path, panel_file, grid=grid) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("dosedid: config-error: grid: ") and message in err
    assert fits == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    ("command", "extra", "message"),
    [
        ("estimate", {"bandwith": 0.9}, "config: unknown keys bandwith"),
        ("estimate", {"grid": {"size": 20, "sizes": 30}}, "grid: unknown keys sizes"),
        ("estimate", {"grid": {"lo": 1.0}}, "grid: lo and hi go together, got only lo"),
        ("estimate", {"grid": {"hi": 9.0}}, "grid: lo and hi go together, got only hi"),
        ("estimate", {"nuisance": ["mu1"]}, "nuisance: expected a mapping"),
        ("estimate", {"nuisance": {"mu1": {"dose_powers": [1, 2.5]}}}, "nuisance.mu1.dose_powers: expected a list"),
        ("estimate", {"nuisance": {"mu1": {"dose_interactions": ["x1"]}}}, "nuisance.mu1.dose_interactions: expected"),
        ("estimate", {"bandwidth": -1}, "bandwidth: expected a positive number, got -1"),
        ("estimate", {"bandwidth": "wide"}, "bandwidth: expected a positive number, got 'wide'"),
        ("estimate", {"seed": "x"}, "seed: expected an integer, got 'x'"),
        ("estimate", {"pairing": {"pre": 0}}, "pairing: need a mapping with 'pre' and 'post'"),
        ("estimate", {"inference": {"method": "bootstrap", "B": 1}}, "inference.B: expected an integer of at least 2"),
        ("placebo", {"placebo": {"baseline": 0, "posts": [1], "intervnetion": 2}}, "placebo: unknown keys intervnetion"),
        ("truth", {"super_n": "x"}, "super_n: expected an integer, got 'x'"),
        (
            "placebo",
            {"method": "BOGUS", "placebo": {"baseline": 0, "posts": [1]}},
            "method: expected one of the method names (MR, MR_PARAMETRIC, OR, IPW, NAIVE, TWFE), got 'BOGUS'",
        ),
        ("placebo", {"placebo": {"baseline": "x", "posts": [1]}}, "placebo.baseline: expected an integer, got 'x'"),
        (
            "placebo",
            {"placebo": {"baseline": 0, "posts": 1}},
            "placebo.posts: expected a non-empty list of integers, got 1",
        ),
        (
            "placebo",
            {"placebo": {"baseline": 0, "posts": []}},
            "placebo.posts: expected a non-empty list of integers, got []",
        ),
        (
            "placebo",
            {"placebo": {"baseline": 0, "posts": [1], "intervention": 2.5}},
            "placebo.intervention: expected an integer, got 2.5",
        ),
        (
            "simulate",
            {"scenario": {"n": 200, "misspecified": "pi_a"}},
            "scenario.misspecified: expected a list of nuisance names (pi_a, pi_d, mu1, mu0), got 'pi_a'",
        ),
        (
            "simulate",
            {"scenario": {"n": 200, "permutations": [["bogus"]]}},
            "scenario.permutations: expected 'all' or a list of lists of nuisance names",
        ),
        ("simulate", {"scenario": {"n": 200, "permutations": "some"}}, "scenario.permutations: expected 'all' or"),
        ("simulate", {"scenario": {"n": 200, "grid_size": 5.7}}, "scenario.grid_size: expected an integer, got 5.7"),
        ("simulate", {"scenario": {"n": 200.0}}, "scenario.n: expected an integer, got 200.0"),
        ("simulate", {"scenario": {"n": 200, "replicates": "2"}}, "scenario.replicates: expected an integer"),
        ("simulate", {"scenario": {"n": 200}, "workers": 0}, "workers: expected an integer of at least 1, got 0"),
        ("simulate", {"scenario": {"n": 200, "keep_curves": "no"}}, "scenario.keep_curves: expected true or false"),
        ("estimate", {"grid": {"size": 7.9}}, "grid.size: expected an integer, got 7.9"),
        (
            "estimate",
            {"methods": "NAIVE"},
            "methods: expected a list of method names (MR, MR_PARAMETRIC, OR, IPW, NAIVE, TWFE), got 'NAIVE'",
        ),
        ("truth", {"grid_size": 3.9}, "grid_size: expected an integer, got 3.9"),
        ("simulate", {"scenario": {"n": 200, "super_n": 5000}}, "scenario: super_n must be at least 10,000, got 5000"),
        ("truth", {"super_n": 5000}, "super_n: super_n must be at least 10,000, got 5000"),
    ],
    ids=[
        "top-level-key",
        "grid-key",
        "grid-lo-alone",
        "grid-hi-alone",
        "nuisance-list",
        "dose-powers",
        "dose-interactions",
        "bandwidth-negative",
        "bandwidth-text",
        "seed",
        "pairing-without-post",
        "one-replicate",
        "placebo-key",
        "truth-super-n",
        "placebo-method",
        "placebo-baseline",
        "placebo-posts",
        "placebo-no-posts",
        "placebo-intervention",
        "misspecified-text",
        "permutation-name",
        "permutations-text",
        "scenario-grid-size",
        "scenario-n",
        "replicates",
        "workers",
        "keep-curves",
        "grid-size-fraction",
        "methods-text",
        "truth-grid-size",
        "scenario-super-n-small",
        "truth-super-n-small",
    ],
)
def test_wrong_config_is_a_config_error_before_any_data_is_read(
    tmp_path, panel_file, capsys, monkeypatch, command, extra, message
):
    """A key nothing reads, or a value of the wrong kind, is one config-error
    line naming the key, exit 2, before the panel is read."""
    reads = []
    monkeypatch.setattr("dosedid.cli.load_panel", lambda *a, **k: reads.append(a))
    payload = {"output": str(tmp_path / "out"), **extra}
    if command not in ("truth", "simulate"):
        payload["data"] = {"path": str(panel_file), "schema": _schema_block()}
    assert dispatch([command, "-c", str(_write_config(tmp_path, "wrong.yaml", payload))]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("dosedid: config-error: ") and message in err
    assert reads == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("size", [0, -2], ids=["zero", "negative"])
@pytest.mark.parametrize("command", ["truth", "simulate"])
def test_bad_grid_size_is_one_config_error(tmp_path, capsys, command, size):
    """``truth``'s ``grid_size`` and ``simulate``'s ``scenario.grid_size``
    follow ``grid.size``'s rule: below 1 is one config-error line, exit 2,
    before any output."""
    payload = {"output": str(tmp_path / "out"), "seed": 1}
    if command == "truth":
        payload["grid_size"] = size
        key = "grid_size"
    else:
        payload["scenario"] = {"n": 200, "replicates": 1, "grid_size": size}
        key = "scenario"
    assert dispatch([command, "-c", str(_write_config(tmp_path, "size.yaml", payload))]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"dosedid: config-error: {key}: ") and f"size must be at least 1, got {size}" in err
    assert not (tmp_path / "out").exists()


def test_estimate_manifest_keeps_every_diagnostic(tmp_path, panel_file, monkeypatch):
    """Each method's manifest entry holds every diagnostic of its curve but
    TWFE's coefficient vector, with equal values."""
    from dosedid import cli

    curves = {}
    original = cli.estimate_curves

    def recording(*args, **kwargs):
        curves.update(original(*args, **kwargs))
        return curves

    monkeypatch.setattr(cli, "estimate_curves", recording)
    methods = ["MR", "MR_PARAMETRIC", "OR", "IPW", "NAIVE", "TWFE"]
    assert _estimate(tmp_path, panel_file, methods=methods) == 0
    manifest = json.loads((tmp_path / "out" / "run_manifest.json").read_text())["diagnostics"]
    for method in methods:
        expected = {k: v for k, v in curves[method].diagnostics.items() if k != "twfe_coefficients"}
        entry = manifest[method]
        assert entry.pop("bandwidth") == curves[method].bandwidth
        assert set(entry) == set(expected), method
        for name, value in expected.items():
            assert entry[name] == (list(value) if isinstance(value, tuple) else value), (method, name)


def test_estimate_selects_every_bandwidth_in_one_pass(tmp_path, panel_file, monkeypatch):
    """MR's and NAIVE's bandwidths come from one leave-one-out pass."""
    from dosedid import curves

    calls = []
    original = curves.robust_select_bandwidth

    def counted(window, grid):
        calls.append(window.y_sorted.shape)
        return original(window, grid)

    monkeypatch.setattr(curves, "robust_select_bandwidth", counted)
    assert _estimate(tmp_path, panel_file, methods=["MR", "OR", "NAIVE", "TWFE"]) == 0
    assert len(calls) == 1 and calls[0][0] == 2


def test_many_failed_bootstrap_replicates_are_flagged(tmp_path, panel_file, capsys, monkeypatch):
    """When more than a tenth of the bootstrap replicates fail, the run
    still succeeds and the manifest flags it: every 4th replicate's weights
    hold a NaN, so 5 of 20 fail with the DataValidationError of a weight
    that is not finite."""
    from dosedid import inference

    draw = inference.bootstrap_weights

    def poisoned(a, seed, replicate):
        w = draw(a, seed, replicate)
        if replicate % 4 == 0:
            w[0] = np.nan
        return w

    monkeypatch.setattr(inference, "bootstrap_weights", poisoned)
    assert _estimate(tmp_path, panel_file, inference={"method": "bootstrap", "B": 20}) == 0
    assert capsys.readouterr().err == ""
    manifest = json.loads((tmp_path / "out" / "run_manifest.json").read_text())["diagnostics"]
    assert manifest["MR_bootstrap_failures"] == {"DataValidationError": 5}
    assert manifest["MR_bootstrap_failed"] == 5
    assert manifest["MR_bootstrap_flagged"] is True


def test_too_few_treated_units_is_one_estimation_error(tmp_path, capsys):
    data = generate_scenario_data(260, 61)
    treated = np.flatnonzero(data.a)
    keep = np.sort(np.concatenate([treated[:9], np.flatnonzero(~data.a)]))
    rank = np.cumsum(data.a) - 1
    small = TwoPeriodDataset(
        ids=tuple(data.ids[i] for i in keep),
        x=data.x[keep],
        a=data.a[keep],
        dose=data.dose[rank[keep[data.a[keep]]]],
        y0=data.y0[keep],
        y1=data.y1[keep],
        covariate_names=data.covariate_names,
    )
    assert _estimate(tmp_path, _panel_from(tmp_path, small)) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("dosedid: estimation-error: ") and "need at least 10 treated units" in err


def test_too_few_control_units_is_one_estimation_error(tmp_path, capsys):
    data = generate_scenario_data(260, 61)
    keep = np.sort(np.concatenate([np.flatnonzero(data.a), np.flatnonzero(~data.a)[:9]]))
    small = TwoPeriodDataset(
        ids=tuple(data.ids[i] for i in keep),
        x=data.x[keep],
        a=data.a[keep],
        dose=data.dose,
        y0=data.y0[keep],
        y1=data.y1[keep],
        covariate_names=data.covariate_names,
    )
    assert _estimate(tmp_path, _panel_from(tmp_path, small)) == 4
    assert capsys.readouterr().err == "dosedid: estimation-error: need at least 10 control units to fit mu0\n"


def test_constant_treated_dose_is_one_estimation_error(tmp_path, capsys):
    data = generate_scenario_data(260, 61)
    constant = replace(data, dose=np.full(data.n_treated, 2.0))
    assert _estimate(tmp_path, _panel_from(tmp_path, constant)) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("dosedid: estimation-error: degenerate dose distribution")


def test_infeasible_fixed_bandwidth_is_one_estimation_error(tmp_path, panel_file, capsys):
    assert _estimate(tmp_path, panel_file, bandwidth=1e-6) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("dosedid: estimation-error: fewer than 2 points inside the kernel window")


@pytest.mark.parametrize("method", ["NAIVE", "MR", "IPW"])
def test_no_feasible_bandwidth_candidate_is_one_estimation_error(tmp_path, capsys, method):
    """Treated doses on two points 8 apart: no candidate's window reaches
    across, so every leave-one-out window holds one tied dose value."""
    data = generate_scenario_data(400, 5)
    two_point = replace(data, dose=np.where(np.arange(data.n_treated) % 2 == 0, 1.0, 9.0))
    assert _estimate(tmp_path, _panel_from(tmp_path, two_point), methods=[method]) == 4
    assert capsys.readouterr().err == (
        "dosedid: estimation-error: no feasible bandwidth candidate (all leave-one-out fits failed)\n"
    )


def test_separable_propensity_is_flagged_in_the_manifest(tmp_path, capsys):
    """A covariate that separates treated from control units stops pi_a's
    IRLS at its iteration limit: the run succeeds and the manifest says so."""
    data = generate_scenario_data(260, 61)
    x = data.x.copy()
    x[:, 0] = np.where(data.a, np.abs(x[:, 0]) + 0.5, -np.abs(x[:, 0]) - 0.5)
    assert _estimate(tmp_path, _panel_from(tmp_path, replace(data, x=x))) == 0
    assert capsys.readouterr().err == ""
    manifest = json.loads((tmp_path / "out" / "run_manifest.json").read_text())
    assert manifest["diagnostics"]["MR"]["pi_a_converged"] is False


def test_manifest_values_are_json_values(tmp_path):
    """numpy scalars and 0-d arrays reach the manifest as JSON numbers and
    booleans; any other value that JSON cannot hold is an error naming its
    key, not a string."""
    from dosedid import cli

    diagnostics = {"MR": {"converged": np.bool_(True), "hits": np.int64(3), "ess": np.array(2.5), "basis": (1, 3)}}
    config = yaml.safe_load("seed: 7\nrun_date: 2026-03-01\n")
    cli._write_manifest(tmp_path, "estimate", {**config, "seed": np.int64(7)}, diagnostics, ["curve_MR.csv"])
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert manifest["config"] == {"seed": 7, "run_date": "2026-03-01"}
    assert manifest["diagnostics"]["MR"] == {"converged": True, "hits": 3, "ess": 2.5, "basis": [1, 3]}
    with pytest.raises(TypeError, match=r"manifest\.diagnostics\.MR\.coefficients"):
        cli._write_manifest(tmp_path, "estimate", {}, {"MR": {"coefficients": np.zeros(3)}}, [])
