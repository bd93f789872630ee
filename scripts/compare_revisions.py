"""Compare dosedid's numbers between two source trees.

    python scripts/compare_revisions.py dump SRC OUT.pkl
    python scripts/compare_revisions.py compare BEFORE.pkl AFTER.pkl

``dump`` imports dosedid from SRC and records, on
``generate_scenario_data(800, s)`` for s = 1, 2, 3: every method's point
psi, theta, theta0, bandwidth and diagnostics; MR's base and augmented
sandwich variances on a 10-point grid; and, at n = 500 (seed 1, the
``inference-n500`` benchmark's data), every method's weighted-bootstrap
rows (B = 40), which of those replicates fit a pi_d whose residual
variance is floored at some treated unit, and the repeated-period
bootstrap bands of the benchmark's call. On a tree whose bootstrap runs
its chunks on forked workers (docs/DECISIONS.md, D14), both run on every
usable CPU, so ``compare`` checks pooled rows against the parent's. At n = 20,000 (seed 1, the
``estimate-n20k`` benchmark's data) it records ``load_panel`` of the panel
as ``write_panel`` writes it, and of five small panels (n = 60, seed 1)
whose text holds the reader's edges: CRLF line ends, quoted ids that hold
the delimiter and doubled quotes, cells padded with U+001C and U+00A0,
all-blank rows between the rows, and a long non-ASCII id; and MR's
base sandwich variances on the default 50-point grid; on the 500-unit
placebo panel, the stacked sandwich variances of ``estimate_repeated``
over the pairs (0, 1) and (1, 2), recovered from its band widths, the same
call's per-pair and averaged point psi and bandwidths with no inference,
and the MR ``placebo_curves`` of baseline 0 and posts 1 and 2; and MR's
augmented sandwich variances on the ``inference-n500`` benchmark's
10-point grid (n = 500, seed 1). It
also records every curve of one 16-permutation, six-method study replicate
at n = 1,000 (study seed 1, as the ``study-n1000`` benchmark runs it) on a
``GroundTruth`` built from a fixed 50-point grid, so the study engine's
curves do not depend on how the truth is computed, with each curve's
bandwidth and its two edge flags (``bandwidth_at_grid_edge``,
``bandwidth_extended``) as the ``EffectCurveEstimate`` the engine builds
holds them, and every ``MethodReport`` field of its 96 (permutation,
method) cells; every ``MethodReport`` field of a six-method study of three
permutations at n = 200 (6 replicates, seed 3, sandwich and bootstrap
bands with B = 20) against a fixed truth, run on 1 and on 2 workers; and
the study truth, ``ground_truth_curve(1)``. It records the type name of every point
estimate's theta0 and diagnostics, and the per-method diagnostics of the
``run_manifest.json`` that ``dosedid estimate`` writes for all six methods,
with base sandwich bands for MR, on the seed-1 panel at n = 800.
``compare`` reports the largest difference of each against the
tolerances: curves, the repeated and placebo point psi and bootstrap rows
(split into the replicates with and without a floored pi_d variance)
within 1e-10 of the bootstrap standard deviation of psi-hat, their
bandwidths equal, variances within 1e-10 relative, counts and
flags equal, float diagnostics within 1e-10 relative, the loaded panel's
ids and arrays (every file's) and the study replicate's curves bitwise
equal (their
largest difference is printed, in bootstrap standard deviations), the
study replicate's bandwidths and edge flags, the type names and the
manifest's diagnostics equal, and each study report field that BEFORE
records bitwise equal (a field only AFTER has is listed, not gated).
Beside each largest difference it says whether every value of that quantity is bitwise equal (same dtype, shape
and bytes), which no tolerance reads. It prints
the truth's largest differences (grid, psi, density weights) without a
tolerance. It exits 1 when any tolerance fails.
"""

from __future__ import annotations

import dataclasses
import json
import pickle
import sys
import tempfile
from pathlib import Path

import numpy as np
import yaml

METHODS = ("MR", "MR_PARAMETRIC", "OR", "IPW", "NAIVE", "TWFE")


def dump(src: str, out: str) -> None:
    sys.path.insert(0, src)
    from dosedid import cli, curves, data as panel_io, inference, nuisance, panel, simulation

    specs = nuisance.default_specs(mu1_dose_powers=(1, 3), mu1_dose_interactions=(0, 2))
    record = {}
    for s in (1, 2, 3):
        data = simulation.generate_scenario_data(800, s)
        for method in METHODS:
            est = curves.estimate_curve(data, method, specs=specs)
            record[("point", s, method)] = {
                "psi": est.psi,
                "theta": est.theta_curve,
                "theta0": est.theta0,
                "bandwidth": est.bandwidth,
                "diagnostics": {k: v for k, v in est.diagnostics.items()},
                "types": {
                    "theta0": type(est.theta0).__name__,
                    **{k: type(v).__name__ for k, v in est.diagnostics.items()},
                },
            }
        grid = nuisance.default_dose_grid(data.dose, size=10)
        models = nuisance.fit_nuisances(data, specs, dose_grid=grid)
        curve = curves.estimate_curve(data, "MR", specs=specs, grid=grid, models=models)
        for mode in ("base", "augmented"):
            record[("sandwich", s, mode)] = inference.sandwich_bands(data, models, curve, mode=mode)[2]

    record["manifest"] = _manifest_diagnostics(cli, panel_io, simulation.generate_scenario_data(800, 1))

    data = simulation.generate_scenario_data(500, 1)
    grid = nuisance.default_dose_grid(data.dose, size=10)
    models = nuisance.fit_nuisances(data, specs, dose_grid=grid)
    curve = curves.estimate_curve(data, "MR", specs=specs, grid=grid, models=models)
    record[("sandwich", "n500", "augmented")] = inference.sandwich_bands(data, models, curve, mode="augmented")[2]
    for method in METHODS:
        point = curves.estimate_curve(data, method, specs=specs)
        config = curves.EstimatorConfig(method, specs, point.grid, point.bandwidth, on_out_of_range="clamp")
        boot = inference.weighted_bootstrap(data, config, 40, 2)
        record[("bootstrap", method)] = {"curves": boot.curves, "failures": boot.failures}
    weights = np.stack([inference.bootstrap_weights(data.a, 2, b) for b in range(40)])
    pi_d = nuisance.fit_nuisances(dataclasses.replace(data, weight=weights), specs, which=("pi_d",)).pi_d
    record["bootstrap floored"] = pi_d.density_and_floor_hits(data.dose, data.x_treated)[1] > 0
    placebo = simulation.generate_placebo_panel(500, 1)
    rep = panel.estimate_repeated(
        placebo, ((0, 1), (1, 2)), "MR", specs=nuisance.default_specs(), inference="bootstrap", b_replicates=50, seed=2
    )
    record["repeated"] = [(c.ci_lower, c.ci_upper) for c in (*rep.per_m, rep.averaged)]
    stacked = panel.estimate_repeated(
        placebo, ((0, 1), (1, 2)), "MR", specs=nuisance.default_specs(), inference="sandwich"
    )
    half = 0.5 * (stacked.averaged.ci_upper - stacked.averaged.ci_lower)
    record[("sandwich", "placebo", "stacked")] = (half / inference.Z_95) ** 2
    point = panel.estimate_repeated(placebo, ((0, 1), (1, 2)), "MR", specs=nuisance.default_specs())
    record[("pair curves", "repeated")] = [(c.psi, c.bandwidth) for c in (*point.per_m, point.averaged)]
    placebos = panel.placebo_curves(placebo, 0, [1, 2], "MR", specs=nuisance.default_specs())
    record[("pair curves", "placebo")] = [(c.psi, c.bandwidth) for c in placebos]

    big = simulation.generate_scenario_data(20_000, 1)
    written = _panel(panel_io, big)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "panel.csv"
        loaded = panel_io.load_panel(path, panel_io.write_panel(written, path))
    record["loaded"] = {"benchmark panel": _fields(loaded), **_edge_loads(panel_io, simulation.generate_scenario_data(60, 1))}
    grid = nuisance.default_dose_grid(big.dose, size=50)
    models = nuisance.fit_nuisances(big, specs, dose_grid=grid)
    curve = curves.estimate_curve(big, "MR", specs=specs, grid=grid, models=models)
    record[("sandwich", "n20k", "base")] = inference.sandwich_bands(big, models, curve)[2]

    grid = np.linspace(0.4, 5.7, 50)
    fixed = simulation.GroundTruth(grid, np.zeros(50), np.full(50, 1 / 50), super_n=1_000_000, seed=1)
    config = simulation.ScenarioConfig(n=1000, replicates=1, seed=1, methods=METHODS, keep_curves=True)
    selections = {}
    post_init = curves.EffectCurveEstimate.__post_init__

    def recording(curve):
        post_init(curve)
        diag = curve.diagnostics
        flags = (diag.get("bandwidth_at_grid_edge"), diag.get("bandwidth_extended"))
        selections[(curve.method, curve.psi.tobytes())] = (curve.bandwidth, *flags)

    # Every study curve is built as an EffectCurveEstimate, on either tree.
    curves.EffectCurveEstimate.__post_init__ = recording
    try:
        reports = simulation.run_permutation_study(config, simulation.all_permutations(), truth=fixed)
    finally:
        curves.EffectCurveEstimate.__post_init__ = post_init
    record["study"] = {(key, m): c for key, report in reports.items() for m, c in report.curves.items()}
    # The benchmark's shape: one replicate, so integrated_sd takes its one-replicate branch.
    record[("study reports", "n1000")] = {
        (key, m): dataclasses.asdict(r) for key, report in reports.items() for m, r in report.methods.items()
    }
    # A report holds each curve's psi, which finds the curve's selection.
    record["study bandwidths"] = {name: selections[(name[1], c[0].tobytes())] for name, c in record["study"].items()}
    # A curve near the estimates', so that coverage reads neither 0 nor 100 throughout.
    truth = simulation.GroundTruth(grid, 6.0 + 0.04 * grid - 0.003 * grid**3, fixed.density_weights, 1_000_000, 3)
    perms = [(), ("pi_d",), ("mu0", "mu1", "pi_a", "pi_d")]
    bands = simulation.InferenceConfig(method="both", b_replicates=20)
    for workers in (1, 2):
        config = simulation.ScenarioConfig(n=200, replicates=6, seed=3, methods=METHODS, inference=bands, workers=workers)
        reports = simulation.run_permutation_study(config, perms, truth=truth)
        record[("study reports", workers)] = {
            (key, m): dataclasses.asdict(r) for key, report in reports.items() for m, r in report.methods.items()
        }
    truth = simulation.ground_truth_curve(1)
    record["truth"] = {name: getattr(truth, name) for name in ("grid", "psi_true", "density_weights")}
    with open(out, "wb") as fh:
        pickle.dump(record, fh)


def _panel(panel_io, data):
    """A two-period dataset as the panel that ``write_panel`` writes."""
    return panel_io.PanelDataset(
        ids=data.ids,
        x=data.x,
        a=data.a,
        dose=data.dose,
        y=np.column_stack([data.y0, data.y1]),
        period_labels=(0, 1),
        covariate_names=data.covariate_names,
    )


def _fields(panel) -> dict:
    return {"ids": panel.ids, **{name: getattr(panel, name) for name in ("x", "a", "dose", "y")}}


def _edge_loads(panel_io, data) -> dict:
    """The loaded fields of ``data``'s panel file rewritten five ways, each
    at an edge of the file syntax ``load_panel`` reads."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "panel.csv"
        schema = panel_io.write_panel(_panel(panel_io, data), path)
        header, *rows = path.read_text(encoding="utf-8").splitlines()

        def with_id(k, uid):
            return ",".join([uid, *rows[k].split(",")[1:]])

        texts = {
            "crlf": "\r\n".join([header, *rows]),
            "quoted ids": "\n".join([header, *(with_id(k, f'"unit, ""{k}"""') for k in range(len(rows)))]),
            "padded cells": "\n".join([header, *(",".join(f"\x1c{c}\u00a0" for c in row.split(",")) for row in rows)]),
            "blank rows": "\n".join([header, *(line for row in rows for line in (row, " , ,,"))]),
            "long non-ascii id": "\n".join([header, with_id(0, "\u00fcnit-\u0394\u00e9-" * 40), *rows[1:]]),
        }
        out = {}
        for name, text in texts.items():
            path.write_bytes((text + "\n").encode("utf-8"))
            out[name] = _fields(panel_io.load_panel(path, schema))
    return out


def _manifest_diagnostics(cli, panel_io, data) -> dict:
    """The ``diagnostics`` of the manifest that ``dosedid estimate`` writes
    for all six methods, with base sandwich bands for MR."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "panel.csv"
        panel_io.write_panel(_panel(panel_io, data), path)
        config = {
            "data": {
                "path": str(path),
                "schema": {
                    "id": "id",
                    "treatment": "a",
                    "dose": "d",
                    "covariates": list(data.covariate_names),
                    "outcomes": {0: "y_0", 1: "y_1"},
                },
            },
            "methods": list(METHODS),
            "inference": {"method": "sandwich"},
            "output": str(Path(tmp) / "run"),
        }
        (Path(tmp) / "run.yaml").write_text(yaml.safe_dump(config), encoding="utf-8")
        if cli.dispatch(["estimate", "-c", str(Path(tmp) / "run.yaml")]) != 0:
            raise SystemExit("dosedid estimate failed")
        return json.loads((Path(tmp) / "run" / "run_manifest.json").read_text(encoding="utf-8"))["diagnostics"]


def _bitwise(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _same(a, b) -> bool:
    """Equal, with floats bitwise and mappings item by item."""
    if isinstance(b, dict):
        return isinstance(a, dict) and a.keys() == b.keys() and all(_same(a[k], b[k]) for k in b)
    if isinstance(b, float):
        return isinstance(a, float) and _bitwise(a, b)
    return type(a) is type(b) and a == b


def compare(before_path: str, after_path: str) -> int:
    with open(before_path, "rb") as fh:
        before = pickle.load(fh)
    with open(after_path, "rb") as fh:
        after = pickle.load(fh)
    # The scale of psi-hat's sampling error at each grid point: the spread
    # of the parent's bootstrap rows for each method.
    sd = {m: before[("bootstrap", m)]["curves"].std(axis=0) for m in METHODS}
    floored = before["bootstrap floored"]
    worst: dict[str, float] = {}
    bitwise: dict[str, bool] = {}  # per quantity, whether every value is bitwise equal
    unequal = {"point types": 0, "manifest diagnostics": 0, "study bandwidths": 0, "loaded panel fields": 0}  # gated as equal
    unequal["study report fields (bitwise)"] = 0
    bad = []

    def note(label, ratio, same):
        worst[label] = max(worst.get(label, 0.0), float(ratio))
        bitwise[label] = bitwise.get(label, True) and same
        if ratio > 1e-10:
            bad.append(label)

    for key, b in before.items():
        a = after[key]
        if key[0] == "point":
            scale = float(np.mean(sd[key[2]]))
            for name in ("psi", "theta", "theta0"):
                gap = np.max(np.abs(np.asarray(a[name]) - np.asarray(b[name]))) / scale
                note("point " + name, gap, _bitwise(a[name], b[name]))
            if (a["bandwidth"] is None) != (b["bandwidth"] is None):
                bad.append(f"bandwidth presence {key}")
            elif b["bandwidth"] is not None:
                note("point bandwidth", abs(a["bandwidth"] - b["bandwidth"]) / scale, _bitwise(a["bandwidth"], b["bandwidth"]))
            unequal["point types"] += a["types"] != b["types"]
            if a["types"] != b["types"]:
                bad.append(f"types {key}: {b['types']} -> {a['types']}")
            if set(a["diagnostics"]) != set(b["diagnostics"]):
                bad.append(f"diagnostic keys {key}")
            for name, vb in b["diagnostics"].items():
                va = a["diagnostics"].get(name)
                if isinstance(vb, float):
                    note("float diagnostics", abs(va - vb) / max(abs(vb), 1e-300), _bitwise(va, vb))
                elif isinstance(vb, np.ndarray):
                    note("array diagnostics", np.max(np.abs(va - vb) / np.maximum(np.abs(vb), 1e-300)), _bitwise(va, vb))
                elif va != vb:
                    bad.append(f"diagnostic {name} {key}: {vb!r} -> {va!r}")
        elif key[0] == "sandwich":
            where = "" if isinstance(key[1], int) else f" ({key[1]})"
            note(f"sandwich {key[2]} variance{where}", np.max(np.abs(a - b) / b), _bitwise(a, b))
        elif key == "study":
            if set(a) != set(b):
                bad.append("study curve keys")
            for name, vb in b.items():
                if name in a:
                    gap = float(np.nanmax(np.abs(a[name] - vb)) / np.mean(sd[name[1]]))
                    worst["study curves (bitwise)"] = max(worst.get("study curves (bitwise)", 0.0), gap)
                    same = _bitwise(a[name], vb)
                    bitwise["study curves (bitwise)"] = bitwise.get("study curves (bitwise)", True) and same
                    if not same:
                        bad.append(f"study curve {name}")
        elif key == "study bandwidths":
            for name, vb in b.items():
                unequal["study bandwidths"] += a.get(name) != vb
                if a.get(name) != vb:
                    bad.append(f"study bandwidth {name}: {vb!r} -> {a.get(name)!r}")
        elif key[0] == "study reports":
            study = f"{key[1]} workers" if isinstance(key[1], int) else key[1]
            if set(a) != set(b):
                bad.append(f"study report keys ({study})")
            new = {field for fields in a.values() for field in fields} - {field for fields in b.values() for field in fields}
            if new:
                print(f"study report fields not in BEFORE ({study}, not gated): {', '.join(sorted(new))}")
            for name, fields in b.items():
                for field, vb in fields.items():
                    same = name in a and _same(a[name].get(field), vb)
                    unequal["study report fields (bitwise)"] += not same
                    if not same:
                        bad.append(f"study report {name} {field} ({study})")
        elif key == "manifest":
            unequal["manifest diagnostics"] += a != b
            if a != b:
                bad.append("manifest diagnostics")
        elif key == "truth":
            for name, vb in b.items():
                print(f"truth {name:22s} largest difference {np.max(np.abs(a[name] - vb)):.3g} (not gated)")
        elif key == "loaded":
            for panel_name, fields in b.items():
                for name, vb in fields.items():
                    va = a[panel_name][name]
                    same = va == vb if name == "ids" else va.dtype == vb.dtype and va.tobytes() == vb.tobytes()
                    unequal["loaded panel fields"] += not same
                    if not same:
                        bad.append(f"loaded panel {panel_name}: {name}")
        elif key[0] == "pair curves":
            scale = float(np.mean(sd["MR"]))
            for (psi_a, h_a), (psi_b, h_b) in zip(a, b):
                note(f"{key[1]} point psi", np.max(np.abs(psi_a - psi_b)) / scale, _bitwise(psi_a, psi_b))
                if h_a != h_b:
                    bad.append(f"{key[1]} bandwidth: {h_b!r} -> {h_a!r}")
        elif key[0] == "bootstrap":
            if a["failures"] != b["failures"] or a["curves"].shape != b["curves"].shape:
                bad.append(f"bootstrap failures or shape {key}")
            else:
                gap = np.max(np.abs(a["curves"] - b["curves"]) / sd[key[1]], axis=-1)
                split = floored if gap.shape == floored.shape else np.zeros(gap.shape, dtype=bool)
                same = np.all(a["curves"].view(np.uint64) == b["curves"].view(np.uint64), axis=-1)
                note("bootstrap rows", np.max(gap[~split], initial=0.0), bool(np.all(same[~split])))
                note("bootstrap rows, pi_d var floored", np.max(gap[split], initial=0.0), bool(np.all(same[split])))
        elif key == "bootstrap floored":
            if not np.array_equal(a, b):
                bad.append("bootstrap floored replicates")
        else:  # repeated bands
            scale = float(np.mean(sd["MR"]))
            for (lo_a, hi_a), (lo_b, hi_b) in zip(a, b):
                gap = max(np.max(np.abs(lo_a - lo_b)), np.max(np.abs(hi_a - hi_b))) / scale
                note("repeated bands", gap, _bitwise(lo_a, lo_b) and _bitwise(hi_a, hi_b))
    for label, value in sorted(worst.items()):
        gate = "must be 0" if label == "study curves (bitwise)" else "tolerance 1e-10"
        equal = "bitwise equal" if bitwise[label] else "NOT bitwise equal"
        print(f"{label:33s} largest {value:.3g} ({gate}); {equal}")
    for label, count in unequal.items():
        print(f"{label:33s} {count} unequal (must be equal)")
    for label in sorted(set(bad)):
        print("FAILED:", label)
    return 1 if bad else 0


if __name__ == "__main__":
    if sys.argv[1] == "dump":
        dump(sys.argv[2], sys.argv[3])
    else:
        sys.exit(compare(sys.argv[2], sys.argv[3]))
