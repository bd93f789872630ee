"""Drive the batch CLI end to end from Python.

Writes a panel file and a YAML run configuration, then invokes the
``estimate`` subcommand exactly as a shell user would. Outputs land in an
atomically renamed run directory with a reproducibility manifest. Every
file lives in a temporary directory that is removed when the demo ends.
"""

import json
import tempfile
from pathlib import Path

import numpy as np
import yaml

from dosedid.cli import dispatch
from dosedid.data import PanelDataset, write_panel
from dosedid.simulation import generate_scenario_data

with tempfile.TemporaryDirectory(prefix="dosedid-demo-") as tmp:
    workdir = Path(tmp)
    data = generate_scenario_data(n=500, seed=51)
    panel = PanelDataset(
        ids=data.ids,
        x=data.x,
        a=data.a,
        dose=data.dose,
        y=np.column_stack([data.y0, data.y1]),
        period_labels=(0, 1),
        covariate_names=data.covariate_names,
    )
    panel_path = workdir / "panel.csv"
    write_panel(panel, panel_path)

    config = {
        "seed": 51,
        "output": str(workdir / "run"),
        "data": {
            "path": str(panel_path),
            "schema": {
                "id": "id",
                "treatment": "a",
                "dose": "d",
                "covariates": ["x1", "x2", "x3", "x4"],
                "outcomes": {0: "y_0", 1: "y_1"},
            },
        },
        "methods": ["MR", "NAIVE"],
        "nuisance": {"mu1": {"dose_powers": [1, 3], "dose_interactions": [0, 2]}},
        "inference": {"method": "bootstrap", "B": 60},
    }
    config_path = workdir / "estimate.yaml"
    config_path.write_text(yaml.safe_dump(config), encoding="utf-8")

    code = dispatch(["estimate", "-c", str(config_path)])
    print(f"exit status: {code}")
    run_dir = workdir / "run"
    print("outputs:", sorted(p.name for p in run_dir.iterdir()))
    manifest = json.loads((run_dir / "run_manifest.json").read_text())
    print("manifest versions:", manifest["versions"])
    print("first curve rows:")
    print("\n".join((run_dir / "curve_MR.csv").read_text().splitlines()[:4]))
