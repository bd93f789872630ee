"""The benchmark's workloads: inputs from a seed, one operation, checks.

Each workload builds its inputs in ``setup`` (which the runner repeats and
times), runs one operation in ``op`` (timed), checks that operation's output
in ``check`` (untimed; returns a list of problems) and checks what a whole
run accumulated in ``finish``. The program sees only the generated inputs.
Every function of dosedid is looked up on its module at call time, so the
tracer's wrappers are used when installed.

Tolerances are derived in the comments next to them. Checks compare with the
closed-form reference in ``reference.py`` or with properties the methods
must have, never with stored output.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

import reference

Z95 = 1.959963984540054

# Largest |psi - psi_hat| allowed on a band check, in standard errors. A
# band's half-width is Z95 standard errors. The 95% bands themselves cannot
# be the gate: pointwise errors are correlated along the grid, so the share
# of grid points a correct 95% band covers swings from 1.0 to as low as
# 0.06 (bootstrap at n=500, 1 seed in 20). The largest error seen over
# 8-30 seeds per check is 3.6 standard errors; 5 leaves room for the sup
# over the grid of a Gaussian process with a few independent stretches
# (P(sup > 5) ~ 1e-5).
Z_MAX = 5.0
# With B=50 the percentile half-width is itself noisy (its 2.5% and 97.5%
# quantiles rest on one or two replicates each), so allow one more.
Z_MAX_B50 = 6.0


def _band_problems(label, estimate, lower, upper, target, z_max, bias=0.0):
    """``target`` lies within z_max standard errors (plus a known smoothing
    bias) of ``estimate`` at every grid point; bands are finite and proper."""
    lower, upper, estimate = map(np.asarray, (lower, upper, estimate))
    if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
        return [f"{label}: non-finite band"]
    half = 0.5 * (upper - lower)
    if np.any(half <= 0.0):
        return [f"{label}: band of zero or negative width"]
    z = (np.abs(estimate - target) - bias) / (half / Z95)
    if np.max(z) > z_max:
        k = int(np.argmax(z))
        return [f"{label}: reference {z[k]:.2f} standard errors from the estimate at grid point {k}"]
    return []


def _near_reference(label, grid, psi_hat, tol):
    err = np.abs(np.asarray(psi_hat) - reference.psi(grid))
    if np.max(err) > tol:
        k = int(np.argmax(err))
        return [f"{label}: |psi - reference| = {err[k]:.4f} > {tol} at delta={grid[k]:.3f}"]
    return []


def _read_curve(path: Path) -> dict:
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    out = {}
    for col in ("delta", "psi", "theta", "ci_lower", "ci_upper"):
        vals = [r[col] for r in rows]
        out[col] = np.array([float(v) for v in vals]) if all(vals) else None
    return out


class Workload:
    name = ""
    # Timed operations a run makes however short it is. With two, op_s on
    # the 15-20 s operations is the mean of two, spread over 30-40 s, not
    # one operation caught in one of the host's slow spells; the study's
    # run-level check needs two for a Monte-Carlo standard error.
    min_ops = 2

    def __init__(self, dd, seed: int, workdir: Path):
        self.dd = dd
        self.seed = int(seed)
        self.workdir = workdir

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, index: int):
        raise NotImplementedError

    def check(self, output) -> list[str]:
        raise NotImplementedError

    def finish(self) -> list[str]:
        return []


class EstimateN20k(Workload):
    """One ``dosedid estimate`` run through the CLI entry point on a
    20,000-unit two-period panel file: MR, OR, NAIVE and TWFE on the default
    50-point grid, base sandwich bands for MR."""

    name = "estimate-n20k"
    N = 20_000
    WARMUP_N = 400

    # |MR - reference| at every grid point. At n=20k the base-sandwich
    # standard error is at most 0.03 on the grid. LOO picks h between 1.3
    # and 2.0 (seeds 0-5), so the smoothing bias is at most
    # h^2/2 * mu2(K) * max|psi''| = 2^2/2 * 0.2 * 0.11 = 0.044 (mu2 = 1/5
    # for the Epanechnikov kernel; psi'' = -0.018 delta, delta <= 6). 5
    # standard errors plus that bias is 0.194. The largest error seen over
    # seeds 0-5 is 0.075. OR, a correctly specified parametric fit, has no
    # smoothing bias and a smaller error, so the same bound holds for it.
    TOL = 0.2
    SMOOTHING_BIAS = 0.044
    # TWFE against numpy's lstsq on the same stacked design: two solvers of
    # a system with condition number ~1e3 agree to ~1e-12; 1e-8 is slack.
    TWFE_TOL = 1e-8
    # NAIVE's theta0 is theta - psi from the file, both written with repr:
    # one rounding of numbers of size ~10.
    THETA0_TOL = 1e-9

    def _write_inputs(self, n: int, seed: int, stem: str) -> Path:
        dd = self.dd
        tp = dd.simulation.generate_scenario_data(n, seed)
        panel = dd.data.PanelDataset(
            ids=tp.ids,
            x=tp.x,
            a=tp.a,
            dose=tp.dose,
            y=np.column_stack([tp.y0, tp.y1]),
            period_labels=(0, 1),
            covariate_names=tp.covariate_names,
        )
        panel_path = self.workdir / f"{stem}.csv"
        schema = dd.data.write_panel(panel, panel_path)
        config = {
            "seed": seed,
            "output": str(self.workdir / f"{stem}-out"),
            "data": {
                "path": str(panel_path),
                "schema": {
                    "id": schema.id,
                    "treatment": schema.treatment,
                    "dose": schema.dose,
                    "covariates": list(schema.covariates),
                    "outcomes": {str(k): v for k, v in schema.outcomes.items()},
                },
            },
            "methods": ["MR", "OR", "NAIVE", "TWFE"],
            "grid": {"size": 50},
            "bandwidth": None,
            "nuisance": {"mu1": {"learner": "linear", "dose_powers": [1, 3], "dose_interactions": [0, 2]}},
            "inference": {"method": "sandwich", "mode": "base"},
        }
        config_path = self.workdir / f"{stem}.yaml"
        # JSON is YAML; the CLI reads it as its configuration.
        config_path.write_text(json.dumps(config, indent=1), encoding="utf-8")
        return config_path

    def _estimate(self, config_path: Path) -> int:
        return self.dd.cli.dispatch(["estimate", "-c", str(config_path), "--force"])

    def setup(self) -> None:
        self.config_path = self._write_inputs(self.N, self.seed, "panel")
        warm = self._write_inputs(self.WARMUP_N, self.seed + 1, "warmup")
        if self._estimate(warm) != 0:
            raise RuntimeError("warm-up estimate run failed")
        self.out = self.workdir / "panel-out"
        self._panel = None

    def _read_panel(self):
        """The panel file, read back with the csv module alone."""
        with (self.workdir / "panel.csv").open(newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        x = np.array([[float(r[f"x{j}"]) for j in range(1, 5)] for r in rows])
        a = np.array([r["a"] == "1" for r in rows])
        d = np.array([float(r["d"]) if r["d"] else 0.0 for r in rows])
        y0 = np.array([float(r["y_0"]) for r in rows])
        y1 = np.array([float(r["y_1"]) for r in rows])
        return x, a, d, y0, y1

    def op(self, index: int):
        return self._estimate(self.config_path)

    def check(self, rc) -> list[str]:
        if rc != 0:
            return [f"dosedid estimate exited {rc}"]
        if not (self.out / "run_manifest.json").is_file():
            return ["no run manifest"]
        curves = {m: _read_curve(self.out / f"curve_{m}.csv") for m in ("MR", "OR", "NAIVE", "TWFE")}
        sandwich = _read_curve(self.out / "curve_MR_sandwich.csv")
        grid = curves["MR"]["delta"]
        problems = []
        if grid.shape != (50,) or np.any(np.diff(grid) <= 0):
            problems.append("MR grid is not 50 increasing points")
        for m, c in [*curves.items(), ("MR_sandwich", sandwich)]:
            if not np.array_equal(c["delta"], grid):
                problems.append(f"{m}: grid differs from MR's")
        if problems:
            return problems
        problems += _near_reference("MR", grid, curves["MR"]["psi"], self.TOL)
        problems += _near_reference("OR", grid, curves["OR"]["psi"], self.TOL)
        if not np.array_equal(sandwich["psi"], curves["MR"]["psi"]):
            problems.append("MR sandwich curve differs from the MR curve")
        problems += _band_problems(
            "MR sandwich",
            sandwich["psi"],
            sandwich["ci_lower"],
            sandwich["ci_upper"],
            reference.psi(grid),
            Z_MAX,
            bias=self.SMOOTHING_BIAS,
        )

        if self._panel is None:
            self._panel = self._read_panel()
        x, a, d, y0, y1 = self._panel
        # Stacked two-period design: 1, x, post, A, A*D, post*A, post*A*D;
        # the curve is the post*A intercept plus its dose slope.
        n = a.shape[0]
        af = a.astype(float)
        ad = af * d

        def rows(t):
            return np.column_stack([np.ones(n), x, np.full(n, t), af, ad, t * af, t * ad])

        design = np.vstack([rows(0.0), rows(1.0)])
        coef = np.linalg.lstsq(design, np.concatenate([y0, y1]), rcond=None)[0]
        twfe = coef[8] + coef[9] * grid
        err = float(np.max(np.abs(curves["TWFE"]["psi"] - twfe)))
        if err > self.TWFE_TOL:
            problems.append(f"TWFE differs from the lstsq fit of the stacked design by {err:.3g}")

        naive = curves["NAIVE"]
        control_mean = float(np.mean((y1 - y0)[~a]))
        err = float(np.max(np.abs((naive["theta"] - naive["psi"]) - control_mean)))
        if err > self.THETA0_TOL:
            problems.append(f"NAIVE theta0 differs from the control-trend mean by {err:.3g}")
        return problems


class InferenceN500(Workload):
    """Small-sample inference; each operation runs three things:

    * the MR curve and its weighted bootstrap bands (B=200, bandwidth held
      at the point estimate's, as the CLI does by default) on a fixed
      500-unit dataset;
    * augmented-sandwich bands for MR on a 10-point grid of the same data:
      nuisance score equations stacked with the curve's, cross derivatives
      by finite differences;
    * ``panel.estimate_repeated`` for MR with bootstrap bands (B=50) over
      the period pairs (0, 1) and (1, 2) of a 500-unit three-period placebo
      panel. No period carries an effect, so the true curve is zero.
    """

    name = "inference-n500"
    N = 500
    B = 200
    K = 10
    B_REPEATED = 50
    PAIRS = ((0, 1), (1, 2))

    def setup(self) -> None:
        dd = self.dd
        self.data = dd.simulation.generate_scenario_data(self.N, self.seed)
        # Correct specifications for the study DGP: mu1 carries dose, dose^3
        # and the dose interactions with the 1st and 3rd covariates.
        self.specs = dd.nuisance.default_specs(mu1_dose_powers=(1, 3), mu1_dose_interactions=(0, 2))
        self.panel = dd.simulation.generate_placebo_panel(self.N, self.seed)
        # The placebo DGP's trends, dose and propensity are linear in the
        # covariates, so the default linear specifications are correct.
        self.panel_specs = dd.nuisance.default_specs()
        dd.curves.estimate_curve(self.data, "MR", specs=self.specs)
        dd.panel.estimate_repeated(self.panel, self.PAIRS, "MR", specs=self.panel_specs)

    def op(self, index: int):
        dd = self.dd
        curve = dd.curves.estimate_curve(self.data, "MR", specs=self.specs)
        config = dd.curves.EstimatorConfig(
            method="MR",
            specs=self.specs,
            grid=curve.grid,
            bandwidth=curve.bandwidth,
            on_out_of_range="clamp",
        )
        boot = dd.inference.weighted_bootstrap(self.data, config, self.B, self.seed + 1)

        grid = dd.nuisance.default_dose_grid(self.data.dose, size=self.K)
        models = dd.nuisance.fit_nuisances(self.data, self.specs, dose_grid=grid)
        curve_k = dd.curves.estimate_curve(self.data, "MR", specs=self.specs, grid=grid, models=models)
        augmented = dd.inference.sandwich_bands(self.data, models, curve_k, mode="augmented")

        repeated = dd.panel.estimate_repeated(
            self.panel,
            self.PAIRS,
            "MR",
            specs=self.panel_specs,
            inference="bootstrap",
            b_replicates=self.B_REPEATED,
            seed=self.seed + 1,
        )
        return curve, boot, curve_k, augmented, repeated

    def check(self, output) -> list[str]:
        curve, boot, curve_k, (lower, upper, variances), repeated = output
        problems = []
        if boot.b_failed:
            problems.append(f"{boot.b_failed} of {self.B} bootstrap replicates failed")
        # Percentile bands bracket the point estimate: psi_hat sits 0.82-0.92
        # half-widths from either edge on every seed tried.
        if np.any((curve.psi < boot.ci_lower) | (curve.psi > boot.ci_upper)):
            problems.append("bootstrap bands do not contain psi_hat")
        problems += _band_problems(
            "MR bootstrap", curve.psi, boot.ci_lower, boot.ci_upper, reference.psi(curve.grid), Z_MAX
        )

        if not (np.all(np.isfinite(variances)) and np.all(variances > 0.0)):
            problems.append("augmented variances are not all finite and positive")
        else:
            problems += _band_problems(
                "MR augmented sandwich", curve_k.psi, lower, upper, reference.psi(curve_k.grid), Z_MAX
            )

        avg = repeated.averaged
        if repeated.pair_count != len(self.PAIRS):
            problems.append(f"{repeated.pair_count} pairs estimated, expected {len(self.PAIRS)}")
        failed = avg.diagnostics.get("bootstrap_failed")
        if failed:
            problems.append(f"{failed} of {self.B_REPEATED} repeated-period bootstrap replicates failed")
        mean = np.mean([c.psi for c in repeated.per_m], axis=0)
        if not np.allclose(avg.psi, mean, rtol=0.0, atol=1e-12):
            problems.append("averaged curve is not the mean of the per-pair curves")
        problems += _band_problems(
            "repeated placebo", avg.psi, avg.ci_lower, avg.ci_upper, np.zeros_like(avg.psi), Z_MAX_B50
        )
        return problems


class StudyN1000(Workload):
    """One replicate of the 16-permutation study per operation: six methods,
    no inference, one process. Each operation draws its own replicate."""

    name = "study-n1000"
    N = 1000
    SUPER_N = 1_000_000

    # The run-level check: the mean MR curve under correct specifications
    # lies within MC_Z Monte-Carlo standard errors of the reference, plus
    # the smoothing bias. That bias is at most 2 * h^2/2 * mu2(K) * |psi''|
    # with h <= H_MAX, the top of the leave-one-out grid (4 sd(D) n_t^-1/5
    # with sd(D) ~ 2.1, n_t ~ 470), mu2 = 1/5 for the Epanechnikov kernel
    # and psi'' = -0.018 delta; the factor 2 covers higher-order terms.
    MC_Z = 5.0
    H_MAX = 2.5

    def _config(self, seed: int):
        dd = self.dd
        return dd.simulation.ScenarioConfig(
            n=self.N,
            replicates=1,
            seed=seed,
            methods=dd.curves.METHODS,
            super_n=self.SUPER_N,
            workers=1,
            keep_curves=True,
        )

    def setup(self) -> None:
        dd = self.dd
        # Built in this process, as run_permutation_study builds it when it
        # is given no truth. Its 1M-unit draw sets this process's peak RSS,
        # and its freed 8 MB arrays raise glibc's dynamic mmap threshold
        # above a replicate's array sizes. A process that has not made that
        # draw takes ~5,000 minor page faults per replicate instead of ~10,
        # and their cost follows the host's load.
        self.truth = dd.simulation.ground_truth_curve(self.seed, self.SUPER_N, 50)
        self.perms = dd.simulation.all_permutations()
        # The warm-up replicate's seed is one no operation uses.
        dd.simulation.run_permutation_study(self._config(self.seed * 100_000 + 99_999), self.perms, truth=self.truth)
        self.mr_curves = []

    def op(self, index: int):
        return self.dd.simulation.run_permutation_study(
            self._config(self.seed * 100_000 + index), self.perms, truth=self.truth
        )

    def check(self, reports) -> list[str]:
        problems = []

        def curve(method, perm):
            return reports[tuple(sorted(perm))].curves[method][0]

        for key, report in reports.items():
            for method, mr in report.methods.items():
                if mr.failures:
                    problems.append(f"{method} failed under {key}")
        if problems:
            return problems
        for perm in self.perms:
            # OR reads only mu1 and mu0; IPW only pi_a and pi_d.
            or_twin = perm & {"mu1", "mu0"}
            ipw_twin = perm & {"pi_a", "pi_d"}
            if not np.array_equal(curve("OR", perm), curve("OR", or_twin)):
                problems.append(f"OR under {sorted(perm)} differs from OR under {sorted(or_twin)}")
            if not np.array_equal(curve("IPW", perm), curve("IPW", ipw_twin)):
                problems.append(f"IPW under {sorted(perm)} differs from IPW under {sorted(ipw_twin)}")
            for method in ("NAIVE", "TWFE"):
                if not np.array_equal(curve(method, perm), curve(method, frozenset())):
                    problems.append(f"{method} under {sorted(perm)} differs from {method} under no misspecification")
        if not problems:
            self.mr_curves.append(curve("MR", frozenset()))
        return problems

    def finish(self) -> list[str]:
        if len(self.mr_curves) < 2:
            return []
        curves = np.array(self.mr_curves)
        grid = self.truth.grid
        mean = curves.mean(axis=0)
        se = curves.std(axis=0, ddof=1) / np.sqrt(curves.shape[0])
        bias = self.H_MAX**2 * 0.2 * np.abs(reference.psi_second_derivative(grid))
        excess = np.abs(mean - reference.psi(grid)) - bias
        z = excess / se
        if np.max(z) > self.MC_Z:
            k = int(np.argmax(z))
            return [
                f"mean MR curve over {curves.shape[0]} replicates is {z[k]:.2f} Monte-Carlo "
                f"standard errors beyond the smoothing-bias bound at delta={grid[k]:.3f}"
            ]
        return []


WORKLOADS = {w.name: w for w in (EstimateN20k, InferenceN500, StudyN1000)}
