"""Observed-data structures, panel file ingestion, and period pairing.

A panel holds units with baseline covariates, a treatment indicator, a
continuous exposure (treated units only; controls carry an explicit "no
dose"), and outcomes at integer-labelled observation periods. Two-period
datasets are carved out of a panel by pairing a pre and a post period.

All containers are immutable after construction (arrays are marked
read-only) and safe to share across parallel workers.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from itertools import compress
from operator import itemgetter
from pathlib import Path

import numpy as np

from .errors import DataParseError, DataValidationError, PeriodLookupError, SchemaError

__all__ = [
    "PanelSchema",
    "UnitRecord",
    "PanelDataset",
    "TwoPeriodDataset",
    "ValidationReport",
    "load_panel",
    "write_panel",
    "pair_periods",
    "validate",
]


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class PanelSchema:
    """Column-name mapping binding file columns to semantics.

    ``outcomes`` maps each integer period label to its column name; the
    conventional naming is ``y_<period>``. Missing dose (control rows) is an
    empty field.
    """

    id: str
    treatment: str
    dose: str
    covariates: tuple[str, ...]
    outcomes: dict[int, str]
    delimiter: str = ","

    @classmethod
    def from_dict(cls, raw: dict) -> "PanelSchema":
        missing = [k for k in ("id", "treatment", "dose", "covariates", "outcomes") if k not in raw]
        if missing:
            raise SchemaError(f"schema is missing keys: {', '.join(missing)}")
        outcomes = {int(k): str(v) for k, v in dict(raw["outcomes"]).items()}
        return cls(
            id=str(raw["id"]),
            treatment=str(raw["treatment"]),
            dose=str(raw["dose"]),
            covariates=tuple(str(c) for c in raw["covariates"]),
            outcomes=outcomes,
            delimiter=str(raw.get("delimiter", ",")),
        )

    @classmethod
    def default(cls, covariates, periods) -> "PanelSchema":
        """Canonical comma-delimited schema with outcome columns named
        ``y_<period>``."""
        return cls(
            id="id",
            treatment="a",
            dose="d",
            covariates=tuple(covariates),
            outcomes={int(m): f"y_{int(m)}" for m in periods},
        )


@dataclass(frozen=True)
class UnitRecord:
    """One unit's observed data; ``d`` is None exactly when ``a == 0``."""

    id: str
    x: np.ndarray
    a: int
    d: float | None
    y: dict[int, float]


@dataclass(frozen=True)
class PanelDataset:
    """Array-backed panel; unit order is row order of the source file."""

    ids: tuple[str, ...]
    x: np.ndarray  # (n, p)
    a: np.ndarray  # (n,) bool
    dose: np.ndarray  # (n_treated,) aligned with treated units in unit order
    y: np.ndarray  # (n, M)
    period_labels: tuple[int, ...]
    covariate_names: tuple[str, ...]

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        a = np.asarray(self.a, dtype=bool)
        dose = np.asarray(self.dose, dtype=float)
        y = np.asarray(self.y, dtype=float)
        n = len(self.ids)
        if x.shape[0] != n or a.shape[0] != n or y.shape[0] != n:
            raise DataValidationError("ids, covariates, treatment, and outcomes disagree on n")
        if x.ndim != 2 or x.shape[1] < 1:
            raise DataValidationError("covariate matrix must be (n, p) with p >= 1")
        if y.shape[1] != len(self.period_labels):
            raise DataValidationError("outcome matrix does not match period labels")
        if len(set(self.period_labels)) != len(self.period_labels):
            raise DataValidationError("duplicate period labels")
        if dose.shape[0] != int(a.sum()):
            raise DataValidationError("dose vector must have one entry per treated unit")
        object.__setattr__(self, "x", _readonly(x))
        object.__setattr__(self, "a", _readonly(a))
        object.__setattr__(self, "dose", _readonly(dose))
        object.__setattr__(self, "y", _readonly(y))

    @property
    def n(self) -> int:
        return len(self.ids)

    @property
    def n_treated(self) -> int:
        return int(self.a.sum())

    @property
    def p(self) -> int:
        return self.x.shape[1]

    def outcome(self, period: int) -> np.ndarray:
        try:
            col = self.period_labels.index(int(period))
        except ValueError:
            raise PeriodLookupError(f"unknown period label {period!r}") from None
        return self.y[:, col]

    @property
    def units(self) -> list[UnitRecord]:
        """Materialized per-unit view (intended for small, file-scale data)."""
        out = []
        t = 0
        for i, uid in enumerate(self.ids):
            if self.a[i]:
                d = float(self.dose[t])
                t += 1
            else:
                d = None
            out.append(
                UnitRecord(
                    id=uid,
                    x=self.x[i],
                    a=int(self.a[i]),
                    d=d,
                    y={m: float(self.y[i, j]) for j, m in enumerate(self.period_labels)},
                )
            )
        return out


@dataclass(frozen=True)
class TwoPeriodDataset:
    """A panel restricted to one (pre, post) outcome pair.

    Invariants enforced at construction: finite outcomes everywhere, at
    least one treated and one control unit, finite doses for the treated,
    and one finite, nonnegative ``weight`` per unit (default: all ones).
    Every fit and mean over the dataset is weighted by ``weight``; the
    weighted bootstrap reruns the estimator on
    ``dataclasses.replace(data, weight=w)``.

    ``weight`` may also be an (R, n) stack of weight rows. Every
    dataset-level function then reduces along the last axis and returns one
    result per row, each the one that row's (n,) weight gives.
    """

    ids: tuple[str, ...]
    x: np.ndarray
    a: np.ndarray
    dose: np.ndarray  # (n_treated,)
    y0: np.ndarray
    y1: np.ndarray
    covariate_names: tuple[str, ...]
    source_pair: tuple[int, int] = (0, 1)
    weight: np.ndarray | None = None  # (n,) or (R, n); None gives unit weights

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        a = np.asarray(self.a, dtype=bool)
        dose = np.asarray(self.dose, dtype=float)
        y0 = np.asarray(self.y0, dtype=float)
        y1 = np.asarray(self.y1, dtype=float)
        n = len(self.ids)
        weight = np.ones(n) if self.weight is None else np.asarray(self.weight, dtype=float)
        if not (x.shape[0] == a.shape[0] == y0.shape[0] == y1.shape[0] == n):
            raise DataValidationError("field lengths disagree")
        if weight.ndim not in (1, 2) or weight.shape[-1] != n or weight.size == 0:
            raise DataValidationError(f"weight must have one entry per unit (in each row), got shape {weight.shape}")
        if not np.all(np.isfinite(weight)) or np.any(weight < 0.0):
            raise DataValidationError("weights must be finite and nonnegative")
        n_a = int(a.sum())
        if n_a == 0 or n_a == n:
            raise DataValidationError("need at least one treated and one control unit")
        if dose.shape[0] != n_a:
            raise DataValidationError("dose vector must have one entry per treated unit")
        if not (np.all(np.isfinite(y0)) and np.all(np.isfinite(y1))):
            bad = np.nonzero(~(np.isfinite(y0) & np.isfinite(y1)))[0][0]
            raise DataValidationError(f"non-finite outcome for unit {self.ids[bad]!r}")
        if not np.all(np.isfinite(dose)):
            raise DataValidationError("non-finite dose among treated units")
        if not np.all(np.isfinite(x)):
            raise DataValidationError("non-finite covariate value")
        object.__setattr__(self, "x", _readonly(x))
        object.__setattr__(self, "a", _readonly(a))
        object.__setattr__(self, "dose", _readonly(dose))
        object.__setattr__(self, "y0", _readonly(y0))
        object.__setattr__(self, "y1", _readonly(y1))
        object.__setattr__(self, "weight", _readonly(weight))

    @classmethod
    def from_arrays(cls, x, a, dose, y0, y1, ids=None, covariate_names=None):
        x = np.asarray(x, dtype=float)
        n = x.shape[0]
        if ids is None:
            ids = tuple(f"u{i}" for i in range(n))
        if covariate_names is None:
            covariate_names = tuple(f"x{j + 1}" for j in range(x.shape[1]))
        return cls(
            ids=tuple(ids),
            x=x,
            a=a,
            dose=dose,
            y0=y0,
            y1=y1,
            covariate_names=tuple(covariate_names),
        )

    @property
    def n(self) -> int:
        return len(self.ids)

    @property
    def n_treated(self) -> int:
        return int(self.a.sum())

    @property
    def n_control(self) -> int:
        return self.n - self.n_treated

    @property
    def trend(self) -> np.ndarray:
        return self.y1 - self.y0

    @property
    def x_treated(self) -> np.ndarray:
        return self.x[self.a]

    @property
    def x_control(self) -> np.ndarray:
        return self.x[~self.a]

    @property
    def weight_treated(self) -> np.ndarray:
        return self.weight.compress(self.a, axis=-1)

    @property
    def weight_control(self) -> np.ndarray:
        return self.weight.compress(~self.a, axis=-1)

    def split(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Split a length-n vector, or each row of a (..., n) stack, into
        (treated part, control part). The parts are C-contiguous, so sums
        along their rows add in the order of a one-row call."""
        v = np.asarray(values)
        return v.compress(self.a, axis=-1), v.compress(~self.a, axis=-1)


@dataclass(frozen=True)
class ValidationReport:
    n: int
    n_treated: int
    n_control: int
    dose_range: tuple[float, float] | None
    violations: tuple[tuple[bool, str], ...] = field(default_factory=tuple)

    @property
    def fatal(self) -> bool:
        return any(f for f, _ in self.violations)

    def lines(self) -> list[str]:
        out = [
            f"n={self.n} treated={self.n_treated} control={self.n_control}",
            "dose range: "
            + ("none (no treated units)" if self.dose_range is None else f"[{self.dose_range[0]}, {self.dose_range[1]}]"),
        ]
        if not self.violations:
            out.append("no violations")
        for fatal_flag, msg in self.violations:
            out.append(("FATAL: " if fatal_flag else "warn: ") + msg)
        return out


def load_panel(path, schema: PanelSchema) -> PanelDataset:
    """Read a delimited text panel with a header row.

    The schema mapping, not column position, binds semantics. Raises
    SchemaError for missing columns, DataParseError for non-numeric cells
    (with row/column in the message), and DataValidationError when a treated
    unit lacks a dose or a control carries one.

    Rows whose cells are all blank are skipped; row numbers count them, with
    the header on row 1. Cells are read column by column, each value the one
    ``float`` gives the stripped cell (``_floats``). Any fault sends the
    file to ``_check_row``, row by row, which reports the first bad row in
    file order.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter=schema.delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise DataParseError(f"{path}: empty file") from None
        rows = list(reader)

    col = {name: idx for idx, name in enumerate(header)}
    wanted = [schema.id, schema.treatment, schema.dose, *schema.covariates, *schema.outcomes.values()]
    missing = [c for c in wanted if c not in col]
    if missing:
        raise SchemaError(f"{path}: missing columns: {', '.join(missing)}")

    labels = tuple(sorted(schema.outcomes))
    names = [schema.id, schema.treatment, schema.dose, *schema.covariates, *(schema.outcomes[m] for m in labels)]
    filled = list(compress(rows, _nonblank(rows)))
    if not filled:
        raise DataParseError(f"{path}: no data rows")
    columns = _columns(filled, [col[name] for name in names])
    if columns is None:
        for row_no, row in compress(enumerate(rows, start=2), _nonblank(rows)):  # 1-based with header on line 1
            _check_row(path, col, names, row, row_no)
        raise AssertionError(f"{path}: the column pass failed on a file without a bad row")

    ids, treated, dose, values = columns
    p = len(schema.covariates)
    return PanelDataset(
        ids=ids,
        x=values[:, :p],
        a=treated,
        dose=dose,
        y=values[:, p:],
        period_labels=labels,
        covariate_names=tuple(schema.covariates),
    )


def _nonblank(rows: list):
    """Per row, its cells joined and stripped: empty, so false, exactly when
    every cell is blank."""
    return map(str.strip, map("".join, rows))


def _columns(rows: list, indexes: list):
    """``(ids, treated, dose, values)`` from the cells at ``indexes`` (id,
    treatment, dose, then the numeric columns) of every row, read column by
    column; None when a row is short, a cell is not a number, a treatment
    is not 0 or 1, or a dose is blank where the treatment is 1 or filled
    where it is 0."""
    if min(map(len, rows)) <= max(indexes):
        return None
    id_col, a_col, dose_col, *numeric_cols = (list(map(itemgetter(k), rows)) for k in indexes)
    try:
        a_val = _floats(a_col)
        treated = a_val == 1.0
        has_dose = np.fromiter(map(bool, map(str.strip, dose_col)), bool, len(rows))
        if not (np.all(treated | (a_val == 0.0)) and np.array_equal(has_dose, treated)):
            return None
        dose = _floats(list(compress(dose_col, has_dose)))
        values = np.empty((len(numeric_cols), len(rows)))
        for k, cells in enumerate(numeric_cols):
            values[k] = _floats(cells)
    except ValueError:
        return None
    return tuple(map(str.strip, id_col)), treated, dose, values.T


def _floats(cells: list) -> np.ndarray:
    """``float`` of each stripped cell. ``float`` strips the whitespace that
    ``str.strip`` does, except the separators U+001C to U+001F, so only a
    column in which some cell fails is stripped first."""
    try:
        return np.fromiter(map(float, cells), float, len(cells))
    except ValueError:
        return np.fromiter(map(float, map(str.strip, cells)), float, len(cells))


def _check_row(path, col: dict, names: list, row: list, row_no: int) -> None:
    """Raise the loader's error for a non-blank row's first fault. ``names``
    are the id, treatment and dose columns, then the numeric ones, in the
    order they are checked."""

    def cell(name):
        try:
            return row[col[name]]
        except IndexError:
            raise DataParseError(f"{path}: row {row_no}: short row; no column {name!r}") from None

    def numeric(name):
        raw = cell(name).strip()
        try:
            return float(raw)
        except ValueError:
            raise DataParseError(f"{path}: row {row_no}, column {name!r}: non-numeric value {raw!r}") from None

    id_name, treatment, dose, *numeric_names = names
    uid = cell(id_name).strip()
    a_val = numeric(treatment)
    if a_val not in (0.0, 1.0):
        raise DataValidationError(f"{path}: row {row_no}: treatment must be 0 or 1, got {a_val}")
    dose_raw = cell(dose).strip()
    if a_val == 1.0:
        if dose_raw == "":
            raise DataValidationError(f"{path}: row {row_no}: treated unit {uid!r} has no dose")
        numeric(dose)
    elif dose_raw != "":
        raise DataValidationError(f"{path}: row {row_no}: control unit {uid!r} carries a dose value")
    for name in numeric_names:
        numeric(name)


def write_panel(data: PanelDataset, path, schema: PanelSchema | None = None) -> PanelSchema:
    """Write a panel as delimited text; floats use shortest round-trip
    formatting so load_panel(write_panel(d)) is bitwise the identity."""
    if schema is None:
        schema = PanelSchema.default(data.covariate_names, data.period_labels)
    path = Path(path)
    header = [schema.id, *schema.covariates, schema.treatment, schema.dose]
    header += [schema.outcomes[m] for m in data.period_labels]
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, delimiter=schema.delimiter)
        writer.writerow(header)
        t = 0
        for i, uid in enumerate(data.ids):
            if data.a[i]:
                dose_field = repr(float(data.dose[t]))
                t += 1
            else:
                dose_field = ""
            row = [uid]
            row += [repr(float(v)) for v in data.x[i]]
            row += [str(int(data.a[i])), dose_field]
            row += [repr(float(v)) for v in data.y[i]]
            writer.writerow(row)
    return schema


def pair_periods(data: PanelDataset, pre: int, post: int) -> TwoPeriodDataset:
    """Restrict a panel to the (pre, post) outcome pair; everything else is
    copied unchanged."""
    if int(pre) == int(post):
        raise DataValidationError(f"pre and post periods must differ, got ({pre}, {post})")
    y0 = data.outcome(pre)
    y1 = data.outcome(post)
    return TwoPeriodDataset(
        ids=data.ids,
        x=data.x,
        a=data.a,
        dose=data.dose,
        y0=y0,
        y1=y1,
        covariate_names=data.covariate_names,
        source_pair=(int(pre), int(post)),
    )


def validate(data: PanelDataset) -> ValidationReport:
    """Structural health report; violations are reported, never thrown."""
    violations: list[tuple[bool, str]] = []
    n_a = data.n_treated
    if n_a == 0:
        violations.append((True, "no treated units"))
    if n_a == data.n:
        violations.append((True, "no control units"))
    bad_y = ~np.all(np.isfinite(data.y), axis=1)
    for i in np.nonzero(bad_y)[0]:
        violations.append((True, f"non-finite outcome for unit {data.ids[i]!r}"))
    bad_x = ~np.all(np.isfinite(data.x), axis=1)
    for i in np.nonzero(bad_x)[0]:
        violations.append((True, f"non-finite covariate for unit {data.ids[i]!r}"))
    if data.dose.size and not np.all(np.isfinite(data.dose)):
        treated_ids = [uid for uid, flag in zip(data.ids, data.a) if flag]
        for j in np.nonzero(~np.isfinite(data.dose))[0]:
            violations.append((True, f"non-finite dose for unit {treated_ids[j]!r}"))
    dose_range = None
    if data.dose.size and np.all(np.isfinite(data.dose)):
        dose_range = (float(data.dose.min()), float(data.dose.max()))
    return ValidationReport(
        n=data.n,
        n_treated=n_a,
        n_control=data.n - n_a,
        dose_range=dose_range,
        violations=tuple(violations),
    )
