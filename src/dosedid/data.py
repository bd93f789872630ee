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
import warnings
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import DataParseError, DataValidationError, PeriodLookupError, SchemaError

__all__ = [
    "PanelSchema",
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

    def outcome(self, period: int) -> np.ndarray:
        try:
            col = self.period_labels.index(int(period))
        except ValueError:
            raise PeriodLookupError(f"unknown period label {period!r}") from None
        return self.y[:, col]


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
    def from_arrays(cls, x, a, dose, y0, y1):
        """The arrays as a dataset with ids u0, u1, ... and covariates x1, x2, ...."""
        x = np.asarray(x, dtype=float)
        return cls(
            ids=tuple(f"u{i}" for i in range(x.shape[0])),
            x=x,
            a=a,
            dose=dose,
            y0=y0,
            y1=y1,
            covariate_names=tuple(f"x{j + 1}" for j in range(x.shape[1])),
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

    # The groups' covariate rows, gathered once per dataset.
    @cached_property
    def x_treated(self) -> np.ndarray:
        return _readonly(self.x[self.a])

    @cached_property
    def x_control(self) -> np.ndarray:
        return _readonly(self.x[~self.a])

    @property
    def weight_treated(self) -> np.ndarray:
        return self.weight.compress(self.a, axis=-1)

    @property
    def weight_control(self) -> np.ndarray:
        return self.weight.compress(~self.a, axis=-1)

    def same_fields(self, other: "TwoPeriodDataset", names: tuple[str, ...]) -> bool:
        """Whether ``other`` is this dataset or holds equal arrays in the
        fields ``names``: identity first, then value."""
        pairs = ((getattr(self, name), getattr(other, name)) for name in names)
        return other is self or all(mine is theirs or np.array_equal(mine, theirs) for mine, theirs in pairs)

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

    The file is UTF-8, with or without a byte-order mark. Its cells follow
    the csv module's default dialect with the schema's delimiter: a cell
    that starts with ``"`` is quoted, may hold the delimiter and line
    breaks, and writes a quote as ``""``. The schema mapping, not column
    position, binds semantics. Ids and cells are stripped of the whitespace
    ``str.strip`` removes. A numeric cell is any text that Python's
    ``float`` reads once stripped: decimal and exponent forms, ``inf`` and
    ``nan`` in any case, digits grouped by underscores and non-ASCII decimal
    digits. The treatment reads as 0 or 1, and the dose is blank exactly
    where the treatment is 0.

    Raises SchemaError for missing columns, DataParseError for non-numeric
    cells (with row/column in the message), and DataValidationError when a
    treatment is not 0 or 1, a treated unit lacks a dose or a control
    carries one. Rows whose cells are all blank are skipped; row numbers
    count them, with the header on row 1.

    numpy's C reader reads the wanted columns in one pass (``_read_table``).
    A file it refuses, or whose treatment or dose cells break the rules
    above, is read again by ``_read_rows``, which checks it row by row in
    file order and so reports the first bad row. Both give every file the
    same bits (docs/DECISIONS.md, D18).
    """
    path = Path(path)
    labels = tuple(sorted(schema.outcomes))
    names = [schema.id, schema.treatment, schema.dose, *schema.covariates, *(schema.outcomes[m] for m in labels)]
    columns = _read_table(path, names, schema.delimiter)
    if columns is None:
        columns = _read_rows(path, schema, names)
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


def _read_table(path: Path, names: list, delimiter: str):
    """``(ids, treated, dose, values)`` from one ``np.loadtxt`` call over the
    columns ``names`` (id, treatment, dose, then the numeric ones), or None
    when the header lacks one of them, the reader refuses the file (a short
    row, a cell that is not an ASCII number, an all-blank row, an empty
    body, a delimiter it does not take) or a treatment or dose cell breaks
    ``load_panel``'s rules.

    Id and dose read as text, every other column as float64. Where numpy
    reads a number, its value is the one ``float`` gives the stripped cell:
    both strip the same whitespace and parse ASCII with
    ``PyOS_string_to_double``."""
    with path.open(newline="", encoding="utf-8-sig") as fh:
        header = next(csv.reader(fh, delimiter=delimiter), None)
        col = {name: idx for idx, name in enumerate(header or ())}
        if not all(name in col for name in names):
            return None
        dtype = np.dtype([("id", object), ("a", float), ("d", object), ("values", float, (len(names) - 3,))])
        try:
            # An empty body warns, then reads as no rows.
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                table = np.loadtxt(
                    fh,
                    dtype=dtype,
                    delimiter=delimiter,
                    comments=None,
                    quotechar='"',
                    usecols=[col[name] for name in names],
                    ndmin=1,
                )
        except (ValueError, TypeError):
            return None
    a_val = table["a"]
    treated = a_val == 1.0
    dose_cells = table["d"]
    has_dose = np.fromiter(map(bool, map(str.strip, dose_cells)), bool, dose_cells.shape[0])
    if not (table.size and np.all(treated | (a_val == 0.0)) and np.array_equal(has_dose, treated)):
        return None
    try:
        dose = np.fromiter(map(float, map(str.strip, dose_cells[treated])), float)
    except ValueError:
        return None
    return tuple(map(str.strip, table["id"])), treated, dose, table["values"]


def _read_rows(path: Path, schema: PanelSchema, names: list):
    """``_read_table``'s columns, read with the csv module and checked row by
    row in file order by ``_check_row``; raises the loader's error for the
    first fault."""
    with path.open(newline="", encoding="utf-8-sig") as fh:
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
    # 1-based with the header on row 1; a row whose cells are all blank is skipped.
    filled = [(row_no, row) for row_no, row in enumerate(rows, start=2) if "".join(row).strip()]
    if not filled:
        raise DataParseError(f"{path}: no data rows")
    ids, treated, doses, values = zip(*(_check_row(path, col, names, row, row_no) for row_no, row in filled))
    dose = np.array([d for d in doses if d is not None], dtype=float)
    return ids, np.array(treated), dose, np.array(values, dtype=float).reshape(len(ids), len(names) - 3)


def _check_row(path, col: dict, names: list, row: list, row_no: int) -> tuple:
    """A non-blank row's ``(id, treated, dose, values)``, the dose None for
    a control; raises the loader's error for the row's first fault.
    ``names`` are the id, treatment and dose columns, then the numeric ones,
    in the order they are checked."""

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
    d_val = None
    if a_val == 1.0:
        if dose_raw == "":
            raise DataValidationError(f"{path}: row {row_no}: treated unit {uid!r} has no dose")
        d_val = numeric(dose)
    elif dose_raw != "":
        raise DataValidationError(f"{path}: row {row_no}: control unit {uid!r} carries a dose value")
    return uid, a_val == 1.0, d_val, [numeric(name) for name in numeric_names]


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


# A report names at most this many repeated ids.
_NAMED_REPEATS = 5


def validate(data: PanelDataset) -> ValidationReport:
    """Structural health report; violations are reported, never thrown."""
    violations: list[tuple[bool, str]] = []
    n_a = data.n_treated
    if n_a == 0:
        violations.append((True, "no treated units"))
    if n_a == data.n:
        violations.append((True, "no control units"))
    if len(set(data.ids)) < data.n:
        # Every fit and bootstrap weight would count a repeated unit once per row.
        counts = Counter(data.ids)
        repeated = [f"{uid!r} ({k} rows)" for uid, k in counts.items() if k > 1]
        more = f" and {len(repeated) - _NAMED_REPEATS} more" if len(repeated) > _NAMED_REPEATS else ""
        violations.append((True, f"repeated unit ids: {', '.join(repeated[:_NAMED_REPEATS])}{more}"))
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
