"""Raw flow-record CSVs -> clean numeric feature matrices.

The pipeline is: load_csv -> drop_identifiers -> deduplicate ->
encode_categoricals -> clean_values. Every step is a pure function on an
in-memory string table, so the cleaning rules (dash/NaN/Infinity -> 0,
Boolean tokens -> 0/1, label tokens -> {0,1}) operate on the exact cell
text the file carried. Deduplication runs after the identifier columns
are dropped and compares that exact text, so ``1.0`` and ``1`` differ.

The steps work column by column with C-level builtins: a numeric column
goes through ``float`` in one pass and only the cells it rejects reach
the missing-token rules; Boolean, label and attack-type columns parse
each distinct token once.

Errors name the row as the 0-based data row of the file (the header is
not counted), whatever rows deduplication removed before it, and the
column. When several cells are bad, the first in file order is named.
"""

from __future__ import annotations

import csv
import logging
from array import array
from dataclasses import dataclass, field
from itertools import repeat
from operator import itemgetter

import numpy as np

from .errors import DataFormatError, SchemaError
from .schema import DatasetSchema

log = logging.getLogger(__name__)

TRUE_TOKENS = frozenset({"1", "t", "true", "yes"})
FALSE_TOKENS = frozenset({"0", "f", "false", "no"})
MISSING_TOKENS = frozenset({"", "-", "nan", "inf", "infinity", "-inf", "-infinity"})


@dataclass
class RawTable:
    """A loaded CSV: column names plus rows of string cells.

    The steps build each row as a tuple and never change one in place.
    ``source_rows[r]`` is the 0-based data row of the file that row ``r``
    came from; ``None`` means the rows are the file's rows in order.
    """

    columns: list[str]
    rows: list[tuple[str, ...]]
    source_rows: list[int] | None = None

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    def column_index(self, name: str) -> int:
        try:
            return self.columns.index(name)
        except ValueError:
            raise SchemaError(f"column {name!r} not present in table") from None

    def source_row(self, r: int) -> int:
        """0-based data row of the file that row ``r`` came from."""
        return r if self.source_rows is None else self.source_rows[r]

    def column(self, i: int) -> list[str]:
        """The cells of column ``i``, top to bottom."""
        return list(map(itemgetter(i), self.rows))


@dataclass
class FeatureMatrix:
    """Numeric samples with names, binary labels and optional attack types.

    ``values`` is float64, finite everywhere; ``labels`` holds only 0 and 1.
    Arrays are frozen after construction so a matrix can be shared read-only.
    """

    values: np.ndarray
    feature_names: list[str]
    labels: np.ndarray
    attack_types: np.ndarray | None = None

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.values.ndim != 2:
            raise ValueError("values must be a 2-D matrix")
        if len(self.feature_names) != self.values.shape[1]:
            raise ValueError("feature_names length must equal column count")
        if self.labels.shape != (self.values.shape[0],):
            raise ValueError("labels length must equal row count")
        if not np.isfinite(self.values).all():
            raise ValueError("values contain non-finite entries")
        if not np.isin(self.labels, (0, 1)).all():
            raise ValueError("labels must contain only 0 and 1")
        if self.attack_types is not None:
            self.attack_types = np.asarray(self.attack_types, dtype=object)
            if self.attack_types.shape != (self.values.shape[0],):
                raise ValueError("attack_types length must equal row count")
            self.attack_types.setflags(write=False)
        self.values.setflags(write=False)
        self.labels.setflags(write=False)

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def n_features(self) -> int:
        return self.values.shape[1]

    def take(self, indices) -> "FeatureMatrix":
        """New matrix holding the given rows (copies, original untouched)."""
        indices = np.asarray(indices)
        return FeatureMatrix(
            values=self.values[indices],
            feature_names=list(self.feature_names),
            labels=self.labels[indices],
            attack_types=None if self.attack_types is None else self.attack_types[indices],
        )

    def with_values(self, values, feature_names=None) -> "FeatureMatrix":
        """Same rows/labels with transformed feature values."""
        values = np.asarray(values, dtype=np.float64)
        if feature_names is None:
            feature_names = [f"z{i}" for i in range(values.shape[1])]
        return FeatureMatrix(
            values=values,
            feature_names=list(feature_names),
            labels=self.labels,
            attack_types=self.attack_types,
        )


def model_input(m, n_features: int) -> np.ndarray:
    """The float64 values of a matrix or array given to a fitted model.

    Fails unless the data has the ``n_features`` columns the model was fitted on.
    """
    x = m.values if isinstance(m, FeatureMatrix) else np.asarray(m, dtype=np.float64)
    if x.shape[1] != n_features:
        raise ValueError(
            f"width mismatch: data has {x.shape[1]} features, model expects {n_features}"
        )
    return x


def row_weights(sample_weight, n_rows: int, *, allow_zero: bool = True) -> np.ndarray:
    """The float64 per-row weights of a fit on ``n_rows`` rows; all 1 when None.

    Fails unless ``sample_weight`` is shaped (n_rows,) and every weight is
    finite and non-negative (positive when ``allow_zero`` is false).
    """
    if sample_weight is None:
        return np.ones(n_rows)
    w = np.asarray(sample_weight, dtype=np.float64)
    if w.shape != (n_rows,):
        raise ValueError(f"sample_weight has shape {w.shape}, expected ({n_rows},)")
    bad = ~np.isfinite(w) | (w < 0 if allow_zero else w <= 0)
    if bad.any():
        i = int(np.argmax(bad))
        kind = "finite and non-negative" if allow_zero else "finite and positive"
        raise ValueError(f"sample_weight[{i}] = {float(w[i])!r} is not {kind}")
    return w


def load_csv(path, schema: DatasetSchema) -> RawTable:
    """Read a comma-separated, header-first, UTF-8 flow file.

    Every declared non-identifier column must be present (identifiers may
    have been pre-stripped from distributed copies; their absence is only
    logged). Extra columns are fine. A ragged row fails naming its 0-based
    data row (the header is not counted).
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}: file is empty") from None
        header = [h.strip() for h in header]
        required = [c for c in schema.declared_columns()
                    if c not in schema.identifier_columns]
        missing = [c for c in required if c not in header]
        if missing:
            raise SchemaError(f"{path}: missing declared column(s) {missing}")
        absent_ids = [c for c in schema.identifier_columns if c not in header]
        if absent_ids:
            log.info("%s: identifier column(s) %s not present", path, absent_ids)
        width = len(header)
        rows = []
        for i, row in enumerate(reader):
            if len(row) != width:
                raise DataFormatError(
                    f"ragged row: expected {width} cells, got {len(row)}", row=i
                )
            rows.append(tuple(row))
    return RawTable(columns=header, rows=rows)


def write_csv(path, header, rows) -> None:
    """Write a UTF-8 CSV file: the header, then each row of Python values.

    ``csv`` writes each value as its ``str``, so a float is its shortest
    round-trip ``repr``, and ``None`` as an empty cell. Pass Python values
    (``ndarray.tolist()``), not numpy scalars: a float32 holding
    0.10000000149011612 would be written as ``0.1``.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def drop_identifiers(table: RawTable, schema: DatasetSchema) -> RawTable:
    """Remove flow-identifier columns (IPs, ports, timestamps, row ids).

    The rows come back as tuples of the kept cells.
    """
    drop = set(schema.identifier_columns) & set(table.columns)
    skipped = set(schema.identifier_columns) - drop
    if skipped:
        log.info("identifier column(s) already absent: %s", sorted(skipped))
    keep = [i for i, c in enumerate(table.columns) if c not in drop]
    # itemgetter returns a bare cell, not a 1-tuple, for a single index
    take = itemgetter(*keep) if len(keep) > 1 else (lambda row: tuple(row[i] for i in keep))
    return RawTable(
        columns=[table.columns[i] for i in keep],
        rows=list(map(take, table.rows)),
        source_rows=table.source_rows,
    )


def deduplicate(table: RawTable) -> RawTable:
    """Keep the first occurrence of each distinct row, preserving order.

    Rows are equal when their cells have the same exact text. Each kept
    row keeps its source row, so later errors name the file's row.
    """
    first = {}
    for r, row in enumerate(table.rows):
        first.setdefault(tuple(row), r)
    kept = list(first.values())
    return RawTable(
        columns=list(table.columns),
        rows=[table.rows[r] for r in kept],
        source_rows=list(map(table.source_row, kept)),
    )


@dataclass
class EncoderMap:
    """Per-column category -> integer code maps, in deterministic order."""

    maps: dict[str, dict[str, int]] = field(default_factory=dict)


def encode_categoricals(table: RawTable, schema: DatasetSchema) -> tuple[RawTable, EncoderMap]:
    """Replace categorical strings with integer codes.

    Codes are assigned 0,1,2,... in lexicographic order of the category
    strings, so identical data always yields identical maps.
    """
    emap = EncoderMap()
    coders = []  # (column index, category -> code text)
    for col in dict.fromkeys(schema.categorical_columns):  # a repeated name encodes once
        if col in table.columns:
            i = table.column_index(col)
            cats = sorted(set(table.column(i)))
            emap.maps[col] = {cat: code for code, cat in enumerate(cats)}
            coders.append((i, {cat: str(code) for code, cat in enumerate(cats)}))
    rows = []
    for row in table.rows:
        cells = list(row)
        for i, codes in coders:
            cells[i] = codes[cells[i]]
        rows.append(tuple(cells))
    return RawTable(columns=list(table.columns), rows=rows,
                    source_rows=table.source_rows), emap


def _parse_numeric_cell(cell: str, row: int, column: str) -> float:
    text = cell.strip()
    if text.lower() in MISSING_TOKENS:
        return 0.0
    try:
        value = float(text)
    except ValueError:
        raise DataFormatError(
            f"non-numeric cell {cell!r}", row=row, column=column
        ) from None
    if not np.isfinite(value):
        return 0.0
    return value


def _numeric_column(table: RawTable, i: int) -> np.ndarray:
    """Column ``i`` as float64; missing tokens are 0.0, NaN/inf stay for the caller.

    ``float`` runs over the whole column in C. ``array.extend`` keeps what
    it appended before a cell raised, and ``map`` resumes after that cell,
    so only the rejected cells go through ``_parse_numeric_cell``.
    """
    cells = table.column(i)
    floats = map(float, cells)
    out = array("d")
    while True:
        try:
            out.extend(floats)
        except ValueError:
            r = len(out)
            out.append(_parse_numeric_cell(cells[r], table.source_row(r), table.columns[i]))
        else:
            return np.frombuffer(out, dtype=np.float64)


def _boolean_column(table: RawTable, i: int) -> np.ndarray:
    """Column ``i`` as 1.0/0.0, each distinct token parsed once."""
    cells = table.column(i)
    # insertion order is first occurrence, so the first bad token is the earliest bad cell
    decoded = dict.fromkeys(cells)
    for token in decoded:
        text = token.strip().lower()
        if text in TRUE_TOKENS:
            decoded[token] = 1.0
        elif text in FALSE_TOKENS or text in MISSING_TOKENS:
            decoded[token] = 0.0
        else:
            raise DataFormatError(
                f"unrecognised Boolean token {token!r}",
                row=table.source_row(cells.index(token)), column=table.columns[i],
            )
    return np.fromiter(map(decoded.__getitem__, cells), np.float64, len(cells))


def clean_values(table: RawTable, schema: DatasetSchema) -> FeatureMatrix:
    """Turn an encoded string table into a finite float64 FeatureMatrix.

    NaN/dash/infinity cells become 0.0, Boolean tokens become 1.0/0.0, and
    the label column maps to {0,1}. Attack-type strings, when declared, are
    carried through unchanged for the per-attack detection-rate breakdown.
    """
    label_idx = table.column_index(schema.label_column)
    attack_idx = None
    if schema.attack_type_column is not None and schema.attack_type_column in table.columns:
        attack_idx = table.column_index(schema.attack_type_column)
    bool_cols = {c for c in schema.boolean_columns if c in table.columns}
    feature_idx = [i for i in range(len(table.columns)) if i not in (label_idx, attack_idx)]

    n = table.n_rows
    values = np.empty((n, len(feature_idx)), dtype=np.float64)
    errors = []
    for j, i in enumerate(feature_idx):
        parse = _boolean_column if table.columns[i] in bool_cols else _numeric_column
        try:
            values[:, j] = parse(table, i)
        except DataFormatError as exc:
            errors.append((exc.row, j, exc))
    if errors:
        # each column reports its first bad cell; name the first in file order
        raise min(errors, key=itemgetter(0, 1))[2]
    values[~np.isfinite(values)] = 0.0

    cells = table.column(label_idx)
    is_attack = {t: int(schema.is_attack_label(t.strip())) for t in set(cells)}
    labels = np.fromiter(map(is_attack.__getitem__, cells), np.int64, n)
    attacks = None
    if attack_idx is not None:
        cells = table.column(attack_idx)
        stripped = {t: t.strip() for t in set(cells)}
        attacks = np.fromiter(map(stripped.__getitem__, cells), object, n)

    return FeatureMatrix(
        values=values,
        feature_names=[table.columns[i] for i in feature_idx],
        labels=labels,
        attack_types=attacks,
    )


def load_feature_matrix(
    path, schema: DatasetSchema
) -> tuple[FeatureMatrix, EncoderMap]:
    """Run the whole ingestion pipeline on one file."""
    table = load_csv(path, schema)
    table = drop_identifiers(table, schema)
    table = deduplicate(table)
    table, emap = encode_categoricals(table, schema)
    return clean_values(table, schema), emap


def dump_feature_matrix(fm: FeatureMatrix, path) -> None:
    """Write a cleaned matrix as CSV: features, then label and attack_type.

    Values are written as the ``repr`` of Python floats, which reads back
    bit for bit. Rows are converted one at a time, so the matrix is never
    held as Python floats.
    """
    types = repeat(None) if fm.attack_types is None else fm.attack_types
    rows = (values.tolist() + [label, kind]
            for values, label, kind in zip(fm.values, fm.labels.tolist(), types))
    write_csv(path, [*fm.feature_names, "label", "attack_type"], rows)
