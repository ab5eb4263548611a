"""The per-cell ingest loop, kept as the reference for flowbench.ingest.

This is the first version of the pipeline, which parsed the table row by
row and cell by cell. The one change is that deduplication carries each
kept row's 0-based data row, so errors name the row of the file. Tests
require the column-wise pipeline to give byte-identical results and the
same errors.
"""

import numpy as np

from flowbench.errors import DataFormatError
from flowbench.ingest import FALSE_TOKENS, MISSING_TOKENS, TRUE_TOKENS, FeatureMatrix


def _parse_numeric_cell(cell, row, column):
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


def _parse_boolean_cell(cell, row, column):
    text = cell.strip().lower()
    if text in TRUE_TOKENS:
        return 1.0
    if text in FALSE_TOKENS or text in MISSING_TOKENS:
        return 0.0
    raise DataFormatError(f"unrecognised Boolean token {cell!r}", row=row, column=column)


def reference_feature_matrix(columns, rows, schema):
    """(FeatureMatrix, category maps) of a raw table, one cell at a time."""
    drop = set(schema.identifier_columns) & set(columns)
    keep = [i for i, c in enumerate(columns) if c not in drop]
    columns = [columns[i] for i in keep]
    rows = [[row[i] for i in keep] for row in rows]

    seen = set()
    kept = []
    for source, row in enumerate(rows):
        key = tuple(row)
        if key not in seen:
            seen.add(key)
            kept.append((source, row))

    maps = {}
    for col in schema.categorical_columns:
        if col not in columns:
            continue
        idx = columns.index(col)
        cats = sorted({row[idx] for _, row in kept})
        maps[col] = {cat: i for i, cat in enumerate(cats)}
        for _, row in kept:
            row[idx] = str(maps[col][row[idx]])

    label_idx = columns.index(schema.label_column)
    attack_idx = None
    if schema.attack_type_column is not None and schema.attack_type_column in columns:
        attack_idx = columns.index(schema.attack_type_column)
    feature_idx = [i for i in range(len(columns)) if i not in (label_idx, attack_idx)]

    n = len(kept)
    values = np.empty((n, len(feature_idx)), dtype=np.float64)
    labels = np.empty(n, dtype=np.int64)
    attacks = np.empty(n, dtype=object) if attack_idx is not None else None
    for r, (source, row) in enumerate(kept):
        labels[r] = 1 if schema.is_attack_label(row[label_idx].strip()) else 0
        if attacks is not None:
            attacks[r] = row[attack_idx].strip()
        for j, i in enumerate(feature_idx):
            if columns[i] in schema.boolean_columns:
                values[r, j] = _parse_boolean_cell(row[i], source, columns[i])
            else:
                values[r, j] = _parse_numeric_cell(row[i], source, columns[i])

    fm = FeatureMatrix(
        values=values,
        feature_names=[columns[i] for i in feature_idx],
        labels=labels,
        attack_types=attacks,
    )
    return fm, maps
