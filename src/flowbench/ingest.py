"""Raw flow-record CSVs -> clean numeric feature matrices.

The pipeline is: load_csv -> drop_identifiers -> deduplicate ->
encode_categoricals -> clean_values. The cleaning rules (dash/NaN/Infinity
-> 0, Boolean tokens -> 0/1, label tokens -> {0,1}) operate on the exact
cell text the file carried. Deduplication runs after the identifier
columns are dropped and compares that exact text, so ``1.0`` and ``1``
differ.

``load_feature_matrix`` runs these steps on the file in chunks of
``CHUNK_CELLS // width`` rows, where ``width`` is the header's cell count,
and finishes each chunk before it reads the next, so it holds about
``CHUNK_CELLS`` cells of text beside the growing float64 matrix however
wide the file is. Each chunk is width-checked, loses its identifier cells,
and is deduplicated against the 128-bit BLAKE2b digests of the rows kept
so far, which hold no row text: they sit in sorted uint64 runs
(``_DigestTable``), 16 bytes per
distinct row. With n distinct rows, the chance that two share a digest
(and one is dropped wrongly) is below n**2 / 2**129, about 1.5e-27 at a
million rows. The rows read, the duplicates dropped and the rows kept are
logged at INFO. A chunk's numeric cells go through ``float`` in one row-major
C-level stream, and only the cells it rejects reach the missing-token
rules; Boolean, label and attack-type cells parse each distinct token
once. Categorical cells get first-seen ids while the file streams, and
at the end one remap per column turns them into codes in lexicographic
order of the category text.

The named steps work on a ``RawTable`` of string cells and share the
stream's chunk reader, digest dedup and parse kernels: ``load_csv``
collects the reader's chunks into one table and ``deduplicate`` is the
one-chunk case of the cross-chunk dedup.

Errors name the row as the 0-based data row of the file (the header is
not counted), whatever rows deduplication removed before it, and the
column. A ragged row anywhere in the file wins; otherwise, when several
cells are bad, the first in file order is named.
"""

from __future__ import annotations

import csv
import logging
from array import array
from dataclasses import dataclass, field, replace
from functools import partial
from hashlib import blake2b
from itertools import chain, islice, repeat
from operator import itemgetter, methodcaller

import numpy as np

from .errors import DataFormatError, SchemaError
from .schema import DatasetSchema

log = logging.getLogger(__name__)

TRUE_TOKENS = frozenset({"1", "t", "true", "yes"})
FALSE_TOKENS = frozenset({"0", "f", "false", "no"})
MISSING_TOKENS = frozenset({"", "-", "nan", "inf", "infinity", "-inf", "-infinity"})
# Cells read and parsed at a time, 170 rows of 48 columns. Loading 25k rows of
# 48 columns peaked at 48.1 MB RSS with 512-row chunks, 45.3 MB with 170 and
# 44.6 MB with 128; smaller chunks pay a chunk's fixed cost more often.
CHUNK_CELLS = 8192


def _column_index(columns: list[str], name: str) -> int:
    try:
        return columns.index(name)
    except ValueError:
        raise SchemaError(f"column {name!r} not present in table") from None


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
        labels = np.asarray(self.labels)
        # a float label is checked before the cast, which would truncate 0.5 to 0
        if labels.dtype.kind == "f" and not ((labels == 0) | (labels == 1)).all():
            raise ValueError("labels must contain only 0 and 1")
        self.labels = labels.astype(np.int64, copy=False)
        if self.values.ndim != 2:
            raise ValueError("values must be a 2-D matrix")
        if len(self.feature_names) != self.values.shape[1]:
            raise ValueError("feature_names length must equal column count")
        if self.labels.shape != (self.values.shape[0],):
            raise ValueError("labels length must equal row count")
        # NaN propagates through min and max, so this rejects NaN and +-inf
        # without a full-size Boolean temporary
        if self.values.size and not (np.isfinite(self.values.min())
                                     and np.isfinite(self.values.max())):
            raise ValueError("values contain non-finite entries")
        if (self.labels & ~1).any():  # a bit other than the lowest: not 0 or 1
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

    def with_values(self, values, feature_names) -> "FeatureMatrix":
        """Same rows/labels with transformed feature values."""
        return FeatureMatrix(
            values=np.asarray(values, dtype=np.float64),
            feature_names=list(feature_names),
            labels=self.labels,
            attack_types=self.attack_types,
        )


def model_input(m, n_features: int | None = None) -> np.ndarray:
    """The float64 values of a matrix or array given to a model.

    Given ``n_features``, fails unless the data has the columns the model was fitted on.
    """
    x = m.values if isinstance(m, FeatureMatrix) else np.asarray(m, dtype=np.float64)
    if n_features is not None and x.shape[1] != n_features:
        raise ValueError(
            f"width mismatch: data has {x.shape[1]} features, model expects {n_features}"
        )
    return x


def row_weights(sample_weight, n_rows: int) -> np.ndarray:
    """The float64 per-row weights of a fit on ``n_rows`` rows; all 1 when None.

    Fails unless ``sample_weight`` is shaped (n_rows,) and every weight is
    finite and non-negative.
    """
    if sample_weight is None:
        return np.ones(n_rows)
    w = np.asarray(sample_weight, dtype=np.float64)
    if w.shape != (n_rows,):
        raise ValueError(f"sample_weight has shape {w.shape}, expected ({n_rows},)")
    bad = ~np.isfinite(w) | (w < 0)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"sample_weight[{i}] = {float(w[i])!r} is not finite and non-negative")
    return w


def _read_header(reader, path, schema: DatasetSchema) -> list[str]:
    """The stripped header row, checked against the schema."""
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
    return header


def _chunks(reader, width: int):
    """Yield (first data row, rows) for each run of ``CHUNK_CELLS // width`` rows, at least 1.

    Fails on the first ragged row, naming its 0-based data row.
    """
    size = max(1, CHUNK_CELLS // width)
    start = 0
    while rows := list(islice(reader, size)):
        if not all(map(width.__eq__, map(len, rows))):
            r = next(r for r, row in enumerate(rows) if len(row) != width)
            raise DataFormatError(
                f"ragged row: expected {width} cells, got {len(rows[r])}", row=start + r
            )
        yield start, rows
        start += len(rows)


def load_csv(path, schema: DatasetSchema) -> RawTable:
    """Read a comma-separated, header-first, UTF-8 flow file.

    Every declared non-identifier column must be present (identifiers may
    have been pre-stripped from distributed copies; their absence is only
    logged). Extra columns are fine. A ragged row fails naming its 0-based
    data row (the header is not counted).
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = _read_header(reader, path, schema)
        rows = []
        for _, chunk in _chunks(reader, len(header)):
            rows.extend(map(tuple, chunk))
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


def _kept_columns(columns: list[str], schema: DatasetSchema):
    """(kept column names, row -> tuple of its kept cells), identifiers left out."""
    keep = [i for i, c in enumerate(columns) if c not in schema.identifier_columns]
    # itemgetter returns a bare cell, not a 1-tuple, for a single index
    take = itemgetter(*keep) if len(keep) > 1 else (lambda row: tuple(row[i] for i in keep))
    return [columns[i] for i in keep], take


def drop_identifiers(table: RawTable, schema: DatasetSchema) -> RawTable:
    """Remove flow-identifier columns (IPs, ports, timestamps, row ids).

    The rows come back as tuples of the kept cells.
    """
    columns, take = _kept_columns(table.columns, schema)
    return RawTable(columns=columns, rows=list(map(take, table.rows)),
                    source_rows=table.source_rows)


def _row_digests(rows, width: int):
    """A 128-bit BLAKE2b digest of each row of ``width`` cells.

    A row is hashed as its cells joined by NUL. The csv reader passes NUL
    through inside a cell, so a row whose joined text holds more than
    ``width - 1`` NULs is hashed as ``width`` NULs and the ``repr`` of its
    cells instead, which holds no other NUL. Both forms decode to exactly
    one row, so equal digests mean equal rows unless BLAKE2b collides.
    """
    texts = list(map("\0".join, rows))
    # UTF-8 writes NUL, and nothing else, as a 0 byte: numpy counts them far faster than str
    encoded = np.frombuffer("".join(texts).encode("utf-8", "surrogatepass"), np.uint8)
    if len(encoded) - np.count_nonzero(encoded) != (width - 1) * len(texts):
        texts = [text if text.count("\0") == width - 1 else "\0" * width + repr(tuple(row))
                 for text, row in zip(texts, rows)]
    data = map(str.encode, texts, repeat("utf-8"), repeat("surrogatepass"))
    return map(methodcaller("digest"), map(partial(blake2b, digest_size=16), data))


def _holds(run, hi, lo) -> np.ndarray:
    """Whether the run (run_hi, run_lo), sorted by hi and not empty, holds each digest (hi, lo)."""
    run_hi, run_lo = run
    pos = run_hi.searchsorted(hi)
    same_hi = run_hi.take(pos, mode="clip") == hi  # a hi past the run's end meets its last
    found = same_hi & (run_lo.take(pos, mode="clip") == lo)
    if np.count_nonzero(same_hi) > np.count_nonzero(found):
        # another digest of the run has this hi (chance 2**-64 a pair): scan all that have it
        for i in np.flatnonzero(same_hi & ~found).tolist():
            stop = np.searchsorted(run_hi, hi[i], side="right")
            found[i] = bool((run_lo[pos[i]:stop] == lo[i]).any())
    return found


def _merged(run, hi, lo):
    """The run (run_hi, run_lo) with the digests (hi, lo) merged in, both sorted by hi."""
    run_hi, run_lo = run
    at = np.searchsorted(run_hi, hi) + np.arange(len(hi))  # each new digest's place
    old = np.ones(len(run_hi) + len(hi), bool)
    old[at] = False
    merged = []
    for kept, new in ((run_hi, hi), (run_lo, lo)):
        out = np.empty(len(old), np.uint64)
        out[at] = new
        out[old] = kept
        merged.append(out)
    return tuple(merged)


class _DigestTable:
    """The distinct 128-bit row digests seen so far, in 16 bytes each.

    A digest is read as two uint64 halves, its first and second 8 bytes
    (hi, lo). The halves are kept in runs sorted by hi, each more than
    eight times the size of the next: a chunk's new digests form a run,
    which is merged into the one before it while it holds more than an
    eighth as many (the logarithmic method of Bentley and Saxe, 1980). So
    n digests lie in at most about log8(n / chunk) + 1 runs, and the
    merges copy a digest O(log n) times (17 on average at 200k rows of 48
    columns). A lookup is a binary search of each run's hi, then both
    halves are compared, so the table is exact on all 128 bits.
    """

    def __init__(self):
        self.runs = []  # (hi, lo) arrays, largest run first

    def __len__(self) -> int:
        return sum(len(hi) for hi, _ in self.runs)

    def add(self, digests: bytes) -> np.ndarray:
        """Ascending positions of the digests not in the table; adds them.

        ``digests`` holds 16-byte digests back to back. A digest repeated
        within it counts once, at its first position.
        """
        halves = np.frombuffer(digests, np.uint64).reshape(-1, 2)
        rows = np.argsort(halves[:, 0])
        hi, lo = halves[rows, 0], halves[rows, 1]
        same_hi = hi[1:] == hi[:-1]
        if same_hi.any():  # a digest repeated, or (chance 2**-64 a pair) two sharing a hi
            if (lo[1:] != lo[:-1])[same_hi].any():
                rows = np.lexsort((halves[:, 1], halves[:, 0]))  # equal digests side by side
                hi, lo = halves[rows, 0], halves[rows, 1]
            first = np.ones(len(hi), bool)
            first[1:] = (hi[1:] != hi[:-1]) | (lo[1:] != lo[:-1])
            starts = np.flatnonzero(first)
            rows = np.minimum.reduceat(rows, starts)  # each distinct digest's first position
            hi, lo = hi[starts], lo[starts]
        held = np.zeros(len(hi), bool)
        for run in self.runs:
            held |= _holds(run, hi, lo)
        if held.any():
            rows, hi, lo = rows[~held], hi[~held], lo[~held]
        run = hi, lo
        while self.runs and 8 * len(run[0]) > len(self.runs[-1][0]):
            run = _merged(self.runs.pop(), *run)
        if len(run[0]):
            self.runs.append(run)
        return np.sort(rows)


def _new_rows(rows, width: int, table: _DigestTable) -> list[int]:
    """Indices of the rows whose digest is not in ``table``; adds each new digest.

    A row repeated within ``rows`` counts once, at its first index.
    """
    return table.add(b"".join(_row_digests(rows, width))).tolist()


def deduplicate(table: RawTable) -> RawTable:
    """Keep the first occurrence of each distinct row, preserving order.

    Rows are equal when their cells have the same exact text; they are
    compared by digest (see ``_row_digests``). With n distinct rows the
    chance that two share a digest, so that one is dropped wrongly, is
    below n**2 / 2**129. Each kept row keeps its source row, so later
    errors name the file's row.
    """
    kept = _new_rows(table.rows, len(table.columns), _DigestTable())
    return RawTable(
        columns=list(table.columns),
        rows=[table.rows[r] for r in kept],
        source_rows=list(map(table.source_row, kept)),
    )


@dataclass
class EncoderMap:
    """Per-column category -> integer code maps, in deterministic order."""

    maps: dict[str, dict[str, int]] = field(default_factory=dict)


def _decoded(cells: list[str], cache: dict, decode):
    """The cells through ``cache``, after ``decode`` filled in each token it lacks.

    Tokens are decoded in order of first occurrence, so when ``decode``
    raises, it raises on the token of the earliest such cell.
    """
    for token in dict.fromkeys(cells):
        if token not in cache:
            cache[token] = decode(token)
    return map(cache.__getitem__, cells)


def _lexicographic(categories) -> dict[str, int]:
    """Category -> code, 0, 1, ... in lexicographic order of the category text."""
    return {cat: code for code, cat in enumerate(sorted(categories))}


def _categorical(columns: list[str], schema: DatasetSchema) -> list[int]:
    """Indices of the schema's categorical columns present in ``columns``, each once."""
    return [columns.index(c) for c in dict.fromkeys(schema.categorical_columns)
            if c in columns]


def encode_categoricals(table: RawTable, schema: DatasetSchema) -> tuple[RawTable, EncoderMap]:
    """Replace categorical strings with integer codes.

    Codes are assigned 0,1,2,... in lexicographic order of the category
    strings, so identical data always yields identical maps. The steps pass
    string cells on, so each code is written back as its text for
    ``clean_values`` to parse; ``load_feature_matrix`` holds no text table
    and instead remaps first-seen ids to the same codes in ``_MatrixBuilder``.
    """
    emap = EncoderMap()
    coders = []  # (column index, category -> code text)
    for i in _categorical(table.columns, schema):
        emap.maps[table.columns[i]] = codes = _lexicographic(set(table.column(i)))
        coders.append((i, {cat: str(code) for cat, code in codes.items()}))
    rows = []
    for row in table.rows:
        cells = list(row)
        for i, codes in coders:
            cells[i] = codes[cells[i]]
        rows.append(tuple(cells))
    return RawTable(columns=list(table.columns), rows=rows,
                    source_rows=table.source_rows), emap


def _parse_numeric_cell(cell: str) -> float:
    """A numeric cell that ``float`` rejected: missing tokens are 0.0, else ValueError."""
    text = cell.strip()
    if text.lower() in MISSING_TOKENS:
        return 0.0
    return float(text)


def _parse_boolean_cell(cell: str) -> float:
    text = cell.strip().lower()
    if text in TRUE_TOKENS:
        return 1.0
    if text in FALSE_TOKENS or text in MISSING_TOKENS:
        return 0.0
    raise ValueError(cell)


def _numbers(rows, cols: list[int]):
    """(cells ``cols`` of each row as float64, row-major; (row, column) of the first bad cell).

    Missing tokens are 0.0; NaN and inf stay for the caller. ``float`` runs
    over every cell in C. ``array.extend`` keeps what it appended before a
    cell raised, and ``map`` resumes after that cell, so only the rejected
    cells go through ``_parse_numeric_cell``. The first cell that fails it
    ends the parse.
    """
    n = len(cols)
    cells = map(itemgetter(*cols), rows)  # a tuple per row; a bare cell when n is 1
    floats = map(float, chain.from_iterable(cells) if n > 1 else cells)
    out = array("d")
    while True:
        try:
            out.extend(floats)
        except ValueError:
            r, c = divmod(len(out), n)
            try:
                out.append(_parse_numeric_cell(rows[r][cols[c]]))
            except ValueError:
                return out, (r, cols[c])
        else:
            return out, None


class _MatrixBuilder:
    """The FeatureMatrix of a table's rows, parsed chunk by chunk.

    ``columns`` are the table's columns. The label and attack-type columns
    are not features; Boolean columns parse each distinct token once; the
    schema's categorical columns get first-seen ids, which ``finish`` remaps
    to their lexicographic codes; every other column is numeric.
    """

    def __init__(self, columns: list[str], schema: DatasetSchema):
        self.columns = columns
        self.schema = schema
        label = _column_index(columns, schema.label_column)
        attack = None
        if schema.attack_type_column is not None and schema.attack_type_column in columns:
            attack = columns.index(schema.attack_type_column)
        self.features = [i for i in range(len(columns)) if i not in (label, attack)]
        self.position = {i: j for j, i in enumerate(self.features)}
        # column index -> category -> first-seen id
        self.categories = {i: {} for i in _categorical(columns, schema)}
        bools = {c for c in schema.boolean_columns if c in columns}
        self.booleans = [i for i in self.features if columns[i] in bools]
        self.numeric = [i for i in self.features
                        if columns[i] not in bools and i not in self.categories]
        self.numeric_at = np.array([self.position[i] for i in self.numeric], np.intp)
        self.label = itemgetter(label)
        self.attack = None if attack is None else itemgetter(attack)
        self.flags = {}      # Boolean token -> 1.0 or 0.0
        self.is_attack = {}  # label token -> 1 or 0
        self.stripped = {}   # attack-type token -> its stripped text
        self.values = array("d")
        self.labels = array("q")
        self.attacks = []

    def add(self, rows, source_rows) -> None:
        """Parse ``rows``; ``source_rows[r]`` is the 0-based file row of ``rows[r]``.

        Fails on the first bad cell in (row, column) order, naming its file
        row and column, and appends nothing then.
        """
        block = np.empty((len(rows), len(self.features)))
        bad = []  # (row, column index, message) of the first bad cell of each parse
        if self.numeric:
            numbers, where = _numbers(rows, self.numeric)
            if where is None:
                block[:, self.numeric_at] = np.frombuffer(numbers, dtype=np.float64).reshape(
                    len(rows), len(self.numeric))
            else:
                r, i = where
                bad.append((r, i, f"non-numeric cell {rows[r][i]!r}"))
        for i in self.booleans:
            cells = list(map(itemgetter(i), rows))
            try:
                flags = _decoded(cells, self.flags, _parse_boolean_cell)
            except ValueError as exc:
                token = exc.args[0]
                bad.append((cells.index(token), i, f"unrecognised Boolean token {token!r}"))
            else:
                block[:, self.position[i]] = np.fromiter(flags, np.float64, len(cells))
        if bad:
            r, i, message = min(bad)
            raise DataFormatError(message, row=source_rows[r], column=self.columns[i])
        for i, ids in self.categories.items():
            cells = list(map(itemgetter(i), rows))
            first_seen = _decoded(cells, ids, lambda token: len(ids))
            block[:, self.position[i]] = np.fromiter(first_seen, np.float64, len(cells))
        block[~np.isfinite(block)] = 0.0
        self.values.frombytes(block.reshape(-1).view(np.uint8))
        cells = list(map(self.label, rows))
        self.labels.extend(_decoded(
            cells, self.is_attack, lambda t: int(self.schema.is_attack_label(t.strip()))))
        if self.attack is not None:
            self.attacks.extend(_decoded(list(map(self.attack, rows)), self.stripped, str.strip))

    def finish(self) -> tuple[FeatureMatrix, EncoderMap]:
        """The matrix of every row added, with the categorical codes in place."""
        values = np.frombuffer(self.values, dtype=np.float64).reshape(
            len(self.labels), len(self.features))
        emap = EncoderMap()
        for i, ids in self.categories.items():
            emap.maps[self.columns[i]] = codes = _lexicographic(ids)
            by_id = np.fromiter(map(codes.__getitem__, ids), np.float64, len(ids))
            j = self.position[i]
            values[:, j] = by_id[values[:, j].astype(np.intp)]
        fm = FeatureMatrix(
            values=values,
            feature_names=[self.columns[i] for i in self.features],
            labels=np.frombuffer(self.labels, dtype=np.int64),
            attack_types=None if self.attack is None else np.array(self.attacks, dtype=object),
        )
        return fm, emap


def clean_values(table: RawTable, schema: DatasetSchema) -> FeatureMatrix:
    """Turn an encoded string table into a finite float64 FeatureMatrix.

    NaN/dash/infinity cells become 0.0, Boolean tokens become 1.0/0.0, and
    the label column maps to {0,1}. Attack-type strings, when declared, are
    carried through unchanged for the per-attack detection-rate breakdown.
    """
    # the categorical cells already hold their codes' text: parse them as numbers
    builder = _MatrixBuilder(table.columns, replace(schema, categorical_columns=()))
    builder.add(table.rows, range(table.n_rows) if table.source_rows is None
                else table.source_rows)
    return builder.finish()[0]


def load_feature_matrix(
    path, schema: DatasetSchema
) -> tuple[FeatureMatrix, EncoderMap]:
    """Run the whole ingestion pipeline on one file, ``CHUNK_CELLS`` cells at a time.

    Each chunk is width-checked, stripped of its identifier cells,
    deduplicated against the digests of every earlier row and parsed
    before the next is read. After a bad cell the rest of the file is only
    width-checked, so that a ragged row anywhere wins.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = _read_header(reader, path, schema)
        columns, take = _kept_columns(header, schema)
        builder = _MatrixBuilder(columns, schema)
        digests = _DigestTable()
        n_read = 0
        error = None
        for start, chunk in _chunks(reader, len(header)):
            n_read += len(chunk)
            if error is None:
                rows = list(map(take, chunk))
                kept = _new_rows(rows, len(columns), digests)
                sources = range(start, start + len(rows))
                if len(kept) < len(rows):
                    rows, sources = [rows[r] for r in kept], [sources[r] for r in kept]
                try:
                    builder.add(rows, sources)
                except DataFormatError as exc:
                    error = exc
    if error is not None:
        raise error
    n_kept = len(digests)
    del digests  # freed before the matrix is assembled
    log.info("%s: read %d rows, dropped %d duplicate rows, kept %d",
             path, n_read, n_read - n_kept, n_kept)
    return builder.finish()


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
