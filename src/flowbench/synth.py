"""Synthetic flow-record CSVs that exercise every cleaning path.

The generator plants class-conditional Gaussian features with a
configurable mean separation, so downstream ranking quality (AUC) is
controllable: separation 0 gives chance-level scores, large separations
give near-perfect ones. It also injects duplicates, dirty cells
(nan/dash/Infinity), Boolean tokens, categorical strings and identifier
columns, and records exact bookkeeping so tests can assert on the counts.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .errors import build, integer, read_json, real, strings, write_json
from .ingest import write_csv
from .schema import SYNTHETIC, DatasetSchema

DIRTY_TOKENS = ("nan", "-", "Infinity", "-Infinity")


@dataclass
class SynthSpec:
    """Knobs for one generated file."""

    rows: int = 1000
    imbalance: float = 0.8          # fraction of class-0 (benign) rows
    n_informative: int = 4
    n_noise: int = 6
    n_categorical: int = 2
    n_boolean: int = 2
    duplicate_rate: float = 0.0     # fraction of rows that are copies
    dirty_rate: float = 0.0         # fraction of numeric cells replaced by tokens
    separation: float = 3.0         # class-mean gap of informative features, in sigmas
    attack_types: tuple[str, ...] = ("dos", "scan", "worm")
    attack_type_scales: tuple[float, ...] | None = None  # per-type separation factor

    def __post_init__(self):
        integer("rows", self.rows, minimum=4)
        for name in ("n_informative", "n_noise", "n_categorical", "n_boolean"):
            integer(name, getattr(self, name), minimum=0)
        for name in ("imbalance", "duplicate_rate", "dirty_rate", "separation"):
            real(name, getattr(self, name))
        self.attack_types = strings("attack_types", self.attack_types)
        if self.attack_type_scales is not None:
            if not isinstance(self.attack_type_scales, (list, tuple)):
                raise ValueError(
                    f"attack_type_scales must be a list, got {self.attack_type_scales!r}")
            self.attack_type_scales = tuple(
                real("attack_type_scales", s) for s in self.attack_type_scales)
        if not 0.0 < self.imbalance < 1.0:
            raise ValueError("imbalance must lie strictly between 0 and 1")
        if self.n_informative + self.n_noise == 0:
            raise ValueError("need at least one numeric feature")
        if not 0.0 <= self.duplicate_rate < 1.0:
            raise ValueError("duplicate_rate must lie in [0, 1)")
        if not 0.0 <= self.dirty_rate < 1.0:
            raise ValueError("dirty_rate must lie in [0, 1)")
        if self.separation < 0:
            raise ValueError("separation must be non-negative")
        if not self.attack_types:
            raise ValueError("need at least one attack type")
        if self.attack_type_scales is not None and len(self.attack_type_scales) != len(self.attack_types):
            raise ValueError("attack_type_scales must match attack_types")

    @classmethod
    def from_file(cls, path) -> "SynthSpec":
        """A spec from a JSON object of its fields; a bad key or value fails naming the file."""
        return build(cls, read_json(path), path, "synth spec")


@dataclass
class SynthResult:
    """Exact bookkeeping of what was written."""

    path: str
    rows_written: int = 0
    unique_rows: int = 0
    duplicate_rows: int = 0
    dirty_cells: int = 0
    class0_rows: int = 0
    class1_rows: int = 0
    per_attack_counts: dict = field(default_factory=dict)

    def to_json(self, path) -> None:
        write_json(path, asdict(self))


def schema_for(spec: SynthSpec) -> DatasetSchema:
    """``SYNTHETIC`` with the categorical and Boolean columns that this spec gives."""
    cats, bools = SYNTHETIC.categorical_columns, SYNTHETIC.boolean_columns
    cats += tuple(f"cat_{i}" for i in range(len(cats), spec.n_categorical))
    bools += tuple(f"flag_{i}" for i in range(len(bools), spec.n_boolean))
    return replace(SYNTHETIC, categorical_columns=cats[:spec.n_categorical],
                   boolean_columns=bools[:spec.n_boolean])


_PROTOS = ("tcp", "udp", "icmp")
_SERVICES = ("http", "dns", "ssh", "ftp", "-")


def synth_generate(spec: SynthSpec, seed: int, path) -> SynthResult:
    """Write one synthetic CSV; returns exact generation bookkeeping."""
    rng = np.random.default_rng(seed)
    schema = schema_for(spec)
    result = SynthResult(path=str(path))

    n_total = spec.rows
    n_dup = int(round(spec.duplicate_rate * n_total))
    n_base = n_total - n_dup
    n0 = int(round(spec.imbalance * n_base))
    n0 = min(max(n0, 1), n_base - 1)
    n1 = n_base - n0
    labels = np.concatenate([np.zeros(n0, dtype=int), np.ones(n1, dtype=int)])
    rng.shuffle(labels)

    scales = spec.attack_type_scales or tuple(1.0 for _ in spec.attack_types)
    type_idx = rng.integers(0, len(spec.attack_types), size=n_base)

    d_num = spec.n_informative + spec.n_noise
    numeric = rng.normal(0.0, 1.0, size=(n_base, d_num))
    row_sep = np.where(
        labels == 1, spec.separation * np.asarray(scales)[type_idx], 0.0
    )
    numeric[:, : spec.n_informative] += row_sep[:, None]

    # dirty cells planned up front so inserted duplicates stay byte-identical
    dirty_mask = rng.random((n_base, d_num)) < spec.dirty_rate

    cat_cols = schema.categorical_columns
    bool_cols = schema.boolean_columns
    header = list(schema.identifier_columns)
    num_names = [f"feat_{i:02d}" for i in range(d_num)]
    header += num_names + list(cat_cols) + list(bool_cols)
    header += [schema.label_column, schema.attack_type_column]

    def ident_cells(i):
        return [
            str(i),
            f"10.0.{rng.integers(0, 256)}.{rng.integers(0, 256)}",
            f"192.168.{rng.integers(0, 256)}.{rng.integers(0, 256)}",
            str(int(rng.integers(1024, 65536))),
            str(int(rng.integers(1, 1024))),
            f"{1600000000 + int(rng.integers(0, 10_000_000))}",
        ]

    base_rows = []
    for i in range(n_base):
        cells = ident_cells(i)
        for j in range(d_num):
            if dirty_mask[i, j]:
                cells.append(DIRTY_TOKENS[int(rng.integers(0, len(DIRTY_TOKENS)))])
                result.dirty_cells += 1
            else:
                cells.append(f"{numeric[i, j]:.6f}")
        for c, _ in enumerate(cat_cols):
            vocab = _PROTOS if c == 0 else _SERVICES
            cells.append(vocab[int(rng.integers(0, len(vocab)))])
        for _ in bool_cols:
            cells.append("T" if rng.random() < 0.5 else "F")
        if labels[i] == 1:
            cells.append(schema.positive_token)
            cells.append(spec.attack_types[type_idx[i]])
        else:
            cells.append("benign")
            cells.append("benign")
        base_rows.append(cells)

    # base rows must be distinct post-identifier-drop for the duplicate
    # bookkeeping to stay exact; fails only on pathological specs (all
    # cells dirty with almost no numeric features)
    n_ident = len(schema.identifier_columns)
    distinct = {tuple(cells[n_ident:]) for cells in base_rows}
    if len(distinct) != n_base:
        raise ValueError(
            "generated rows collide; lower dirty_rate or add numeric features"
        )

    result.unique_rows = n_base
    result.class0_rows = int(n0)
    result.class1_rows = int(n1)
    for t, name in enumerate(spec.attack_types):
        result.per_attack_counts[name] = int(((type_idx == t) & (labels == 1)).sum())

    # byte-identical copies of existing rows; any one of a copy family
    # surviving deduplicate is equivalent, so shuffling below is safe
    rows = list(base_rows)
    if n_dup:
        src = rng.integers(0, n_base, size=n_dup)
        for s in src:
            rows.append(list(base_rows[s]))
        result.duplicate_rows = n_dup
    rng.shuffle(rows)

    result.rows_written = len(rows)
    write_csv(path, header, rows)
    return result
