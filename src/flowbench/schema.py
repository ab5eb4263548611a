"""Dataset schemas: which columns are identifiers, categoricals, Booleans and labels.

A schema tells the ingestion pipeline how to interpret one flow-record CSV
layout. Three public NIDS layouts ship built in, plus the layout written by
the synthetic generator. Custom layouts load from a JSON file.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields

from .errors import SchemaError


@dataclass(frozen=True)
class DatasetSchema:
    """Column roles for one dataset layout.

    ``attack_type_column`` may be the label column, but no other role's:
    ingest would drop or encode it before reading the attack types.
    ``positive_token`` is the raw label value that marks an attack row.
    ``benign_token``, when set, takes precedence: every label value other
    than it is an attack (needed for files whose label column holds the
    attack-type names directly).
    """

    name: str
    identifier_columns: tuple[str, ...] = ()
    categorical_columns: tuple[str, ...] = ()
    boolean_columns: tuple[str, ...] = ()
    label_column: str = "label"
    attack_type_column: str | None = None
    positive_token: str = "1"
    benign_token: str | None = None

    def __post_init__(self):
        groups = {
            "identifier_columns": set(self.identifier_columns),
            "categorical_columns": set(self.categorical_columns),
            "boolean_columns": set(self.boolean_columns),
            "label": {self.label_column},
        }
        names = list(groups)
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                overlap = groups[a] & groups[b]
                if overlap:
                    raise SchemaError(
                        f"schema {self.name!r}: columns {sorted(overlap)} appear "
                        f"in both {a} and {b}"
                    )
        for role in ("identifier_columns", "categorical_columns", "boolean_columns"):
            if self.attack_type_column in groups[role]:
                raise SchemaError(
                    f"schema {self.name!r}: attack_type_column "
                    f"{self.attack_type_column!r} is also in {role}"
                )

    def declared_columns(self) -> list[str]:
        cols = list(self.identifier_columns)
        cols += list(self.categorical_columns)
        cols += list(self.boolean_columns)
        cols.append(self.label_column)
        if self.attack_type_column is not None:
            cols.append(self.attack_type_column)
        return cols

    def is_attack_label(self, raw: str) -> bool:
        if self.benign_token is not None:
            return raw != self.benign_token
        return raw == self.positive_token


UNSW_NB15 = DatasetSchema(
    name="unsw-nb15",
    identifier_columns=("id", "srcip", "dstip", "sport", "dport", "stime", "ltime"),
    categorical_columns=("proto", "service", "state"),
    boolean_columns=(),
    label_column="label",
    attack_type_column="attack_cat",
    positive_token="1",
)

TON_IOT = DatasetSchema(
    name="ton-iot",
    identifier_columns=("ts", "src_ip", "dst_ip", "src_port", "dst_port"),
    categorical_columns=(
        "proto", "service", "conn_state",
        "ssl_version", "ssl_cipher", "ssl_subject", "ssl_issuer",
        "dns_query", "http_method", "http_version",
        "http_resp_mime_types", "http_orig_mime_types",
        "http_uri", "http_user_agent", "weird_addl", "weird_name",
    ),
    boolean_columns=(
        "dns_AA", "dns_RD", "dns_RA", "dns_rejected",
        "ssl_resumed", "ssl_established", "weird_notice",
    ),
    label_column="label",
    attack_type_column="type",
    positive_token="1",
)

CSE_CIC_IDS2018 = DatasetSchema(
    name="cse-cic-ids2018",
    identifier_columns=("Flow ID", "Src IP", "Dst IP", "Src Port", "Dst Port", "Timestamp"),
    categorical_columns=(),
    boolean_columns=(),
    label_column="Label",
    attack_type_column="Label",
    benign_token="Benign",
)

SYNTHETIC = DatasetSchema(
    name="synthetic",
    identifier_columns=("flow_id", "src_ip", "dst_ip", "src_port", "dst_port", "ts"),
    categorical_columns=("proto", "service"),
    boolean_columns=("flag_a", "flag_b"),
    label_column="label",
    attack_type_column="attack_type",
    positive_token="attack",
)

BUILTIN_SCHEMAS = {s.name: s for s in (UNSW_NB15, TON_IOT, CSE_CIC_IDS2018, SYNTHETIC)}


def get_schema(name: str) -> DatasetSchema:
    try:
        return BUILTIN_SCHEMAS[name]
    except KeyError:
        raise SchemaError(
            f"unknown schema {name!r}; built-ins: {sorted(BUILTIN_SCHEMAS)}"
        ) from None


def schema_from_file(path) -> DatasetSchema:
    """Load a user schema from a JSON file of the documented key-value layout."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise SchemaError(f"{path}: schema file must hold a JSON object")
    defaults = {f.name: f.default for f in fields(DatasetSchema)}
    unknown = set(raw) - set(defaults)
    if unknown:
        raise SchemaError(f"{path}: unknown schema keys {sorted(unknown)}")
    for key, value in raw.items():
        if isinstance(defaults[key], tuple):
            if not isinstance(value, list) or not all(isinstance(c, str) for c in value):
                raise SchemaError(f"{path}: {key} must be a list of column names, got {value!r}")
            raw[key] = tuple(value)
        elif not isinstance(value, str) and not (value is None and defaults[key] is None):
            raise SchemaError(f"{path}: {key} must be a string, got {value!r}")
    try:
        return DatasetSchema(**raw)
    except (TypeError, SchemaError) as exc:
        raise SchemaError(f"{path}: {exc}") from None


def schema_to_file(schema: DatasetSchema, path) -> None:
    doc = asdict(schema)  # json writes each column tuple as a list
    if schema.benign_token is None:
        del doc["benign_token"]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
