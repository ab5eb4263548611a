"""Dataset schemas: which columns are identifiers, categoricals, Booleans and labels.

A schema tells the ingestion pipeline how to interpret one flow-record CSV
layout. Three public NIDS layouts ship built in, plus the layout written by
the synthetic generator. Custom layouts load from a JSON file.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from itertools import combinations

from .errors import SchemaError, build, read_json, string, strings, write_json


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
        try:
            roles = {}  # each column-list field, as a set
            for f in fields(self):
                value = getattr(self, f.name)
                if isinstance(f.default, tuple):  # json gives a list
                    object.__setattr__(self, f.name, strings(f.name, value, unique=False))
                    roles[f.name] = set(value)
                else:  # ingest strips each label cell before comparing it with a token
                    string(f.name, value, optional=f.default is None,
                           bare=f.name in ("positive_token", "benign_token"))
            groups = {**roles, "label": {self.label_column}}
            for a, b in combinations(groups, 2):
                if overlap := groups[a] & groups[b]:
                    raise ValueError(f"columns {sorted(overlap)} appear in both {a} and {b}")
            for role, columns in roles.items():
                if self.attack_type_column in columns:
                    raise ValueError(
                        f"attack_type_column {self.attack_type_column!r} is also in {role}")
        except ValueError as exc:
            raise SchemaError(f"schema {self.name!r}: {exc}") from None

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
    return build(DatasetSchema, read_json(path, SchemaError), path, "schema", SchemaError)


def schema_to_file(schema: DatasetSchema, path) -> None:
    doc = asdict(schema)  # json writes each column tuple as a list
    if schema.benign_token is None:
        del doc["benign_token"]
    write_json(path, doc)
