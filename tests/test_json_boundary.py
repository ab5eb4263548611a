"""The JSON input boundary: every file reader names the file, whatever is wrong with it."""

import json
import re

import pytest

from flowbench.errors import InputError, SchemaError
from flowbench.runner import ExperimentConfig, _load_completed, read_manifest
from flowbench.schema import DatasetSchema, schema_from_file
from flowbench.synth import SynthSpec

# (reader, the file it reads in a directory, the error it raises)
READERS = {
    "config": (ExperimentConfig.from_file, "cfg.json", InputError),
    "resume": (lambda path: _load_completed(path, "0" * 64), "manifest.json", InputError),
    "report": (lambda path: read_manifest(path.parent), "manifest.json", InputError),
    "synth-spec": (SynthSpec.from_file, "spec.json", InputError),
    "schema": (schema_from_file, "schema.json", SchemaError),
}


@pytest.mark.parametrize("text, message", [
    ('{"version": 1,', "malformed JSON: Expecting property name enclosed in double quotes"),
    ("[1, 2]", r"\w[\w ]* must be a JSON object, got \[1, 2\]"),
], ids=["malformed", "list"])
@pytest.mark.parametrize("reader", READERS)
def test_bad_document_names_the_file(tmp_path, reader, text, message):
    read, name, error = READERS[reader]
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(error, match=f"^{re.escape(str(path))}: {message}") as info:
        read(path)
    assert type(info.value) is error
    # code that catches ValueError still catches an InputError; a SchemaError is no ValueError
    assert isinstance(info.value, ValueError) == (error is InputError)


@pytest.mark.parametrize("missing", ["version", "config_digest", "config", "completed"])
@pytest.mark.parametrize("reader", ["resume", "report"])
def test_manifest_without_a_key_names_the_file_and_key(tmp_path, reader, missing):
    doc = {"version": 1, "config_digest": "0" * 64, "config": {}, "completed": {}}
    del doc[missing]
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=re.escape(
            f"{path}: missing manifest key(s) ['{missing}']")):
        READERS[reader][0](path)


@pytest.mark.parametrize("over, message", [
    ({"categorical_columns": "proto"},
     "categorical_columns must be a list of strings, got 'proto'"),
    ({"identifier_columns": ["id", 3]}, r"identifier_columns must be a list of strings"),
    ({"boolean_columns": [" flag"]}, "boolean_columns must hold non-empty names"),
    ({"label_column": 5}, "label_column must be a string, got 5"),
    ({"attack_type_column": ["kind"]},
     r"attack_type_column must be a string or null, got \['kind'\]"),
    ({"benign_token": 0}, "benign_token must be a string or null, got 0"),
    ({"name": None}, "name must be a string, got None"),
    # ingest strips each label cell, so neither token could ever match
    ({"positive_token": " attack"},
     "positive_token must be non-empty without surrounding whitespace, got ' attack'"),
    ({"benign_token": ""}, "benign_token must be non-empty without surrounding whitespace"),
], ids=["string-columns", "number-column", "padded-column", "number-label",
        "list-attack-type", "number-benign", "null-name", "padded-positive", "empty-benign"])
def test_schema_built_in_code_is_checked_like_a_file(over, message):
    with pytest.raises(SchemaError, match=f"^schema .*: {message}"):
        DatasetSchema(**{"name": "x", **over})


def test_schema_columns_given_as_lists_become_tuples():
    schema = DatasetSchema(name="x", identifier_columns=["id"], categorical_columns=["proto"])
    assert schema == DatasetSchema(name="x", identifier_columns=("id",),
                                   categorical_columns=("proto",))
    hash(schema)  # frozen, and hashable only with tuple fields

