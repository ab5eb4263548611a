import json
import re

import numpy as np
import pytest

from flowbench.ingest import deduplicate, drop_identifiers, load_csv, load_feature_matrix
from flowbench.schema import SYNTHETIC
from flowbench.synth import SynthSpec, schema_for, synth_generate


class TestSynthSpec:
    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            SynthSpec(rows=2)
        with pytest.raises(ValueError):
            SynthSpec(imbalance=1.5)
        with pytest.raises(ValueError):
            SynthSpec(duplicate_rate=1.0)
        with pytest.raises(ValueError):
            SynthSpec(n_informative=0, n_noise=0)

    def test_from_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"rows": 50, "separation": 1.0,
                                    "attack_types": ["dos"]}))
        spec = SynthSpec.from_file(path)
        assert spec.rows == 50
        assert spec.attack_types == ("dos",)

    @pytest.mark.parametrize("doc, message", [
        ({"rows": 100, "colour": 3}, r"unknown synth spec key\(s\) \['colour'\]"),
        ([1, 2], r"synth spec must be a JSON object, got \[1, 2\]"),
        ({"rows": "many"}, r"rows must be an integer, got 'many'"),
        ({"separation": "wide"}, r"separation must be a real number, got 'wide'"),
        ({"attack_types": "dos"}, r"attack_types must be a list of strings, got 'dos'"),
        ({"attack_type_scales": [1.0, None, 2.0]},
         r"attack_type_scales must be a real number, got None"),
        ({"n_boolean": -1}, r"n_boolean must be at least 0, got -1"),
        ({"attack_types": ["dos", "dos"]},
         r"attack_types must be a list without repeats, got \['dos', 'dos'\]"),
    ], ids=["unknown-key", "not-an-object", "string-rows", "string-separation",
            "string-attack-types", "null-scale", "negative-count", "repeated-attack-type"])
    def test_from_file_names_the_file_and_key(self, tmp_path, doc, message):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}$"):
            SynthSpec.from_file(path)

    @pytest.mark.parametrize("attack_types, message", [
        ((" dos", "scan"), "hold non-empty names without surrounding whitespace"),
        (("dos\t", "scan"), "hold non-empty names without surrounding whitespace"),
        (("", "scan"), "hold non-empty names without surrounding whitespace"),
        (("dos", "dos", "scan"), "be a list without repeats"),
    ], ids=["leading-space", "trailing-tab", "empty", "repeat"])
    def test_attack_types_that_would_miscount_rejected(self, attack_types, message):
        # ingest strips each attack-type cell, and per_attack_counts is keyed by name:
        # " dos" would be recorded under a name the loaded file does not hold, and a
        # repeat would record only its last entry's rows
        with pytest.raises(ValueError, match=f"^attack_types must {message}"):
            SynthSpec(attack_types=attack_types)


class TestSchemaFor:
    def test_default_spec_gives_the_builtin_layout(self):
        assert schema_for(SynthSpec()) == SYNTHETIC

    def test_columns_follow_the_counts(self):
        schema = schema_for(SynthSpec(n_categorical=3, n_boolean=1))
        assert schema.categorical_columns == ("proto", "service", "cat_2")
        assert schema.boolean_columns == ("flag_a",)
        assert schema_for(SynthSpec(n_categorical=0)).categorical_columns == ()


class TestGenerate:
    def test_duplicate_bookkeeping_exact(self, tmp_path):
        spec = SynthSpec(rows=1000, duplicate_rate=0.1)
        path = tmp_path / "d.csv"
        result = synth_generate(spec, seed=3, path=path)
        assert result.duplicate_rows == 100
        table = load_csv(path, schema_for(spec))
        table = drop_identifiers(table, schema_for(spec))
        deduped = deduplicate(table)
        assert table.n_rows - deduped.n_rows == result.duplicate_rows

    def test_imbalance_within_one_sample(self, tmp_path):
        spec = SynthSpec(rows=1000, imbalance=0.9)
        result = synth_generate(spec, seed=0, path=tmp_path / "i.csv")
        assert abs(result.class0_rows - 900) <= 1

    def test_loads_through_pipeline(self, tmp_path):
        spec = SynthSpec(rows=300, duplicate_rate=0.05, dirty_rate=0.02)
        path = tmp_path / "p.csv"
        result = synth_generate(spec, seed=1, path=path)
        fm, emap = load_feature_matrix(path, schema_for(spec))
        assert fm.n_samples == result.unique_rows
        assert np.isfinite(fm.values).all()
        assert set(np.unique(fm.labels)) == {0, 1}
        assert "proto" in emap.maps
        # identifiers dropped, label/attack extracted
        expected_features = (
            spec.n_informative + spec.n_noise + spec.n_categorical + spec.n_boolean
        )
        assert fm.n_features == expected_features

    def test_attack_types_needing_quotes_load_as_written(self, tmp_path):
        spec = SynthSpec(rows=400, imbalance=0.5, duplicate_rate=0.05,
                         attack_types=("dos, slow", 'say "hi"', "port scan"))
        path = tmp_path / "quoted.csv"
        result = synth_generate(spec, seed=4, path=path)
        fm, _ = load_feature_matrix(path, schema_for(spec))
        assert b'"dos, slow"' in path.read_bytes()
        assert fm.n_samples == result.unique_rows
        assert (fm.n_samples - fm.labels.sum(), fm.labels.sum()) == (
            result.class0_rows, result.class1_rows)
        attacks = fm.attack_types[fm.labels == 1]
        assert {t: int((attacks == t).sum()) for t in spec.attack_types} == \
            result.per_attack_counts

    def test_rows_end_in_crlf(self, tmp_path):
        path = tmp_path / "f.csv"
        synth_generate(SynthSpec(rows=20), seed=0, path=path)
        lines = path.read_bytes().split(b"\r\n")
        assert len(lines) == 22 and lines[-1] == b""
        assert not any(b"\n" in line for line in lines)

    def test_dirty_cells_counted(self, tmp_path):
        spec = SynthSpec(rows=500, dirty_rate=0.05)
        result = synth_generate(spec, seed=2, path=tmp_path / "dirty.csv")
        expected = 0.05 * 500 * (spec.n_informative + spec.n_noise)
        sigma = np.sqrt(expected * 0.95)
        assert abs(result.dirty_cells - expected) < 5 * sigma

    def test_deterministic(self, tmp_path):
        spec = SynthSpec(rows=200)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        synth_generate(spec, seed=7, path=a)
        synth_generate(spec, seed=7, path=b)
        assert a.read_bytes() == b.read_bytes()

    def test_attack_type_counts_recorded(self, tmp_path):
        spec = SynthSpec(rows=400, imbalance=0.5)
        result = synth_generate(spec, seed=5, path=tmp_path / "t.csv")
        assert sum(result.per_attack_counts.values()) == result.class1_rows

    def test_zero_separation_gives_chance_auc(self, tmp_path):
        from flowbench.classifiers import ClassifierSpec, fit_predict
        from flowbench.evaluate import roc_auc
        from flowbench.preprocess import stratified_split

        spec = SynthSpec(rows=2000, imbalance=0.5, separation=0.0,
                         n_informative=4, n_noise=4)
        path = tmp_path / "flat.csv"
        synth_generate(spec, seed=6, path=path)
        fm, _ = load_feature_matrix(path, schema_for(spec))
        train, test = stratified_split(fm, 0.3, seed=0)
        probs = fit_predict(ClassifierSpec(kind="nb"), train, test)
        _, auc = roc_auc(probs, test.labels)
        assert abs(auc - 0.5) < 0.05

    def test_ten_k_rows_load(self, tmp_path):
        from flowbench.ingest import load_csv

        spec = SynthSpec(rows=10_000, imbalance=0.85)
        path = tmp_path / "big.csv"
        synth_generate(spec, seed=7, path=path)
        table = load_csv(path, schema_for(spec))
        assert table.n_rows == 10_000
