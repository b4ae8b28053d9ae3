"""Tests for metadata mining, NLIDB persistence, and the CLI."""

import json

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.core import (
    NLIDB,
    NLIDBConfig,
    build_knowledge_base,
    load_nlidb,
    mine_column_phrases,
    save_nlidb,
)
from repro.core.seq2seq.model import Seq2SeqConfig
from repro.data import generate_wikisql_style, load_jsonl, save_jsonl
from repro.errors import DataError, ModelError
from repro.text import WordEmbeddings

EMB = WordEmbeddings(dim=32, seed=0)


@pytest.fixture(scope="module")
def dataset():
    return generate_wikisql_style(seed=31, train_size=70, dev_size=12,
                                  test_size=0)


@pytest.fixture(scope="module")
def small_model(dataset):
    cfg = NLIDBConfig(classifier_epochs=1, seq2seq_epochs=4,
                      seq2seq=Seq2SeqConfig(hidden=24, attention_dim=24))
    return NLIDB(EMB, cfg).fit(dataset.train)


class TestMetadataMining:
    def test_mines_associated_phrases(self, dataset):
        mined = mine_column_phrases(dataset.train)
        assert mined
        columns = {m.column for m in mined}
        # Columns that appear in SQL should dominate the mined set.
        sql_columns = set()
        for e in dataset.train:
            sql_columns.add(e.query.select_column.lower())
            sql_columns.update(c.column.lower() for c in e.query.conditions)
        assert columns <= sql_columns

    def test_scores_and_support_positive(self, dataset):
        for mined in mine_column_phrases(dataset.train):
            assert mined.score >= 3.0
            assert mined.support >= 2

    def test_value_surfaces_excluded(self, dataset):
        mined = mine_column_phrases(dataset.train)
        value_surfaces = {str(c.value).lower() for e in dataset.train
                          for c in e.query.conditions}
        for m in mined:
            assert m.phrase not in value_surfaces

    def test_no_pure_stopword_phrases(self, dataset):
        from repro.text import is_stop_word
        for m in mine_column_phrases(dataset.train):
            tokens = m.phrase.split()
            assert not all(is_stop_word(t) for t in tokens)

    def test_build_knowledge_base(self, dataset):
        kb = build_knowledge_base(dataset.train)
        assert len(kb) > 0
        some_column = kb.columns()[0]
        assert kb.get(some_column).mention_phrases

    def test_empty_raises(self):
        with pytest.raises(DataError):
            mine_column_phrases([])

    def test_top_k_respected(self, dataset):
        from collections import Counter
        mined = mine_column_phrases(dataset.train, top_k=2)
        per_column = Counter(m.column for m in mined)
        assert max(per_column.values()) <= 2


class TestNLIDBPersistence:
    def test_roundtrip_identical_predictions(self, small_model, dataset,
                                             tmp_path):
        model_dir = tmp_path / "model"
        save_nlidb(small_model, model_dir)
        loaded = load_nlidb(model_dir)
        for example in dataset.dev[:4]:
            a = small_model.translate(example.question_tokens, example.table)
            b = loaded.translate(example.question_tokens, example.table)
            assert a.predicted_annotated_sql == b.predicted_annotated_sql

    def test_saved_files_exist(self, small_model, tmp_path):
        model_dir = tmp_path / "model"
        save_nlidb(small_model, model_dir)
        for name in ["config.json", "column_classifier.npz",
                     "value_classifier.npz", "translator.npz"]:
            assert (model_dir / name).exists()

    def test_config_json_readable(self, small_model, tmp_path):
        model_dir = tmp_path / "model"
        save_nlidb(small_model, model_dir)
        with open(model_dir / "config.json") as handle:
            config = json.load(handle)
        assert config["format_version"] == 1
        assert config["translator_kind"] == "AnnotatedSeq2Seq"

    def test_unfitted_save_raises(self, tmp_path):
        with pytest.raises(ModelError):
            save_nlidb(NLIDB(EMB), tmp_path / "x")

    def test_load_missing_dir_raises(self, tmp_path):
        with pytest.raises(ModelError):
            load_nlidb(tmp_path / "nothing")

    def test_bad_format_version_raises(self, small_model, tmp_path):
        model_dir = tmp_path / "model"
        save_nlidb(small_model, model_dir)
        config = json.loads((model_dir / "config.json").read_text())
        config["format_version"] = 99
        (model_dir / "config.json").write_text(json.dumps(config))
        with pytest.raises(ModelError):
            load_nlidb(model_dir)

    @staticmethod
    def _sql(translation):
        return (translation.query.to_sql() if translation.query is not None
                else f"<failed: {translation.error}>")

    def test_loads_config_with_retired_decoder_flags(self, small_model,
                                                     dataset, tmp_path):
        # Models saved before the float64 decoders were removed carry
        # two Seq2SeqConfig flags that no longer exist.
        model_dir = tmp_path / "model"
        save_nlidb(small_model, model_dir)
        config = json.loads((model_dir / "config.json").read_text())
        config["seq2seq"]["lockstep_beam"] = True
        config["seq2seq"]["arena_inference"] = True
        (model_dir / "config.json").write_text(json.dumps(config))
        loaded = load_nlidb(model_dir)
        for example in dataset.dev[:4]:
            a = small_model.translate(example.question_tokens, example.table)
            b = loaded.translate(example.question_tokens, example.table)
            assert self._sql(a) == self._sql(b)

    def test_unknown_seq2seq_key_still_raises(self, small_model, tmp_path):
        model_dir = tmp_path / "model"
        save_nlidb(small_model, model_dir)
        config = json.loads((model_dir / "config.json").read_text())
        config["seq2seq"]["no_such_field"] = 1
        (model_dir / "config.json").write_text(json.dumps(config))
        with pytest.raises(TypeError):
            load_nlidb(model_dir)


class TestCLI:
    def test_parser_commands(self):
        parser = build_parser()
        args = parser.parse_args(["generate", "--out", "x.jsonl"])
        assert args.command == "generate"

    def test_generate_command(self, tmp_path, capsys):
        out = tmp_path / "data.jsonl"
        code = main(["generate", "--out", str(out), "--size", "12"])
        assert code == 0
        assert len(load_jsonl(out)) == 12

    def test_query_and_evaluate_commands(self, small_model, dataset,
                                         tmp_path, capsys):
        model_dir = tmp_path / "model"
        save_nlidb(small_model, model_dir)
        data_file = tmp_path / "dev.jsonl"
        save_jsonl(dataset.dev[:4], data_file)

        code = main(["evaluate", "--data", str(data_file),
                     "--model-dir", str(model_dir)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Acc_qm" in out

        code = main(["query", "--model-dir", str(model_dir),
                     "--data", str(data_file),
                     "--question", dataset.dev[0].question, "--execute"])
        assert code == 0
        out = capsys.readouterr().out
        assert "annotated:" in out

    def test_query_empty_dataset_fails(self, small_model, tmp_path):
        model_dir = tmp_path / "model"
        save_nlidb(small_model, model_dir)
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        code = main(["query", "--model-dir", str(model_dir),
                     "--data", str(empty), "--question", "hi"])
        assert code == 1
