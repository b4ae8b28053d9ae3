"""Whole-pipeline persistence: save/load a trained :class:`NLIDB`.

A model directory contains::

    config.json            # NLIDBConfig + embeddings settings
    column_classifier.npz  # mention classifier parameters
    value_classifier.npz   # value detector parameters
    translator.npz         # seq2seq (or transformer) parameters

Only configuration and parameters are stored — the embeddings are
deterministic (hash-seeded), so a load reproduces the exact model.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict
from pathlib import Path

from repro.errors import ModelError
from repro.nn import load_module, save_module
from repro.text import WordEmbeddings

from repro.core.mention import ClassifierConfig
from repro.core.nlidb import NLIDB, NLIDBConfig
from repro.core.annotator import AnnotatorConfig
from repro.core.seq2seq.model import Seq2SeqConfig
from repro.core.seq2seq.transformer import TransformerConfig, TransformerTranslator

__all__ = ["save_nlidb", "load_nlidb"]

_FORMAT_VERSION = 1

#: Seq2SeqConfig fields that once chose between equivalent decoders.
#: Models saved while they existed still carry them; loading drops
#: exactly these, so any other unknown key still fails loudly.
_RETIRED_SEQ2SEQ_KEYS = ("lockstep_beam", "arena_inference")


def save_nlidb(model: NLIDB, directory: str | os.PathLike) -> None:
    """Persist a trained NLIDB to ``directory`` (created if missing)."""
    if not model._fitted:
        raise ModelError("cannot save an unfitted NLIDB")
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)

    translator_kind = type(model.translator).__name__
    config = {
        "format_version": _FORMAT_VERSION,
        "embeddings": {"dim": model.embeddings.dim,
                       "seed": model.embeddings.seed,
                       "group_weight": model.embeddings.group_weight},
        "nlidb": {
            "column_name_appending": model.config.column_name_appending,
            "header_encoding": model.config.header_encoding,
            "extended_grammar": model.config.extended_grammar,
            "classifier_epochs": model.config.classifier_epochs,
            "seq2seq_epochs": model.config.seq2seq_epochs,
            "seed": model.config.seed,
        },
        "seq2seq": asdict(model.config.seq2seq),
        "annotator": asdict(model.config.annotator),
        "classifier": asdict(model.annotator.column_classifier.config),
        "translator_kind": translator_kind,
    }
    if translator_kind == "TransformerTranslator":
        config["transformer"] = asdict(model.translator.config)
    with open(path / "config.json", "w", encoding="utf-8") as handle:
        json.dump(config, handle, indent=2)

    save_module(model.annotator.column_classifier,
                path / "column_classifier.npz")
    save_module(model.annotator.value_classifier.mlp,
                path / "value_classifier.npz")
    save_module(model.translator, path / "translator.npz")


def load_nlidb(directory: str | os.PathLike) -> NLIDB:
    """Load a previously saved NLIDB; it is immediately usable."""
    path = Path(directory)
    config_file = path / "config.json"
    if not config_file.exists():
        raise ModelError(f"no config.json in {path}")
    with open(config_file, encoding="utf-8") as handle:
        config = json.load(handle)
    if config.get("format_version") != _FORMAT_VERSION:
        raise ModelError(
            f"unsupported model format {config.get('format_version')!r}")

    emb_spec = config["embeddings"]
    embeddings = WordEmbeddings(dim=emb_spec["dim"], seed=emb_spec["seed"],
                                group_weight=emb_spec["group_weight"])

    classifier_config = ClassifierConfig(**{
        **config["classifier"],
        "char_widths": tuple(config["classifier"]["char_widths"]),
    })
    nlidb_config = NLIDBConfig(
        column_name_appending=config["nlidb"]["column_name_appending"],
        header_encoding=config["nlidb"]["header_encoding"],
        extended_grammar=config["nlidb"].get("extended_grammar", False),
        classifier_epochs=config["nlidb"]["classifier_epochs"],
        seq2seq_epochs=config["nlidb"]["seq2seq_epochs"],
        seed=config["nlidb"]["seed"],
        seq2seq=Seq2SeqConfig(**{
            key: value for key, value in config["seq2seq"].items()
            if key not in _RETIRED_SEQ2SEQ_KEYS}),
        annotator=AnnotatorConfig(**config["annotator"]),
        classifier=classifier_config,
    )

    translator = None
    if config["translator_kind"] == "TransformerTranslator":
        transformer_config = TransformerConfig(**config["transformer"])
        translator = TransformerTranslator(embeddings, transformer_config)
    model = NLIDB(embeddings, nlidb_config, translator=translator)

    load_module(model.annotator.column_classifier,
                path / "column_classifier.npz")
    load_module(model.annotator.value_classifier.mlp,
                path / "value_classifier.npz")
    load_module(model.translator, path / "translator.npz")

    # Mark components usable without retraining.
    model.annotator.column_classifier._trained = True
    model.annotator.value_classifier._trained = True
    model.annotator._fitted = True
    model.translator._fitted = True
    model._fitted = True
    return model
