"""The golden SQL answer key of the tier-1 session model.

The session fixtures in ``tests/conftest.py`` train one small NLIDB on
a fixed synthetic corpus; ``golden_sql.json`` holds what that model
answers on the 54 serving-corpus pairs: the SQL, or the recovery error
when the predicted annotated SQL does not recover.  Training is a pure
function of (data, seed), so the key is stable across hash seeds, and
``tests/pipeline/test_golden_sql.py`` checks every serving path against
it.  A change that must keep the SQL the same passes that test
unchanged; a change that is meant to move the SQL regenerates the key
and says why:

    make golden-sql        # = PYTHONPATH=src python -m tests.golden
"""

from __future__ import annotations

import json
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden_sql.json")


def serving_dataset():
    """The session corpus: dev is ≥ 50 (question, table) pairs spread
    round-robin over every training domain (≥ 3 domains)."""
    from repro.data import generate_wikisql_style
    return generate_wikisql_style(seed=23, train_size=60, dev_size=54,
                                  test_size=0, rows_per_table=6)


def train_session_model(train):
    """The small NLIDB every trained-model test shares."""
    from repro.core import NLIDB, NLIDBConfig
    from repro.core.seq2seq.model import Seq2SeqConfig
    from repro.text import WordEmbeddings
    cfg = NLIDBConfig(classifier_epochs=1, value_epochs=12,
                      seq2seq_epochs=4,
                      seq2seq=Seq2SeqConfig(hidden=24, attention_dim=24))
    return NLIDB(WordEmbeddings(dim=32, seed=0), cfg).fit(train)


def answer(translation) -> dict:
    """A translation's outcome as the key stores it."""
    return {"sql": (translation.query.to_sql()
                    if translation.query is not None else None),
            "error": translation.error}


def load() -> list[dict]:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)["pairs"]


def main() -> None:
    dataset = serving_dataset()
    nlidb = train_session_model(dataset.train)
    pairs = [{"question": " ".join(example.question_tokens),
              "table": example.table.name,
              **answer(nlidb.translate(example.question_tokens,
                                       example.table))}
             for example in dataset.dev]
    payload = {"regenerate": "make golden-sql", "pairs": pairs}
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1)
        handle.write("\n")
    failed = sum(1 for pair in pairs if pair["sql"] is None)
    print(f"wrote {len(pairs)} answers ({failed} recovery failures) "
          f"to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
