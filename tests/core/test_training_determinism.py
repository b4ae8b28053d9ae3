"""Training is a pure function of (data, seed).

Two interpreters with different ``PYTHONHASHSEED`` values train the
same tiny models (about 30 pairs, one classifier and one seq2seq epoch)
on the WikiSQL-style corpus and on the role-typed corpus with the
extended grammar.  The classifier and seq2seq parameter digests and the
translated SQL must match: nothing in training may iterate a ``set`` or
otherwise depend on string hashing.  This also runs the classifier's
training forward end to end in a fresh process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)

SCRIPT = r"""
import hashlib, json
from repro.core import NLIDB, NLIDBConfig
from repro.core.seq2seq.model import Seq2SeqConfig
from repro.data import generate_role_typed, generate_wikisql_style
from repro.text import WordEmbeddings

def digest(module):
    h = hashlib.sha256()
    for name, array in sorted(module.state_dict().items()):
        h.update(name.encode())
        h.update(array.tobytes())
    return h.hexdigest()

out = {}
for name, extended, data in (
        ("wikisql", False, generate_wikisql_style(
            seed=5, train_size=30, dev_size=6, test_size=0)),
        ("role_typed", True, generate_role_typed(
            seed=41, train_size=30, dev_size=6, test_size=0))):
    config = NLIDBConfig(extended_grammar=extended, classifier_epochs=1,
                         value_epochs=2, seq2seq_epochs=1,
                         seq2seq=Seq2SeqConfig(hidden=16, attention_dim=16))
    model = NLIDB(WordEmbeddings(dim=32, seed=0), config).fit(data.train)
    sql = []
    for example in data.dev:
        query = model.translate(example.question_tokens, example.table).query
        sql.append(None if query is None else query.to_sql())
    out[name] = {"classifier": digest(model.annotator.column_classifier),
                 "seq2seq": digest(model.translator), "sql": sql}
print(json.dumps(out))
"""


def _train(hash_seed: str) -> subprocess.Popen:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.Popen([sys.executable, "-c", SCRIPT], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)


def test_trained_models_independent_of_hash_seed():
    runs = [_train(seed) for seed in ("0", "1")]
    results = []
    for run in runs:
        stdout, stderr = run.communicate(timeout=600)
        assert run.returncode == 0, stderr
        results.append(json.loads(stdout.strip().splitlines()[-1]))
    first, second = results
    for corpus in ("wikisql", "role_typed"):
        assert first[corpus]["classifier"] == second[corpus]["classifier"], \
            corpus
        assert first[corpus]["seq2seq"] == second[corpus]["seq2seq"], corpus
        assert first[corpus]["sql"] == second[corpus]["sql"], corpus
