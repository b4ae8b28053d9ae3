"""Session-wide trained-model fixtures.

One small NLIDB is trained per session and shared wherever a *real*
fitted model is needed — the serving differential/concurrency suites
and the pipeline trace suites — so the expensive training happens once.
Mutable per-test objects (services, injectors) live in the package
conftests instead.
"""

import pytest

from tests import golden


@pytest.fixture(scope="session")
def serving_dataset():
    # dev is the serving corpus: ≥ 50 (question, table) pairs spread
    # round-robin over every training domain (≥ 3 domains guaranteed,
    # asserted in the differential suite).  The recipe lives in
    # tests/golden.py, which regenerates the golden SQL key from it.
    return golden.serving_dataset()


@pytest.fixture(scope="session")
def nlidb(serving_dataset):
    return golden.train_session_model(serving_dataset.train)


@pytest.fixture(scope="session")
def corpus(serving_dataset):
    return serving_dataset.dev


@pytest.fixture(scope="session")
def direct_translations(nlidb, corpus):
    """Ground truth: the slow path, one direct call per pair."""
    return [nlidb.translate(e.question_tokens, e.table) for e in corpus]
