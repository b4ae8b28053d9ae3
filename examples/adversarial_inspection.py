"""Inspect the adversarial text method (Section IV-C / Figures 5, 7).

Trains the column-mention classifier, then plots (as ASCII bars) the
per-word influence levels ``I(w) = α‖dL/dE_word(w)‖ + β‖dL/dE_char(w)‖``
used to locate column mentions — the paper's Figure 5/7 visualization.

Run:  python examples/adversarial_inspection.py
"""

from repro.core.annotator import Annotator
from repro.core.mention import compute_influence, locate_mention
from repro.data import generate_wikisql_style
from repro.text import WordEmbeddings, tokenize


def bar(value: float, peak: float, width: int = 30) -> str:
    return "#" * max(1, int(width * value / peak)) if peak else ""


def main() -> None:
    dataset = generate_wikisql_style(seed=0, train_size=150, dev_size=0,
                                     test_size=0)
    annotator = Annotator(WordEmbeddings(dim=32))
    annotator.fit(dataset.train, classifier_epochs=3, verbose=True)
    classifier = annotator.column_classifier

    cases = [
        ("winning driver", "which driver won the boston grand prix ?"),
        ("player", "who is the golfer that golfs for scotland ?"),
        ("date", "when did the denver eagles play at home ?"),
        ("year", "what competition did he enter in 2008 ?"),
    ]
    for column, question in cases:
        tokens = tokenize(question)
        prob = classifier.predict_proba(tokens, tokenize(column))
        [profile] = compute_influence(classifier, [(tokens, tokenize(column))],
                                      alpha=1.0, beta=1.0)
        start, end = locate_mention(profile)
        peak = float(profile.combined.max())
        print(f"\ncolumn {column!r}  P(mentioned)={prob:.2f}  "
              f"located span: {' '.join(tokens[start:end])!r}")
        for i, token in enumerate(tokens):
            w = bar(float(profile.word_influence[i]), peak)
            c = bar(float(profile.char_influence[i]), peak)
            marker = "<-- mention" if start <= i < end else ""
            print(f"  {token:<12} word {w:<30} char {c:<30} {marker}")


if __name__ == "__main__":
    main()
