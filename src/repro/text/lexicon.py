"""Lexical knowledge: synonym groups, column mention phrases, describing
expressions.

This plays two roles, mirroring Section II of the paper:

* the **synonym groups** structure the word-embedding space
  (:mod:`repro.text.embeddings`) so that semantically related words are
  close — the property the paper gets from pre-trained GloVe;
* :class:`ColumnKnowledge` / :class:`KnowledgeBase` hold the optional
  *natural-language-expressions-specific-to-a-database* metadata: the
  mention phrases ``P_c`` and describing expressions ``D_c`` that supply
  extra mention candidates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.text.tokenizer import tokenize

__all__ = [
    "SYNONYM_GROUPS",
    "PHRASE_SYNONYMS",
    "synonym_group_of",
    "phrase_group_of",
    "stem",
    "ColumnKnowledge",
    "KnowledgeBase",
]

# Words in one group receive nearby embedding vectors.  Groups cover the
# domains used by the synthetic dataset generators plus the paper's own
# running examples (golfer/player, population/"people live in", ...).
SYNONYM_GROUPS: list[list[str]] = [
    # people and roles
    ["player", "athlete", "golfer", "sportsman", "competitor", "contestant"],
    ["actor", "actress", "star", "cast"],
    ["director", "filmmaker", "directed", "direct", "directs", "directing"],
    ["driver", "racer", "pilot"],
    ["singer", "artist", "musician", "vocalist", "performer"],
    ["author", "writer", "novelist"],
    ["coach", "manager", "trainer"],
    ["president", "leader", "head"],
    ["doctor", "physician"],
    ["chef", "cook"],
    # places
    ["venue", "location", "place", "site", "stadium", "arena"],
    ["city", "town", "municipality"],
    ["county", "region", "district", "area"],
    ["country", "nation", "state"],
    ["restaurant", "diner", "eatery"],
    ["address", "street"],
    # time
    ["date", "day", "when"],
    ["year", "season"],
    ["time", "duration", "length"],
    ["month"],
    # measures
    ["population", "inhabitants", "residents", "people"],
    ["price", "cost", "costs", "priced", "fee", "charge"],
    ["salary", "wage", "pay", "earnings", "earn", "earns", "earned"],
    ["score", "scored", "scores", "points", "result"],
    ["rank", "position", "standing"],
    ["height", "tall"],
    ["weight", "heavy"],
    ["age", "old"],
    ["size", "capacity"],
    ["distance", "far"],
    ["rating", "grade", "stars"],
    ["attendance", "crowd", "spectators"],
    ["speed", "pace", "fast"],
    ["goals", "touchdowns"],
    ["budget", "funding"],
    ["revenue", "sales", "income"],
    # events and works
    ["film", "movie", "picture"],
    ["song", "track", "single", "tune"],
    ["album", "record", "release", "released", "recorded"],
    ["book", "novel", "title"],
    ["game", "match", "fixture", "contest"],
    ["competition", "tournament", "championship", "event"],
    ["mission", "flight", "launch"],
    ["election", "elections", "elect", "elected", "vote", "votes",
     "ballots", "poll"],
    ["award", "prize", "nomination", "nominated"],
    ["team", "club", "side", "franchise"],
    ["party", "affiliation"],
    ["college", "university", "school"],
    ["nationality", "citizenship"],
    ["opponent", "rival", "adversary"],
    ["genre", "category", "type", "kind", "style"],
    ["cuisine", "food", "dishes"],
    ["recipe", "dish", "meal"],
    ["ingredient", "component"],
    ["calories", "energy"],
    ["bedrooms", "rooms"],
    ["rent", "lease"],
    ["candidate", "nominee", "contender"],
    ["winner", "champion", "victor", "win", "won", "winning", "wins"],
    # verbs of relations
    ["play", "played", "plays", "playing"],
    ["live", "lives", "lived", "living", "reside", "resides"],
    ["sing", "sang", "sung", "sings"],
    ["write", "wrote", "written", "writes"],
    ["serve", "serves", "served", "serving"],
    ["hold", "held", "holds"],
    ["open", "opened", "opens", "opening"],
    ["locate", "located"],
    ["schedule", "scheduled"],
    ["graduate", "graduated"],
    ["weigh", "weighs", "weighed"],
]

_WORD_TO_GROUP: dict[str, int] = {}
for _gid, _group in enumerate(SYNONYM_GROUPS):
    for _word in _group:
        # First assignment wins; later duplicates keep their original group.
        _WORD_TO_GROUP.setdefault(_word, _gid)


# Multi-token phrase synonym groups.  Deliberately separate from
# SYNONYM_GROUPS: word groups shape the embedding space, while phrase
# groups only drive phrase-level paraphrasing (the lexicon side of the
# multi-token paraphrase attack).  Each group is meaning-preserving —
# comparison-cue phrases stay within one comparison direction, so
# substituting inside a group never changes the gold SQL.
PHRASE_SYNONYMS: list[list[str]] = [
    ["how many", "what number of"],
    ["more than", "greater than"],
    ["less than", "fewer than"],
    ["other than", "apart from", "different from"],
    ["for each", "for every"],
    ["year won", "winning year", "year of victory"],
    ["directed by", "made by"],
    ["kind of film", "film genre"],
    ["record company", "music label"],
    ["crew size", "number of astronauts"],
    ["launch date", "lift off date"],
    ["length in days", "duration in days"],
    ["number of votes", "vote count"],
    ["winning driver", "driver who won"],
    ["hire year", "year hired", "joining year"],
    ["staff member", "member of staff"],
    ["page count", "number of pages"],
    ["finishing time", "time seconds"],
    ["english name", "english title"],
    ["irish name", "irish title"],
    ["number of residents", "people live in", "resident count"],
    ["prize money", "payout amount"],
    ["home port", "port of registry"],
    ["head physician", "chief doctor", "lead surgeon"],
    ["number of beds", "bed count"],
    ["founding year", "year established"],
    ["mirror size", "mirror diameter"],
    ["first light", "commissioning year"],
    ["host nation", "country of operation"],
]

_PHRASE_TO_GROUP: dict[str, int] = {}
for _pgid, _pgroup in enumerate(PHRASE_SYNONYMS):
    for _phrase in _pgroup:
        _PHRASE_TO_GROUP.setdefault(_phrase, _pgid)


def phrase_group_of(phrase: str) -> int | None:
    """Group id for a multi-token phrase (exact lower-cased match)."""
    return _PHRASE_TO_GROUP.get(phrase.lower())

def stem(word: str) -> str:
    """Very light suffix-stripping stemmer.

    Rules apply sequentially (plural → participle → final "e") so that
    inflected pairs land on the same stem: "candidates" and "candidate"
    both become "candidat"; "directed" and "direct" both become
    "direct".  Enough for the paper's case studies without a full
    morphological analyzer.
    """
    w = word.lower()
    if len(w) > 4:
        if w.endswith("ies"):
            w = w[:-3] + "y"
        elif w.endswith("sses"):
            w = w[:-2]
        elif w.endswith("es") and w[-3] in "sxz":
            w = w[:-2]
        elif w.endswith("s") and not w.endswith("ss"):
            w = w[:-1]
    for suffix in ("ing", "ed", "er"):
        if w.endswith(suffix) and len(w) - len(suffix) >= 3:
            w = w[: len(w) - len(suffix)]
            break
    if w.endswith("e") and len(w) >= 5:
        w = w[:-1]
    return w


def synonym_group_of(word: str) -> int | None:
    """Group id for a word, trying the surface form then its stem."""
    word = word.lower()
    if word in _WORD_TO_GROUP:
        return _WORD_TO_GROUP[word]
    stemmed = stem(word)
    if stemmed in _WORD_TO_GROUP:
        return _WORD_TO_GROUP[stemmed]
    # Stems of group members also match ("directed" → "direct").
    return _STEM_TO_GROUP.get(stemmed)


_STEM_TO_GROUP: dict[str, int] = {}
for _word, _gid in _WORD_TO_GROUP.items():
    _STEM_TO_GROUP.setdefault(stem(_word), _gid)


@dataclass
class ColumnKnowledge:
    """Database-specific natural language metadata for one column.

    ``mention_phrases`` is the paper's ``P_c`` (phrases that mention the
    column, e.g. "how many people live in" for Population);
    ``describing_expressions`` is ``D_c`` (expressions that describe the
    column's values, e.g. "soar" for Price).
    """

    mention_phrases: list[str] = field(default_factory=list)
    describing_expressions: list[str] = field(default_factory=list)


class KnowledgeBase:
    """Optional per-column language metadata (Section II).

    The knowledge base is *orthogonal* to the learned models: it only
    adds extra mention candidates, exactly as the paper describes.
    """

    def __init__(self) -> None:
        self._columns: dict[str, ColumnKnowledge] = {}

    def add(self, column: str, mention_phrases: list[str] | None = None,
            describing_expressions: list[str] | None = None) -> None:
        """Register (or extend) metadata for ``column``.

        Phrases that tokenize to nothing are dropped: they would match
        the empty span anywhere in a question.
        """
        entry = self._columns.setdefault(column.lower(), ColumnKnowledge())
        entry.mention_phrases.extend(
            p for p in mention_phrases or [] if tokenize(p))
        entry.describing_expressions.extend(
            p for p in describing_expressions or [] if tokenize(p))

    def get(self, column: str) -> ColumnKnowledge:
        """Metadata for ``column`` (empty knowledge if none registered)."""
        return self._columns.get(column.lower(), ColumnKnowledge())

    def columns(self) -> list[str]:
        """All columns with registered knowledge."""
        return sorted(self._columns)

    def __len__(self) -> int:
        return len(self._columns)
