"""Typed, seeded adversarial-attack generators.

Each attack perturbs one evaluation :class:`~repro.data.records.Example`
into an :class:`AttackVariant` carrying the perturbed question *and* the
gold query that question should map to (identical to the original for
meaning-preserving attacks, updated for counterfactual value swaps).
Whether a variant actually enters a suite is decided downstream by the
executor-backed gate in :mod:`repro.eval.validity`.

Determinism contract (mirroring :class:`repro.serving.faults.
FaultInjector`): every random decision flows from a per-(attack,
example) :class:`numpy.random.Generator` seeded as ``[seed,
attack_index, example_index]``, so the same seed over the same corpus
produces a byte-identical variant set — across runs, machines, and
attack-object instances.

The families map onto the paper's question-understanding challenges
(Section III) and the Section IV-C influence method, plus a
character-level typo family for surface-form robustness; see
DESIGN.md §8 for the full mapping.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from repro.data.records import Example
from repro.sqlengine import Condition, Operator, Query, Table
from repro.text.lexicon import PHRASE_SYNONYMS, SYNONYM_GROUPS, synonym_group_of
from repro.text.stopwords import is_stop_word
from repro.text.tokenizer import tokenize

from repro.core.mention.adversarial import compute_influence

__all__ = [
    "AttackVariant", "Attack", "ParaphraseAttack", "PhraseParaphraseAttack",
    "ValueSwapAttack", "DistractorColumnAttack", "InfluenceAttack",
    "TypoAttack", "AttackSuite", "standard_attacks", "generate_suite",
]

#: Words that cue the aggregate or comparison operator of the gold SQL
#: ("highest" → MAX, "over" → >).  Attacks never remove or rewrite
#: them: doing so would change the question's meaning while the variant
#: keeps the original gold query, making the evaluation unfair.
OPERATOR_CUES = frozenset({
    "highest", "largest", "most", "lowest", "smallest", "fewest",
    "total", "sum", "average", "mean", "count", "many", "much",
    "over", "above", "more", "below", "under", "less", "fewer",
})


@dataclass(frozen=True)
class AttackVariant:
    """One perturbed question plus the gold query it should map to."""

    attack: str
    tokens: tuple[str, ...]
    query: Query
    table: Table
    origin_tokens: tuple[str, ...]
    origin_query: Query
    note: str = ""

    @property
    def question(self) -> str:
        return " ".join(self.tokens)

    @property
    def preserves_query(self) -> bool:
        """Whether the perturbation left the gold query unchanged."""
        return (self.query is self.origin_query
                or self.query.canonical() == self.origin_query.canonical())

    def signature(self) -> tuple:
        """Byte-comparable identity used by the determinism tests."""
        return (self.attack, self.question, self.query.to_sql(),
                self.table.name, self.note)


class Attack:
    """Base class: one family of question perturbations.

    Subclasses implement :meth:`perturb`, returning ``None`` when the
    example offers no applicable perturbation (e.g. no synonym to
    substitute).  All randomness must come from the passed ``rng``.
    """

    name: str = "attack"

    def perturb(self, example: Example,
                rng: np.random.Generator) -> AttackVariant | None:
        raise NotImplementedError

    def _variant(self, example: Example, tokens: list[str],
                 query: Query | None = None, note: str = "") -> AttackVariant:
        return AttackVariant(
            attack=self.name, tokens=tuple(tokens),
            query=query if query is not None else example.query,
            table=example.table,
            origin_tokens=tuple(example.question_tokens),
            origin_query=example.query, note=note)


def _value_positions(example: Example) -> set[int]:
    return {i for m in example.mentions if m.kind == "value"
            for i in range(m.start, m.end)}


def _mention_positions(example: Example) -> set[int]:
    return {i for m in example.mentions for i in range(m.start, m.end)}


def _pick(rng: np.random.Generator, items: list):
    """rng.choice without numpy scalar coercion (keeps cell types)."""
    return items[int(rng.integers(0, len(items)))]


def _value_surface(value) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


class ParaphraseAttack(Attack):
    """Substitute a question word with a lexicon synonym (challenge 1).

    Prefers tokens inside gold *column-mention* spans — the paraphrased
    mentions the paper's annotator must resolve non-exactly — and falls
    back to any content word with a synonym group.  Value spans and
    operator cue words are never touched, so the gold query is
    preserved by construction.
    """

    name = "paraphrase"

    def _substitutable(self, token: str) -> bool:
        return (not is_stop_word(token) and token not in OPERATOR_CUES
                and synonym_group_of(token) is not None)

    def perturb(self, example, rng):
        tokens = list(example.question_tokens)
        blocked = _value_positions(example)
        column_positions = sorted(
            {i for m in example.mentions if m.kind == "column"
             for i in range(m.start, m.end)} - blocked)
        candidates = [i for i in column_positions
                      if self._substitutable(tokens[i])]
        if not candidates:
            candidates = [i for i in range(len(tokens))
                          if i not in blocked
                          and self._substitutable(tokens[i])]
        rng.shuffle(candidates)
        for position in candidates:
            group = SYNONYM_GROUPS[synonym_group_of(tokens[position])]
            alternatives = [w for w in group
                            if w != tokens[position] and " " not in w]
            if not alternatives:
                continue
            replacement = _pick(rng, alternatives)
            note = f"{tokens[position]!r} -> {replacement!r} @ {position}"
            tokens[position] = replacement
            return self._variant(example, tokens, note=note)
        return None


class ValueSwapAttack(Attack):
    """Swap an equality condition's value for another cell (challenge 4).

    Both the question surface *and* the gold query are updated, so a
    robust model must track the new value rather than memorize the
    original pair.  The replacement is drawn from the same column of
    the table, guaranteeing the swapped gold query has a non-empty
    denotation for the validity gate to confirm.
    """

    name = "value_swap"

    def perturb(self, example, rng):
        table = example.table
        spans = {}
        for m in example.mentions:
            if m.kind == "value" and m.start < m.end:
                spans.setdefault(m.column.lower(), m)
        eligible = []
        for ci, cond in enumerate(example.query.conditions):
            span = spans.get(cond.column.lower())
            if cond.operator is not Operator.EQ or span is None:
                continue
            column_cells = [row[table.column_index(cond.column)]
                            for row in table.rows]
            alternatives = sorted(
                {_value_surface(v): v for v in column_cells
                 if _value_surface(v) != _value_surface(cond.value)}.items())
            if alternatives:
                eligible.append((ci, cond, span, alternatives))
        if not eligible:
            return None
        ci, cond, span, alternatives = _pick(rng, eligible)
        surface, new_value = _pick(rng, alternatives)
        tokens = list(example.question_tokens)
        tokens[span.start:span.end] = tokenize(surface)
        conditions = list(example.query.conditions)
        conditions[ci] = Condition(cond.column, cond.operator, new_value)
        query = Query(select_column=example.query.select_column,
                      aggregate=example.query.aggregate,
                      conditions=conditions)
        note = (f"{cond.column}: {_value_surface(cond.value)!r} -> "
                f"{surface!r}")
        return self._variant(example, tokens, query=query, note=note)


class DistractorColumnAttack(Attack):
    """Append a phrase naming a column the query does not use.

    A brittle matcher latches onto the distractor column name; the
    gold query is untouched, so the phrase must be ignored.  Mirrors
    the paper's observation that column mentions compete for the same
    surface words (Figure 7's "win"/"winning driver" confusion).
    """

    name = "distractor"

    _TEMPLATES = (
        "regardless of the {column}",
        "no matter what the {column} is",
        "ignoring the {column}",
        "whatever the {column} may be",
    )

    def perturb(self, example, rng):
        query = example.query
        used = {query.select_column.lower()}
        # where_leaves() walks the full WHERE tree, so extended-sketch
        # queries (OR/NOT) protect their condition columns too; for
        # legacy queries it is exactly the flat conditions list.
        used.update(c.column.lower() for c in query.where_leaves())
        if query.group_by is not None:
            used.add(query.group_by.lower())
        if query.having is not None:
            used.add(query.having.column.lower())
        if query.order_by is not None:
            used.add(query.order_by.column.lower())
        unused = [name for name in example.table.column_names
                  if name.lower() not in used]
        if not unused:
            return None
        column = _pick(rng, unused)
        template = _pick(rng, list(self._TEMPLATES))
        phrase = tokenize(template.format(column=column))
        tokens = list(example.question_tokens)
        if tokens and tokens[-1] == "?":
            tokens = tokens[:-1] + phrase + ["?"]
        else:
            tokens = tokens + phrase
        return self._variant(example, tokens,
                             note=f"distractor column {column!r}")


class InfluenceAttack(Attack):
    """Drop the most influential word outside the gold mention spans.

    Reuses the Section IV-C fast-gradient machinery
    (:func:`repro.core.mention.adversarial.compute_influence`): the
    word whose embedding gradient is largest w.r.t. the select column's
    mention loss is the one the classifier leans on hardest — removing
    it is the strongest single-token attack the model's own gradients
    can propose.  Gold spans and operator cues are protected so the
    question still maps to the unchanged gold query.
    """

    name = "influence_drop"

    def __init__(self, classifier):
        self.classifier = classifier

    def perturb(self, example, rng):
        if self.classifier is None \
                or not getattr(self.classifier, "_trained", False):
            return None
        tokens = list(example.question_tokens)
        if len(tokens) < 2:
            return None
        [profile] = compute_influence(
            self.classifier,
            [(tokens, tokenize(example.query.select_column))])
        protected = _mention_positions(example)
        order = np.argsort(profile.combined)[::-1]
        target = None
        for idx in order:
            token = tokens[int(idx)]
            if int(idx) in protected or token in OPERATOR_CUES:
                continue
            if is_stop_word(token) or not any(c.isalnum() for c in token):
                continue
            target = int(idx)
            break
        if target is None:  # fall back to any unprotected glue word
            for idx in order:
                if int(idx) not in protected \
                        and tokens[int(idx)] not in OPERATOR_CUES:
                    target = int(idx)
                    break
        if target is None:
            return None
        note = f"dropped {tokens[target]!r} @ {target}"
        del tokens[target]
        return self._variant(example, tokens, note=note)


class TypoAttack(Attack):
    """Inject one character-level typo into a content word.

    Users misspell; the paper's matcher-based mention resolution is
    exact on surface forms, so a single edit-distance-1 typo in a
    column mention is a realistic stressor for the classifier's
    embedding-level robustness.  Three edit operations, chosen by the
    per-pair RNG:

    * ``swap`` — transpose two adjacent characters ("director" →
      "driector");
    * ``drop`` — delete one interior character ("director" →
      "diretor");
    * ``double`` — repeat one character ("director" → "dirrector").

    Targets prefer tokens inside gold *column-mention* spans, falling
    back to any alphabetic content word of length >= 4.  Value spans,
    operator cues, and stop words are never touched, so the gold query
    is preserved by construction; whether the typo'd question still
    resolves is exactly what the downstream validity gate and accuracy
    measurement decide.
    """

    name = "typo"

    _MIN_LEN = 4

    def _eligible(self, token: str) -> bool:
        return (len(token) >= self._MIN_LEN and token.isalpha()
                and not is_stop_word(token)
                and token not in OPERATOR_CUES)

    def _mutate(self, token: str, rng: np.random.Generator) -> str | None:
        """One edit-distance-1 variant of ``token``, or ``None``.

        Interior positions only (first/last characters anchor human
        word recognition and the matchers' prefix behaviour), and the
        result must actually differ (swapping "oo" is a no-op).
        """
        ops = ["swap", "drop", "double"]
        rng.shuffle(ops)
        positions = list(range(1, len(token) - 1))
        for op in ops:
            rng.shuffle(positions)
            for i in positions:
                if op == "swap":
                    mutated = (token[:i] + token[i + 1] + token[i]
                               + token[i + 2:]) if i + 2 < len(token) \
                        else None
                elif op == "drop":
                    mutated = token[:i] + token[i + 1:]
                else:
                    mutated = token[:i] + token[i] + token[i:]
                if mutated is not None and mutated != token:
                    return mutated
        return None

    def perturb(self, example, rng):
        tokens = list(example.question_tokens)
        blocked = _value_positions(example)
        column_positions = sorted(
            {i for m in example.mentions if m.kind == "column"
             for i in range(m.start, m.end)} - blocked)
        candidates = [i for i in column_positions
                      if self._eligible(tokens[i])]
        if not candidates:
            candidates = [i for i in range(len(tokens))
                          if i not in blocked
                          and self._eligible(tokens[i])]
        rng.shuffle(candidates)
        for position in candidates:
            mutated = self._mutate(tokens[position], rng)
            if mutated is None:
                continue
            note = f"{tokens[position]!r} -> {mutated!r} @ {position}"
            tokens[position] = mutated
            return self._variant(example, tokens, note=note)
        return None


class PhraseParaphraseAttack(Attack):
    """Substitute a multi-token phrase with a lexicon phrase synonym.

    The single-token :class:`ParaphraseAttack` cannot touch mentions
    whose surface is a phrase ("prize money", "year won") — exactly the
    paraphrases the paper's Figure 1 examples turn on.  This family
    scans the question for any ``repro.text.lexicon.PHRASE_SYNONYMS``
    member (outside gold value spans) and swaps it for another phrase
    of the same group.  Groups are meaning-preserving by construction,
    so the gold query is unchanged.
    """

    name = "phrase_paraphrase"

    def perturb(self, example, rng):
        tokens = list(example.question_tokens)
        blocked = _value_positions(example)
        matches: list[tuple[int, int, int, str]] = []
        for gid, group in enumerate(PHRASE_SYNONYMS):
            for phrase in group:
                words = tokenize(phrase)
                width = len(words)
                for start in range(len(tokens) - width + 1):
                    if tokens[start:start + width] != words:
                        continue
                    if any(i in blocked for i in range(start, start + width)):
                        continue
                    matches.append((start, width, gid, phrase))
        if not matches:
            return None
        rng.shuffle(matches)
        for start, width, gid, phrase in matches:
            alternatives = [p for p in PHRASE_SYNONYMS[gid] if p != phrase]
            if not alternatives:
                continue
            replacement = _pick(rng, alternatives)
            new_tokens = (tokens[:start] + tokenize(replacement)
                          + tokens[start + width:])
            note = f"{phrase!r} -> {replacement!r} @ {start}"
            return self._variant(example, new_tokens, note=note)
        return None


def standard_attacks(classifier=None) -> list[Attack]:
    """The standard attack families, in canonical order.

    ``classifier`` (a trained :class:`~repro.core.mention.
    column_classifier.ColumnMentionClassifier`) enables the
    influence-guided family; without one it is omitted.  New families
    append at the *end* of the list: the suite's determinism contract
    seeds each pair as ``[seed, attack_index, example_index]``, so a
    mid-list insertion would silently re-seed every later family —
    which is why :class:`PhraseParaphraseAttack` sits after
    :class:`TypoAttack` despite being a paraphrase family.
    """
    attacks: list[Attack] = [ParaphraseAttack(), ValueSwapAttack(),
                             DistractorColumnAttack()]
    if classifier is not None:
        attacks.append(InfluenceAttack(classifier))
    attacks.append(TypoAttack())
    attacks.append(PhraseParaphraseAttack())
    return attacks


@dataclass
class AttackSuite:
    """All variants generated from one corpus under one seed."""

    seed: int
    variants: list[AttackVariant]
    #: Per-attack count of examples with no applicable perturbation.
    skipped: dict[str, int]
    #: Number of source examples the suite was generated from.
    corpus_size: int = 0

    def by_attack(self) -> dict[str, list[AttackVariant]]:
        grouped: dict[str, list[AttackVariant]] = {}
        for variant in self.variants:
            grouped.setdefault(variant.attack, []).append(variant)
        return grouped

    def signature(self) -> str:
        """Canonical serialization for byte-identity assertions."""
        return json.dumps([list(v.signature()) for v in self.variants])


def generate_suite(examples: list[Example], attacks: list[Attack],
                   seed: int = 0) -> AttackSuite:
    """Run every attack over every example with per-pair seeded RNGs.

    The RNG for pair ``(attack i, example j)`` is
    ``np.random.default_rng([seed, i, j])``: independent of generation
    order and of how many variants other pairs produced, which is what
    makes the suite byte-identical run-over-run.
    """
    variants: list[AttackVariant] = []
    skipped = {attack.name: 0 for attack in attacks}
    for ai, attack in enumerate(attacks):
        for ei, example in enumerate(examples):
            rng = np.random.default_rng([seed, ai, ei])
            variant = attack.perturb(example, rng)
            if variant is None:
                skipped[attack.name] += 1
            else:
                variants.append(variant)
    return AttackSuite(seed=seed, variants=variants, skipped=skipped,
                       corpus_size=len(examples))
