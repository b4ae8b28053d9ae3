"""Role-matched intent generators for the extended SQL sketch.

Where :mod:`repro.data.template` renders fixed per-domain templates,
this module generates questions from *intents* — question families
declared against column :class:`~repro.data.roles.Role` requirements
rather than concrete schemas.  Any domain whose roles satisfy an
intent's requirements gets that family, including the held-out
transfer schemas, which is what makes the corpus role-typed rather
than domain-typed.

Eight intents cover the extended sketch (see DESIGN.md §9 for the
mapping to grammar productions and decoder vocabulary):

========== ===================================================== =========
intent     SQL shape                                             extended?
========== ===================================================== =========
filter     SELECT col WHERE col op val                            no
count      SELECT COUNT(id) WHERE col = val                       no
aggregate  SELECT agg(measure) [WHERE col = val]                  no
range      SELECT col WHERE m > lo AND m < hi                     no
topn       SELECT id ORDER BY measure ASC|DESC LIMIT n            yes
group_agg  SELECT agg(col) GROUP BY cat [HAVING COUNT(cat) > n]   yes
negation   SELECT col WHERE NOT (col = val)                       yes
disjunction SELECT col WHERE col = v1 OR col = v2                 yes
========== ===================================================== =========

Every numeric literal a query needs beyond the WHERE values (the LIMIT
``n``, the HAVING threshold) is surfaced verbatim in the question text
so the translator's copy space can reach it — the output vocabulary is
built from structural tokens plus question/header tokens, never from an
open number vocabulary.

Gold mention spans are tracked exactly as in ``template.render`` so the
mention-detection evaluation covers the new families too.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DataError
from repro.sqlengine import (
    Aggregate,
    Condition,
    Having,
    Not,
    Operator,
    Or,
    OrderBy,
    Query,
    SortDirection,
    Table,
)
from repro.sqlengine.types import DataType

from repro.data.augment import GenPlan, apply_passes
from repro.data.records import Example, MentionSpan
from repro.data.roles import Role
from repro.data.template import ColumnSpec, DomainSpec, _value_surface

__all__ = [
    "IntentGenerator", "FilterIntent", "CountIntent", "AggregateIntent",
    "RangeIntent", "TopNIntent", "GroupAggIntent", "NegationIntent",
    "DisjunctionIntent", "standard_intents", "generate_intent_split",
    "generate_role_typed",
]

_MAX_ATTEMPTS = 12


# ----------------------------------------------------------------------
# Question assembly with gold-span tracking
# ----------------------------------------------------------------------


class _Builder:
    """Accumulates question tokens plus gold mention spans."""

    def __init__(self) -> None:
        self.tokens: list[str] = []
        self.mentions: list[MentionSpan] = []
        self._mentioned: set[str] = set()

    def _emit(self, text: str) -> tuple[int, int]:
        from repro.text.tokenizer import tokenize
        start = len(self.tokens)
        self.tokens.extend(tokenize(text))
        return start, len(self.tokens)

    def text(self, words: str) -> None:
        self._emit(words)

    def column(self, spec: ColumnSpec, rng: np.random.Generator) -> None:
        surface = str(spec.mentions[int(rng.integers(0, len(spec.mentions)))])
        start, end = self._emit(surface)
        self.mentions.append(MentionSpan(spec.name, "column", start, end))
        self._mentioned.add(spec.name.lower())

    def value(self, column_name: str, value: object) -> None:
        start, end = self._emit(_value_surface(value))
        self.mentions.append(MentionSpan(column_name, "value", start, end))

    def finish(self, cond_columns: list[str]) -> None:
        """Record implicit column mentions, as ``template.render`` does."""
        for col in cond_columns:
            if col.lower() not in self._mentioned:
                span = next((m for m in self.mentions
                             if m.kind == "value" and m.column == col), None)
                anchor = span.start if span else len(self.tokens)
                self.mentions.append(MentionSpan(col, "column", anchor, anchor))

    @property
    def question(self) -> str:
        return " ".join(self.tokens)


def _pick(rng: np.random.Generator, items):
    if not items:
        raise DataError("cannot pick from an empty pool")
    return items[int(rng.integers(0, len(items)))]


def _cond_value(spec: ColumnSpec, table: Table, rng: np.random.Generator,
                counterfactual_rate: float) -> object:
    """A condition value: usually a real cell, sometimes counterfactual."""
    if table.rows and rng.random() >= counterfactual_rate:
        row = table.rows[int(rng.integers(0, len(table.rows)))]
        return row[table.column_index(spec.name)]
    return spec.sample(rng)


def _orderable(domain: DomainSpec) -> list[ColumnSpec]:
    """REAL-dtype measure/timestamp columns (support <, >, ORDER BY)."""
    return [spec for spec in
            domain.columns_with_role(Role.MEASURE, Role.TIMESTAMP)
            if spec.dtype == DataType.REAL]


def _other_columns(domain: DomainSpec, *used: ColumnSpec) -> list[ColumnSpec]:
    taken = {spec.name.lower() for spec in used}
    return [spec for spec in domain.columns if spec.name.lower() not in taken]


def _example(builder: _Builder, table: Table, query: Query,
             domain: DomainSpec, cond_columns: list[str],
             sketch_compatible: bool = True) -> Example:
    builder.finish(cond_columns)
    return Example(question=builder.question, table=table, query=query,
                   mentions=builder.mentions, domain=domain.name,
                   sketch_compatible=sketch_compatible)


# ----------------------------------------------------------------------
# The generators
# ----------------------------------------------------------------------


class IntentGenerator:
    """One question family; subclasses declare role requirements."""

    #: Sketch-family label, matching :func:`repro.core.metrics.sketch_label`.
    name: str = ""
    #: Whether the produced query stays inside the legacy WikiSQL sketch.
    legacy_sketch: bool = True

    def applicable(self, domain: DomainSpec) -> bool:
        raise NotImplementedError

    def generate(self, plan: GenPlan, table: Table,
                 rng: np.random.Generator) -> Example:
        raise NotImplementedError


class FilterIntent(IntentGenerator):
    """``SELECT col WHERE col op val`` — the base family."""

    name = "filter"

    def applicable(self, domain: DomainSpec) -> bool:
        return len(domain.columns) >= 2

    def generate(self, plan, table, rng):
        domain = plan.domain
        select = _pick(rng, domain.columns)
        operator = _pick(rng, [op for op in plan.allowed_operators
                               if op in (Operator.EQ, Operator.GT, Operator.LT)])
        pool = _other_columns(domain, select)
        if operator is not Operator.EQ:
            pool = [c for c in pool if c.dtype == DataType.REAL]
        cond = _pick(rng, pool)
        value = (_cond_value(cond, table, rng, plan.counterfactual_rate)
                 if operator is Operator.EQ else cond.sample(rng))

        b = _Builder()
        if operator is Operator.EQ:
            if rng.random() < 0.5:
                b.text("what is the"); b.column(select, rng)
                b.text(f"of the {domain.entity} with")
                b.column(cond, rng); b.value(cond.name, value); b.text("?")
            else:
                b.text("which"); b.column(select, rng); b.text("has")
                b.column(cond, rng); b.value(cond.name, value); b.text("?")
        else:
            word = "over" if operator is Operator.GT else "under"
            b.text("which"); b.column(select, rng); b.text("has a")
            b.column(cond, rng); b.text(word)
            b.value(cond.name, value); b.text("?")
        query = Query(select_column=select.name,
                      conditions=[Condition(cond.name, operator, value)])
        return _example(b, table, query, domain, [cond.name])


class CountIntent(IntentGenerator):
    """``SELECT COUNT(id) WHERE col = val``."""

    name = "count"

    def applicable(self, domain: DomainSpec) -> bool:
        return bool(domain.columns_with_role(Role.IDENTIFIER)) \
            and len(domain.columns) >= 2

    def generate(self, plan, table, rng):
        domain = plan.domain
        key = _pick(rng, domain.columns_with_role(Role.IDENTIFIER))
        cond = _pick(rng, _other_columns(domain, key))
        value = _cond_value(cond, table, rng, plan.counterfactual_rate)

        b = _Builder()
        if rng.random() < 0.5:
            b.text(f"how many {domain.entity} records have")
            b.column(cond, rng); b.value(cond.name, value); b.text("?")
        else:
            b.text(f"count the {domain.entity} entries where the")
            b.column(cond, rng); b.text("is"); b.value(cond.name, value)
        query = Query(select_column=key.name, aggregate=Aggregate.COUNT,
                      conditions=[Condition(cond.name, Operator.EQ, value)])
        return _example(b, table, query, domain, [cond.name])


_AGG_WORDS = {Aggregate.MAX: "highest", Aggregate.MIN: "lowest",
              Aggregate.SUM: "total", Aggregate.AVG: "average"}


class AggregateIntent(IntentGenerator):
    """``SELECT agg(measure) [WHERE col = val]``."""

    name = "aggregate"

    def applicable(self, domain: DomainSpec) -> bool:
        return bool(_orderable(domain))

    def generate(self, plan, table, rng):
        domain = plan.domain
        measure = _pick(rng, _orderable(domain))
        aggregate = _pick(rng, list(_AGG_WORDS))

        b = _Builder()
        b.text(f"what is the {_AGG_WORDS[aggregate]}")
        b.column(measure, rng)
        cond_cols: list[str] = []
        conditions: list[Condition] = []
        if rng.random() < 0.5:
            cond = _pick(rng, _other_columns(domain, measure))
            value = _cond_value(cond, table, rng, plan.counterfactual_rate)
            b.text("when the"); b.column(cond, rng); b.text("is")
            b.value(cond.name, value)
            cond_cols = [cond.name]
            conditions = [Condition(cond.name, Operator.EQ, value)]
        b.text("?")
        query = Query(select_column=measure.name, aggregate=aggregate,
                      conditions=conditions)
        return _example(b, table, query, domain, cond_cols)


class RangeIntent(IntentGenerator):
    """``SELECT col WHERE m > lo AND m < hi`` — between-phrasing.

    Stays inside the legacy sketch (a flat AND of two comparisons on
    the same column), so range questions also enrich the legacy corpus.
    """

    name = "range"

    def applicable(self, domain: DomainSpec) -> bool:
        return bool(_orderable(domain)) and len(domain.columns) >= 2

    def generate(self, plan, table, rng):
        if not {Operator.GT, Operator.LT} <= set(plan.allowed_operators):
            raise DataError("range intent needs both > and < allowed")
        domain = plan.domain
        measure = _pick(rng, _orderable(domain))
        select = _pick(rng, _other_columns(domain, measure))
        lo, hi = sorted((measure.sample(rng), measure.sample(rng)))
        if lo == hi:
            hi = hi + 1 if isinstance(hi, int) else hi + 1.0

        b = _Builder()
        if rng.random() < 0.5:
            b.text("which"); b.column(select, rng); b.text("has")
            b.column(measure, rng); b.text("between")
            b.value(measure.name, lo); b.text("and")
            b.value(measure.name, hi); b.text("?")
        else:
            b.text("name the"); b.column(select, rng); b.text("with")
            b.column(measure, rng); b.text("above")
            b.value(measure.name, lo); b.text("but under")
            b.value(measure.name, hi)
        query = Query(select_column=select.name,
                      conditions=[Condition(measure.name, Operator.GT, lo),
                                  Condition(measure.name, Operator.LT, hi)])
        return _example(b, table, query, domain, [measure.name])


class TopNIntent(IntentGenerator):
    """``SELECT id ORDER BY measure DESC|ASC LIMIT n``.

    The digit ``n`` is emitted into the question so the decoder can
    copy it into the LIMIT slot.
    """

    name = "topn"
    legacy_sketch = False

    def applicable(self, domain: DomainSpec) -> bool:
        return bool(domain.columns_with_role(Role.IDENTIFIER)) \
            and bool(_orderable(domain))

    def generate(self, plan, table, rng):
        domain = plan.domain
        key = _pick(rng, domain.columns_with_role(Role.IDENTIFIER))
        measure = _pick(rng, _orderable(domain))
        n = _pick(rng, [2, 3, 5])
        descending = bool(rng.random() < 0.5)

        b = _Builder()
        if descending:
            if rng.random() < 0.5:
                b.text(f"which {n}"); b.column(key, rng)
                b.text("have the highest"); b.column(measure, rng); b.text("?")
            else:
                b.text(f"list the top {n}"); b.column(key, rng)
                b.text("by"); b.column(measure, rng)
        else:
            b.text(f"which {n}"); b.column(key, rng)
            b.text("have the lowest"); b.column(measure, rng); b.text("?")
        direction = SortDirection.DESC if descending else SortDirection.ASC
        query = Query(select_column=key.name,
                      order_by=OrderBy(measure.name, direction), limit=n)
        return _example(b, table, query, domain, [],
                        sketch_compatible=False)


class GroupAggIntent(IntentGenerator):
    """``SELECT agg(col) GROUP BY cat [HAVING COUNT(cat) > n]``.

    The HAVING threshold is phrased as "more than ``n``" so the digit
    is copyable, like the top-N LIMIT.
    """

    name = "group_agg"
    legacy_sketch = False

    def applicable(self, domain: DomainSpec) -> bool:
        if not domain.columns_with_role(Role.CATEGORY):
            return False
        return bool(_orderable(domain)) \
            or bool(domain.columns_with_role(Role.IDENTIFIER))

    def generate(self, plan, table, rng):
        domain = plan.domain
        category = _pick(rng, domain.columns_with_role(Role.CATEGORY))
        measures = [c for c in _orderable(domain)
                    if c.name.lower() != category.name.lower()]
        keys = [c for c in domain.columns_with_role(Role.IDENTIFIER)
                if c.name.lower() != category.name.lower()]

        b = _Builder()
        if measures and (not keys or rng.random() < 0.6):
            measure = _pick(rng, measures)
            aggregate = _pick(rng, [Aggregate.AVG, Aggregate.SUM])
            word = "average" if aggregate is Aggregate.AVG else "total"
            b.text(f"what is the {word}"); b.column(measure, rng)
            b.text("for each"); b.column(category, rng)
            select = measure.name
        else:
            key = _pick(rng, keys)
            aggregate = Aggregate.COUNT
            b.text(f"how many {domain.entity} records are there for each")
            b.column(category, rng)
            select = key.name
        having = None
        if rng.random() < 0.4:
            threshold = _pick(rng, [1, 2])
            b.text(f"with more than {threshold} {domain.entity} records")
            having = Having(Aggregate.COUNT, category.name, Operator.GT,
                            threshold)
        b.text("?")
        query = Query(select_column=select, aggregate=aggregate,
                      group_by=category.name, having=having)
        return _example(b, table, query, domain, [],
                        sketch_compatible=False)


class NegationIntent(IntentGenerator):
    """``SELECT col WHERE NOT (col = val)``."""

    name = "negation"
    legacy_sketch = False

    def applicable(self, domain: DomainSpec) -> bool:
        return len(domain.columns) >= 2 and bool(
            domain.columns_with_role(Role.CATEGORY, Role.TEXT))

    def generate(self, plan, table, rng):
        domain = plan.domain
        pool = domain.columns_with_role(Role.CATEGORY) \
            or domain.columns_with_role(Role.TEXT)
        cond = _pick(rng, pool)
        select = _pick(rng, _other_columns(domain, cond))
        # Negating a value that is actually present keeps the answer
        # non-trivial, so skip the counterfactual coin flip.
        value = _cond_value(cond, table, rng, counterfactual_rate=0.0)

        b = _Builder()
        if rng.random() < 0.5:
            b.text("which"); b.column(select, rng); b.text("has a")
            b.column(cond, rng); b.text("other than")
            b.value(cond.name, value); b.text("?")
        else:
            b.text("name the"); b.column(select, rng); b.text("whose")
            b.column(cond, rng); b.text("is not"); b.value(cond.name, value)
        query = Query(select_column=select.name,
                      where=Not(Condition(cond.name, Operator.EQ, value)))
        return _example(b, table, query, domain, [cond.name],
                        sketch_compatible=False)


class DisjunctionIntent(IntentGenerator):
    """``SELECT col WHERE col = v1 OR col = v2``."""

    name = "disjunction"
    legacy_sketch = False

    def applicable(self, domain: DomainSpec) -> bool:
        return len(domain.columns) >= 2 and bool(
            domain.columns_with_role(Role.CATEGORY))

    def generate(self, plan, table, rng):
        domain = plan.domain
        cond = _pick(rng, domain.columns_with_role(Role.CATEGORY))
        select = _pick(rng, _other_columns(domain, cond))
        column_cells = [row[table.column_index(cond.name)]
                        for row in table.rows]
        distinct = sorted({str(c) for c in column_cells})
        if len(distinct) >= 2:
            first = _pick(rng, distinct)
            second = _pick(rng, [v for v in distinct if v != first])
        else:
            first = cond.sample(rng)
            second = cond.sample(rng)
            if str(first) == str(second):
                raise DataError("no distinct disjunction values")

        b = _Builder()
        b.text("which"); b.column(select, rng); b.text("has")
        b.column(cond, rng); b.value(cond.name, first)
        b.text("or"); b.value(cond.name, second); b.text("?")
        query = Query(select_column=select.name,
                      where=Or((Condition(cond.name, Operator.EQ, first),
                                Condition(cond.name, Operator.EQ, second))))
        return _example(b, table, query, domain, [cond.name],
                        sketch_compatible=False)


def standard_intents() -> list[IntentGenerator]:
    """All intent generators, legacy families first (fresh instances)."""
    return [FilterIntent(), CountIntent(), AggregateIntent(), RangeIntent(),
            TopNIntent(), GroupAggIntent(), NegationIntent(),
            DisjunctionIntent()]


# ----------------------------------------------------------------------
# Corpus assembly
# ----------------------------------------------------------------------


def generate_intent_split(domains: list[DomainSpec], size: int, split: str,
                          rng: np.random.Generator,
                          generators: list[IntentGenerator] | None = None,
                          passes=(), rows_per_table: int = 12,
                          tables_per_domain: int = 2,
                          counterfactual_rate: float = 0.15) -> list[Example]:
    """One split of role-typed examples with fresh tables per domain.

    Domains round-robin as in :func:`repro.data.wikisql.generate_split`;
    within a domain the *applicable* generators also round-robin, so
    every sketch family a schema supports is evenly represented.
    Augmentation ``passes`` (:mod:`repro.data.augment`) rewrite each
    domain's :class:`~repro.data.augment.GenPlan` before generation.
    """
    if size <= 0:
        return []
    generators = generators if generators is not None else standard_intents()
    plans: dict[str, GenPlan] = {}
    applicable: dict[str, list[IntentGenerator]] = {}
    tables: dict[str, list[Table]] = {}
    for domain in domains:
        plan = apply_passes(
            GenPlan(domain=domain, counterfactual_rate=counterfactual_rate),
            passes, rng)
        usable = [g for g in generators if g.applicable(plan.domain)]
        if not usable:
            raise DataError(
                f"no intent generator applies to domain {domain.name!r}")
        plans[domain.name] = plan
        applicable[domain.name] = usable
        tables[domain.name] = [
            plan.domain.build_table(rng, rows_per_table,
                                    table_name=f"{domain.name}_{split}_{i}")
            for i in range(tables_per_domain)]

    examples: list[Example] = []
    per_domain_count: dict[str, int] = {d.name: 0 for d in domains}
    # Stagger each domain's round-robin starting point so that small
    # corpora still cover every sketch family (otherwise all domains
    # would begin with the same legacy-first generators).
    offsets = {d.name: i for i, d in enumerate(domains)}
    while len(examples) < size:
        domain = domains[len(examples) % len(domains)]
        plan = plans[domain.name]
        table = tables[domain.name][int(rng.integers(0, tables_per_domain))]
        usable = applicable[domain.name]
        for attempt in range(_MAX_ATTEMPTS):
            generator = usable[
                (offsets[domain.name] + per_domain_count[domain.name]
                 + attempt) % len(usable)]
            try:
                example = generator.generate(plan, table, rng)
            except DataError:
                continue
            examples.append(example)
            per_domain_count[domain.name] += 1
            break
        else:
            raise DataError(
                f"could not generate any intent for domain {domain.name!r}")
    return examples


def generate_role_typed(seed: int = 0, train_size: int = 600,
                        dev_size: int = 150, test_size: int = 150,
                        domains: list[DomainSpec] | None = None,
                        generators: list[IntentGenerator] | None = None,
                        passes=(), rows_per_table: int = 12,
                        tables_per_domain: int = 2,
                        counterfactual_rate: float = 0.15,
                        allow_held_out: bool = False):
    """Role-typed train/dev/test splits over the extended sketch.

    The held-out transfer schemas are refused unless ``allow_held_out``
    is set — they must stay unseen for the few-shot transfer harness
    (:mod:`repro.eval.transfer`) to be honest.
    """
    from repro.data.domains import held_out_domains, training_domains
    from repro.data.wikisql import WikiSQLStyleDataset

    if domains is None:
        domains = training_domains()
    if not allow_held_out:
        reserved = {d.name for d in held_out_domains()}
        offending = sorted(d.name for d in domains if d.name in reserved)
        if offending:
            raise DataError(
                f"held-out transfer domains {offending} cannot be used for "
                f"corpus generation (pass allow_held_out=True to override)")
    rng = np.random.default_rng(seed)
    common = dict(generators=generators, passes=passes,
                  rows_per_table=rows_per_table,
                  tables_per_domain=tables_per_domain,
                  counterfactual_rate=counterfactual_rate)
    return WikiSQLStyleDataset(
        train=generate_intent_split(domains, train_size, "train", rng,
                                    **common),
        dev=generate_intent_split(domains, dev_size, "dev", rng, **common),
        test=generate_intent_split(domains, test_size, "test", rng, **common),
    )
