"""Hierarchical tagset algebra.

A tag lives at three levels: a coarse part-of-speech (L0), an intermediate
form (L1), and the full morpho-syntactic tag (L2).  Every L2 tag also
decomposes into a 4-tuple of component symbols (g0..g3); g1..g3 may be the
empty symbol.  A schema declares the three alphabets, the parent maps, the
decomposition, per-POS rendering order for surface strings, and composition
rules restricting which tuples make sense.

Schemas are data: a line-oriented UTF-8 file with [L0], [L1], [L2],
[RULES] and [ORDER] sections.  The empty symbol is spelled EPS in files
and prediction columns but represented as "" internally.  All operations
are pure; a parsed schema is immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from importlib import resources
from typing import Iterable, Mapping, Sequence

from .errors import (
    DanglingParentError,
    DuplicateTagError,
    InvalidCombinationError,
    NonInjectiveDecompositionError,
    NoValidTupleError,
    SchemaError,
    UnknownComponentSymbolError,
    UnknownTagError,
)

EPS = ""
EPS_TEXT = "EPS"
LEVELS = ("L0", "L1", "L2")
COMPONENT_NAMES = ("g0", "g1", "g2", "g3")
DEFAULT_ORDER = (0, 1, 2, 3)


def symbol_to_text(symbol: str) -> str:
    return EPS_TEXT if symbol == EPS else symbol


def text_to_symbol(text: str) -> str:
    return EPS if text == EPS_TEXT else text


@dataclass(frozen=True)
class ComponentTag:
    """One symbol per component; only g0 is mandatory."""

    g0: str
    g1: str = EPS
    g2: str = EPS
    g3: str = EPS

    def __post_init__(self):
        if self.g0 == EPS:
            raise InvalidCombinationError("g0 may not be the empty symbol")

    @property
    def astuple(self) -> tuple[str, str, str, str]:
        return (self.g0, self.g1, self.g2, self.g3)

    def component(self, k: int) -> str:
        return self.astuple[k]


@dataclass(frozen=True)
class RuleClause:
    """Constraint on one component slot: an allowed or a forbidden set."""

    slot: int  # 1..3
    kind: str  # "allow" | "forbid"
    symbols: frozenset[str]

    def passes(self, tag: ComponentTag) -> bool:
        member = tag.component(self.slot) in self.symbols
        return member if self.kind == "allow" else not member


@dataclass(frozen=True)
class CompositionRule:
    """Clauses applying, as a conjunction, to tags whose g0 is in guard."""

    guard: frozenset[str]
    clauses: tuple[RuleClause, ...]

    def passes(self, tag: ComponentTag) -> bool:
        if tag.g0 not in self.guard:
            return True
        return all(clause.passes(tag) for clause in self.clauses)


@dataclass(frozen=True)
class TagSchema:
    l0: tuple[str, ...]
    l1: tuple[str, ...]
    l2: tuple[str, ...]
    l1_parent: Mapping[str, str] = field(repr=False)
    l2_parent: Mapping[str, str] = field(repr=False)
    decomposition: Mapping[str, ComponentTag] = field(repr=False)
    rules: tuple[CompositionRule, ...] = ()
    render_order: Mapping[str, tuple[int, ...]] = field(default_factory=dict)

    def level_tags(self, level: str) -> tuple[str, ...]:
        if level not in LEVELS:
            raise SchemaError("unknown level %r" % level)
        return {"L0": self.l0, "L1": self.l1, "L2": self.l2}[level]

    def components(self, k: int) -> tuple[str, ...]:
        """Alphabet of component k, inferred from the decomposition map.

        Components 1..3 always contain the empty symbol; sorted for
        determinism, with the empty symbol first.
        """
        if not 0 <= k <= 3:
            raise SchemaError("component index out of range: %r" % k)
        used = {t.component(k) for t in self.decomposition.values()}
        if k > 0:
            used.add(EPS)
        return tuple(sorted(used))

    def order_for(self, g0: str) -> tuple[int, ...]:
        return self.render_order.get(g0, DEFAULT_ORDER)

    @cached_property
    def _tag_of_tuple(self) -> dict[tuple[str, str, str, str], str]:
        return {ct.astuple: tag for tag, ct in self.decomposition.items()}

    @cached_property
    def _valid_inventory(self) -> tuple[tuple[str, tuple[str, str, str, str]], ...]:
        """(tag, component tuple) for every declared L2 tag that passes
        the rules, sorted by tag string."""
        return tuple(
            (tag, ct.astuple)
            for tag, ct in sorted(self.decomposition.items())
            if all(rule.passes(ct) for rule in self.rules)
        )


def render_tag(schema: TagSchema, tag: ComponentTag) -> str:
    """Assemble the surface string: components in the g0-specific order,
    empty symbols dropped."""
    order = schema.order_for(tag.g0)
    return "".join(tag.component(k) for k in order)


# --- schema file parsing ----------------------------------------------

_SECTIONS = ("[L0]", "[L1]", "[L2]", "[RULES]", "[ORDER]")


def _fields(line: str, n: int, lineno: int, what: str) -> list[str]:
    parts = line.split("\t")
    if len(parts) != n:
        raise SchemaError(
            "line %d: %s takes %d tab-separated fields, got %d"
            % (lineno, what, n, len(parts))
        )
    return parts


def _parse_clause(text: str, lineno: int) -> RuleClause:
    for op, kind in (("!=", "forbid"), ("=", "allow")):
        if op in text:
            name, raw = text.split(op, 1)
            if name not in COMPONENT_NAMES[1:]:
                raise SchemaError(
                    "line %d: rule clause must constrain g1..g3, got %r"
                    % (lineno, name)
                )
            symbols = frozenset(
                text_to_symbol(s) for s in raw.split(",") if s != ""
            )
            if not symbols and raw != EPS_TEXT:
                raise SchemaError("line %d: empty symbol list" % lineno)
            return RuleClause(COMPONENT_NAMES.index(name), kind, symbols)
    raise SchemaError("line %d: bad rule clause %r" % (lineno, text))


def parse_schema(text: str) -> TagSchema:
    """Parse and fully validate a schema file."""
    l0: list[str] = []
    l1: list[str] = []
    l2: list[str] = []
    l1_parent: dict[str, str] = {}
    l2_parent: dict[str, str] = {}
    decomposition: dict[str, ComponentTag] = {}
    rules: list[CompositionRule] = []
    rule_lines: list[tuple[int, frozenset[str], tuple[RuleClause, ...]]] = []
    order_lines: list[tuple[int, str, tuple[int, ...]]] = []
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip("\r")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        if line.startswith("["):
            if line not in _SECTIONS:
                raise SchemaError("line %d: unknown section %s" % (lineno, line))
            section = line
            continue
        if section is None:
            raise SchemaError("line %d: content before first section" % lineno)
        if section == "[L0]":
            (tag,) = _fields(line, 1, lineno, "an [L0] entry")
            if tag in l0:
                raise DuplicateTagError("line %d: duplicate L0 tag %r" % (lineno, tag))
            l0.append(tag)
        elif section == "[L1]":
            tag, parent = _fields(line, 2, lineno, "an [L1] entry")
            if tag in l1_parent:
                raise DuplicateTagError("line %d: duplicate L1 tag %r" % (lineno, tag))
            l1.append(tag)
            l1_parent[tag] = parent
        elif section == "[L2]":
            tag, parent, *comps = _fields(line, 6, lineno, "an [L2] entry")
            if tag in decomposition:
                raise DuplicateTagError("line %d: duplicate L2 tag %r" % (lineno, tag))
            symbols = [text_to_symbol(c) for c in comps]
            if symbols[0] == EPS:
                raise SchemaError("line %d: g0 may not be EPS" % lineno)
            l2.append(tag)
            l2_parent[tag] = parent
            decomposition[tag] = ComponentTag(*symbols)
        elif section == "[RULES]":
            parts = line.split("\t")
            if len(parts) < 2:
                raise SchemaError("line %d: rule needs a guard and a clause" % lineno)
            guard = frozenset(parts[0].split(","))
            clauses = tuple(
                sorted(
                    (_parse_clause(p, lineno) for p in parts[1:]),
                    key=lambda c: (c.slot, c.kind),
                )
            )
            rule_lines.append((lineno, guard, clauses))
        else:
            g0, perm = _fields(line, 2, lineno, "an [ORDER] entry")
            names = perm.split()
            if sorted(names) != sorted(COMPONENT_NAMES):
                raise SchemaError(
                    "line %d: order must be a permutation of g0..g3" % lineno
                )
            order_lines.append(
                (lineno, g0, tuple(COMPONENT_NAMES.index(n) for n in names))
            )

    if not l2:
        raise SchemaError("schema declares no L2 tags")
    for tag in l1:
        if l1_parent[tag] not in l0:
            raise DanglingParentError(
                "L1 tag %r has unknown L0 parent %r" % (tag, l1_parent[tag])
            )
    for tag in l2:
        if l2_parent[tag] not in l1:
            raise DanglingParentError(
                "L2 tag %r has unknown L1 parent %r" % (tag, l2_parent[tag])
            )
    seen: dict[tuple[str, str, str, str], str] = {}
    for tag, ct in decomposition.items():
        if ct.astuple in seen:
            raise NonInjectiveDecompositionError(
                "tags %r and %r share the tuple %r" % (seen[ct.astuple], tag, ct.astuple)
            )
        seen[ct.astuple] = tag

    alphabets = [
        {ct.component(k) for ct in decomposition.values()} | ({EPS} if k else set())
        for k in range(4)
    ]
    render_order: dict[str, tuple[int, ...]] = {}
    for lineno, g0, order in order_lines:
        if g0 not in alphabets[0]:
            raise UnknownComponentSymbolError(
                "line %d: order for unknown g0 symbol %r" % (lineno, g0)
            )
        if g0 in render_order:
            raise SchemaError("line %d: duplicate order for %r" % (lineno, g0))
        render_order[g0] = order
    for lineno, guard, clauses in rule_lines:
        for symbol in guard:
            if symbol not in alphabets[0]:
                raise UnknownComponentSymbolError(
                    "line %d: rule guards unknown g0 symbol %r" % (lineno, symbol)
                )
        for clause in clauses:
            for symbol in clause.symbols:
                if symbol != EPS and symbol not in alphabets[clause.slot]:
                    raise UnknownComponentSymbolError(
                        "line %d: rule names unknown g%d symbol %r"
                        % (lineno, clause.slot, symbol)
                    )
        rules.append(CompositionRule(guard, clauses))

    schema = TagSchema(
        tuple(l0), tuple(l1), tuple(l2),
        l1_parent, l2_parent, decomposition,
        tuple(rules), render_order,
    )
    for tag, ct in decomposition.items():
        rendered = render_tag(schema, ct)
        if rendered != tag:
            raise SchemaError(
                "L2 tag %r does not match its rendered tuple %r" % (tag, rendered)
            )
        if not all(rule.passes(ct) for rule in schema.rules):
            raise SchemaError("L2 tag %r violates a composition rule" % tag)
    return schema


def format_schema(schema: TagSchema) -> str:
    """Canonical text form; parse_schema(format_schema(s)) == s."""
    out: list[str] = ["[L0]"]
    out.extend(schema.l0)
    out.append("[L1]")
    out.extend("%s\t%s" % (t, schema.l1_parent[t]) for t in schema.l1)
    out.append("[L2]")
    for tag in schema.l2:
        ct = schema.decomposition[tag]
        out.append("\t".join(
            [tag, schema.l2_parent[tag]] + [symbol_to_text(s) for s in ct.astuple]
        ))
    if schema.rules:
        out.append("[RULES]")
        for rule in schema.rules:
            cells = [",".join(sorted(rule.guard))]
            for clause in rule.clauses:
                op = "=" if clause.kind == "allow" else "!="
                syms = ",".join(sorted(symbol_to_text(s) for s in clause.symbols))
                cells.append("%s%s%s" % (COMPONENT_NAMES[clause.slot], op, syms))
            out.append("\t".join(cells))
    if schema.render_order:
        out.append("[ORDER]")
        for g0, order in schema.render_order.items():
            out.append("%s\t%s" % (g0, " ".join(COMPONENT_NAMES[k] for k in order)))
    return "\n".join(out) + "\n"


def load_schema(path) -> TagSchema:
    with open(path, encoding="utf-8") as fh:
        return parse_schema(fh.read())


@lru_cache(maxsize=1)
def bundled_schema() -> TagSchema:
    """The reference tagset shipped with the package (16/72/107 tags)."""
    text = resources.files("chaintag").joinpath("data/reference.schema").read_text("utf-8")
    return parse_schema(text)


# --- tag operations ---------------------------------------------------


def project_tag(schema: TagSchema, tag: str, level: str) -> str:
    """The ancestor of an L2 tag at the requested level."""
    if level not in LEVELS:
        raise SchemaError("unknown level %r" % level)
    if tag not in schema.decomposition:
        raise UnknownTagError("unknown L2 tag %r" % tag)
    if level == "L2":
        return tag
    parent = schema.l2_parent[tag]
    if level == "L1":
        return parent
    return schema.l1_parent[parent]


def decompose(schema: TagSchema, tag: str) -> ComponentTag:
    try:
        return schema.decomposition[tag]
    except KeyError:
        raise UnknownTagError("unknown L2 tag %r" % tag) from None


def validate_combination(schema: TagSchema, tag: ComponentTag) -> bool:
    """True iff the tuple passes every rule and names a declared L2 tag."""
    if not all(rule.passes(tag) for rule in schema.rules):
        return False
    return tag.astuple in schema._tag_of_tuple


def recombine(schema: TagSchema, tag: ComponentTag) -> str:
    if not validate_combination(schema, tag):
        raise InvalidCombinationError(
            "no valid L2 tag for tuple %r" % (tag.astuple,)
        )
    return schema._tag_of_tuple[tag.astuple]


Scored = Sequence[tuple[str, float]]


def repair(schema: TagSchema, candidates: Sequence[Scored]) -> str:
    """Best valid tag assembled from per-component scored candidates.

    Candidates are four (symbol, score) lists, one per component; the EPS
    spelling is accepted for the empty symbol.  Over every valid tuple
    formable from the lists, the one with the highest score sum wins; ties
    go to the lexicographically smallest tag string.  A symbol listed more
    than once counts with its best score.
    """
    if len(candidates) != 4:
        raise NoValidTupleError("need one candidate list per component")
    pools: list[dict[str, float]] = []
    for k, pool in enumerate(candidates):
        if not pool:
            raise NoValidTupleError("empty candidate list for component %d" % k)
        best_of: dict[str, float] = {}
        for symbol, score in pool:
            if not math.isfinite(score):
                raise NoValidTupleError(
                    "non-finite score for symbol %r" % symbol
                )
            symbol = text_to_symbol(symbol)
            best_of[symbol] = max(float(score), best_of.get(symbol, -math.inf))
        pools.append(best_of)
    s0, s1, s2, s3 = pools
    best: tuple[float, str] | None = None
    # Sorted scan with a strict comparison: among equal totals the
    # lexicographically smallest tag, seen first, is kept.
    for tag, (g0, g1, g2, g3) in schema._valid_inventory:
        if g0 in s0 and g1 in s1 and g2 in s2 and g3 in s3:
            total = s0[g0] + s1[g1] + s2[g2] + s3[g3]
            if best is None or total > best[0]:
                best = (total, tag)
    if best is None:
        raise NoValidTupleError("no valid tuple from the candidate lists")
    return best[1]
