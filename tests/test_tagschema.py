"""Tagset algebra: schema parsing, projection, decomposition, repair."""

import itertools
import random

import pytest
from hypothesis import given, strategies as st

from chaintag.errors import (
    DanglingParentError,
    DuplicateTagError,
    EncodingError,
    InvalidCombinationError,
    NonInjectiveDecompositionError,
    NoValidTupleError,
    SchemaError,
    UnknownComponentSymbolError,
    UnknownTagError,
)
from chaintag.tagschema import (
    EPS,
    ComponentTag,
    CompositionRule,
    RuleClause,
    TagSchema,
    bundled_schema,
    decompose,
    format_schema,
    load_schema,
    parse_schema,
    project_tag,
    recombine,
    render_tag,
    repair,
    text_to_symbol,
    validate_combination,
)

MODE_TEMPS = {"CON", "IMP", "SUB", "IND", "INDF", "INDI", "INDP", "INF",
              "PARP", "PARPRES"}
DET_PRO = {"IND", "DEM", "DEF", "POSS", "PER", "INT"}


@pytest.fixture(scope="module")
def schema():
    return bundled_schema()


class TestBundledSchema:
    def test_level_sizes(self, schema):
        assert len(schema.l0) == 16
        assert len(schema.l1) == 72
        assert len(schema.l2) == 107

    def test_core_pos_symbols_present(self, schema):
        pos = set(schema.components(0))
        assert {"ADJ", "ADV", "CH", "CONJCOO", "CONJSUB", "DET", "INT",
                "MI", "N", "PREP", "PRES", "P", "PP", "V"} <= pos

    def test_component_alphabets(self, schema):
        assert set(schema.components(1)) == {EPS, "1", "2", "3", "F", "M"}
        assert set(schema.components(2)) == {EPS, "P", "S"}
        g3 = set(schema.components(3))
        assert g3 == MODE_TEMPS | DET_PRO | {EPS}
        assert len(g3) == 16  # IND is shared between the two families

    def test_round_trips_through_text(self, schema):
        assert parse_schema(format_schema(schema)) == schema


class TestProjection:
    def test_invariant_tag_projects_to_itself(self, schema):
        assert project_tag(schema, "ADV", "L0") == "ADV"
        assert project_tag(schema, "ADV", "L1") == "ADV"

    def test_noun_projects_to_pos(self, schema):
        assert project_tag(schema, "NFS", "L0") == "N"
        assert project_tag(schema, "NFS", "L1") == "NFS"

    def test_pronoun_loses_type_then_person(self, schema):
        assert project_tag(schema, "PPER2P", "L1") == "P2P"
        assert project_tag(schema, "PPER2P", "L0") == "P"

    def test_determiner_loses_type(self, schema):
        assert project_tag(schema, "DETDEFMS", "L1") == "DETMS"
        assert project_tag(schema, "DETDEFMS", "L0") == "DET"

    def test_unknown_tag_rejected(self, schema):
        with pytest.raises(UnknownTagError):
            project_tag(schema, "ZZZ", "L0")

    def test_levels_are_consistent_with_parent_walk(self, schema):
        for tag in schema.l2:
            l1 = schema.l2_parent[tag]
            l0 = schema.l1_parent[l1]
            assert project_tag(schema, tag, "L2") == tag
            assert project_tag(schema, tag, "L1") == l1
            assert project_tag(schema, tag, "L0") == l0
            assert l1 in schema.l1 and l0 in schema.l0

    def test_projection_is_monotone(self, schema):
        by_l1 = {}
        for tag in schema.l2:
            by_l1.setdefault(project_tag(schema, tag, "L1"), set()).add(
                project_tag(schema, tag, "L0")
            )
        assert all(len(grandparents) == 1 for grandparents in by_l1.values())


class TestDecomposeRecombine:
    def test_feminine_singular_noun(self, schema):
        assert decompose(schema, "NFS").astuple == ("N", "F", "S", EPS)

    def test_invariant_adverb(self, schema):
        assert decompose(schema, "ADV").astuple == ("ADV", EPS, EPS, EPS)

    def test_second_person_plural_present(self, schema):
        assert decompose(schema, "VINDP2P").astuple == ("V", "2", "P", "INDP")

    def test_unknown_tag_rejected(self, schema):
        with pytest.raises(UnknownTagError):
            decompose(schema, "NXS")

    def test_recombine_inverts_decompose_on_all_tags(self, schema):
        for tag in schema.l2:
            assert recombine(schema, decompose(schema, tag)) == tag

    def test_recombine_rejects_nonsense(self, schema):
        with pytest.raises(InvalidCombinationError):
            recombine(schema, ComponentTag("ADV", "M", "P", EPS))

    def test_g0_may_not_be_empty(self):
        with pytest.raises(InvalidCombinationError):
            ComponentTag(EPS, "M", "S", EPS)


class TestValidation:
    def test_known_valid_and_invalid_tuples(self, schema):
        assert not validate_combination(schema, ComponentTag("ADV", "M", "P", EPS))
        assert validate_combination(schema, ComponentTag("N", "F", "S", EPS))
        assert not validate_combination(schema, ComponentTag("V", EPS, EPS, "DEF"))

    def test_every_declared_tag_is_valid(self, schema):
        for tag in schema.l2:
            assert validate_combination(schema, decompose(schema, tag))

    def test_invariable_pos_admit_only_bare_tuples(self, schema):
        for g0 in ("ADV", "CONJCOO", "CONJSUB", "INT"):
            valid = [
                ct for ct in schema.decomposition.values() if ct.g0 == g0
            ]
            assert valid == [ComponentTag(g0, EPS, EPS, EPS)]
            assert not validate_combination(schema, ComponentTag(g0, EPS, "S", EPS))

    def test_verbs_never_take_determiner_or_pronoun_types(self, schema):
        for ct in schema.decomposition.values():
            if ct.g0 == "V":
                assert ct.g3 not in DET_PRO
        assert not validate_combination(schema, ComponentTag("V", "3", "S", "PER"))

    def test_determiners_never_take_mood_symbols(self, schema):
        # IND names both a mood family and a determiner type, so the
        # mood-side check uses the unambiguous symbols only.
        unambiguous = MODE_TEMPS - DET_PRO
        for ct in schema.decomposition.values():
            if ct.g0 in ("DET", "P"):
                assert ct.g3 not in unambiguous
        assert not validate_combination(schema, ComponentTag("DET", "M", "S", "INF"))


class TestRepair:
    def test_valid_top_choices_win_directly(self, schema):
        out = repair(schema, [
            [("N", 2.0), ("V", 1.0)],
            [("F", 1.5), ("M", 1.0)],
            [("S", 0.5)],
            [("EPS", 0.1)],
        ])
        assert out == "NFS"

    def test_falls_back_when_top_choices_clash(self, schema):
        out = repair(schema, [
            [("ADV", 5.0), ("N", 1.0)],
            [("M", 1.0), ("EPS", 0.5)],
            [("EPS", 0.5)],
            [("EPS", 0.5)],
        ])
        assert out == "ADV"

    def test_jointly_invalid_singletons_fail(self, schema):
        with pytest.raises(NoValidTupleError):
            repair(schema, [
                [("ADV", 1.0)], [("M", 1.0)], [("P", 1.0)], [("PER", 1.0)],
            ])

    def test_empty_pool_fails(self, schema):
        with pytest.raises(NoValidTupleError):
            repair(schema, [[("N", 1.0)], [], [("S", 1.0)], [("EPS", 1.0)]])

    def test_non_finite_score_fails(self, schema):
        with pytest.raises(NoValidTupleError):
            repair(schema, [
                [("N", float("nan"))], [("F", 1.0)], [("S", 1.0)], [("EPS", 1.0)],
            ])

    def test_tie_breaks_to_lexicographically_smallest_tag(self, schema):
        out = repair(schema, [
            [("N", 1.0), ("ADJ", 1.0)],
            [("F", 1.0), ("M", 1.0)],
            [("S", 1.0), ("P", 1.0)],
            [("EPS", 1.0)],
        ])
        assert out == "ADJFP"

    @given(st.integers(min_value=0, max_value=10_000))
    def test_matches_brute_force_over_the_inventory(self, seed):
        # Pools are random subsets of each alphabet, may repeat a symbol
        # with different scores or name one outside the schema, and half
        # the time draw scores from a small set so that totals tie.
        schema = bundled_schema()
        rng = random.Random(seed)
        tied = rng.random() < 0.5

        def score():
            return rng.choice((-1.0, 0.0, 0.5)) if tied else rng.uniform(-2, 2)

        pools = []
        for k in range(4):
            pool = []
            for symbol in schema.components(k):
                if rng.random() < 0.8:
                    for _ in range(rng.choice((1, 1, 2))):
                        pool.append(("EPS" if symbol == EPS else symbol, score()))
            if rng.random() < 0.3:
                pool.append(("ZZ", score()))
            rng.shuffle(pool)
            pools.append(pool)
        best = None
        for tag, ct in schema.decomposition.items():
            entries = [
                [v for symbol, v in pools[k] if text_to_symbol(symbol) == ct.component(k)]
                for k in range(4)
            ]
            for combo in itertools.product(*entries):
                total = sum(combo)
                if best is None or total > best[0] or (total == best[0] and tag < best[1]):
                    best = (total, tag)
        if best is None:
            with pytest.raises(NoValidTupleError):
                repair(schema, pools)
        else:
            assert repair(schema, pools) == best[1]

    def test_never_returns_a_declared_tag_that_violates_a_rule(self):
        # Built directly, so parse_schema's rule check never sees NMS.
        decomposition = {
            "NFS": ComponentTag("N", "F", "S"),
            "NMS": ComponentTag("N", "M", "S"),
        }
        schema = TagSchema(
            l0=("N",), l1=("NS",), l2=("NFS", "NMS"),
            l1_parent={"NS": "N"},
            l2_parent={"NFS": "NS", "NMS": "NS"},
            decomposition=decomposition,
            rules=(CompositionRule(
                frozenset({"N"}), (RuleClause(1, "forbid", frozenset({"M"})),)
            ),),
        )
        pools = [[("N", 0.0)], [("M", 5.0), ("F", -5.0)], [("S", 0.0)], [("EPS", 0.0)]]
        assert repair(schema, pools) == "NFS"
        with pytest.raises(NoValidTupleError):
            repair(schema, [[("N", 0.0)], [("M", 5.0)], [("S", 0.0)], [("EPS", 0.0)]])

TOY = """\
[L0]
N
[L1]
NS\tN
[L2]
NFS\tNS\tN\tF\tS\tEPS
"""


class TestParsing:
    def test_toy_three_level_chain_resolves(self):
        schema = parse_schema(TOY)
        assert project_tag(schema, "NFS", "L1") == "NS"
        assert project_tag(schema, "NFS", "L0") == "N"

    def test_comments_and_blank_lines_ignored(self):
        schema = parse_schema("# a comment\n\n" + TOY)
        assert schema.l2 == ("NFS",)

    def test_duplicate_tags_rejected(self):
        with pytest.raises(DuplicateTagError):
            parse_schema(TOY + "NFS\tNS\tN\tF\tS\tEPS\n")
        with pytest.raises(DuplicateTagError):
            parse_schema("[L0]\nN\nN\n" + TOY[5:])

    def test_dangling_parents_rejected(self):
        with pytest.raises(DanglingParentError):
            parse_schema("[L0]\nN\n[L1]\nNS\tX\n[L2]\nNFS\tNS\tN\tF\tS\tEPS\n")
        with pytest.raises(DanglingParentError):
            parse_schema("[L0]\nN\n[L1]\nNS\tN\n[L2]\nNFS\tXX\tN\tF\tS\tEPS\n")

    def test_shared_tuple_rejected(self):
        text = TOY + "NSF\tNS\tN\tF\tS\tEPS\n"
        with pytest.raises((NonInjectiveDecompositionError, SchemaError)):
            parse_schema(text)
        crossed = "".join("%s\tNS\tN\t%s\tS\tEPS\n" % pair for pair in (
            ("A", "F"), ("B", "M"), ("C", "M"), ("D", "F")))
        with pytest.raises(NonInjectiveDecompositionError,
                           match="tags 'B' and 'C' share"):
            parse_schema(TOY.split("[L2]")[0] + "[L2]\n" + crossed)

    def test_non_utf8_file_names_itself(self, tmp_path):
        path = tmp_path / "latin1.schema"
        path.write_bytes(TOY.replace("NFS", "N\xc9S").encode("latin-1"))
        with pytest.raises(EncodingError, match="latin1.schema"):
            load_schema(path)

    def test_rendered_string_must_match_tag(self):
        with pytest.raises(SchemaError):
            parse_schema("[L0]\nN\n[L1]\nNS\tN\n[L2]\nNSF\tNS\tN\tF\tS\tEPS\n")

    def test_rule_naming_unknown_symbol_rejected(self):
        with pytest.raises(UnknownComponentSymbolError):
            parse_schema(TOY + "[RULES]\nQ\tg3=EPS\n")
        with pytest.raises(UnknownComponentSymbolError):
            parse_schema(TOY + "[RULES]\nN\tg3!=ZZZ\n")

    def test_order_for_unknown_symbol_rejected(self):
        with pytest.raises(UnknownComponentSymbolError):
            parse_schema(TOY + "[ORDER]\nQ\tg0 g1 g2 g3\n")

    def test_malformed_lines_rejected(self):
        with pytest.raises(SchemaError):
            parse_schema("[L0]\nN\textra\n")
        with pytest.raises(SchemaError):
            parse_schema("N\n" + TOY)
        with pytest.raises(SchemaError):
            parse_schema("[BOGUS]\nN\n")
        with pytest.raises(SchemaError):
            parse_schema(TOY + "[ORDER]\nN\tg0 g1 g2\n")
        with pytest.raises(SchemaError):
            parse_schema(TOY + "[RULES]\nN\n")
        with pytest.raises(SchemaError):
            parse_schema(TOY + "[RULES]\nN\tg0=N\n")
        with pytest.raises(SchemaError):
            parse_schema("[L0]\nN\n")

    def test_tag_violating_its_own_rules_rejected(self):
        with pytest.raises(SchemaError):
            parse_schema(TOY + "[RULES]\nN\tg1=EPS\n")

    def test_g0_eps_rejected(self):
        with pytest.raises(SchemaError):
            parse_schema("[L0]\nN\n[L1]\nNS\tN\n[L2]\nFS\tNS\tEPS\tF\tS\tEPS\n")


class TestRendering:
    def test_default_and_per_pos_orders(self, schema):
        assert render_tag(schema, decompose(schema, "NFS")) == "NFS"
        assert render_tag(schema, decompose(schema, "VINDP2P")) == "VINDP2P"
        assert render_tag(schema, decompose(schema, "DETDEFMS")) == "DETDEFMS"
        assert render_tag(schema, decompose(schema, "PPER3S")) == "PPER3S"
