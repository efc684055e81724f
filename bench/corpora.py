"""Fixed-seed synthetic inputs for the benchmark, as corpus and schema text.

Two families, both generated here rather than imported from the test
suite, so that editing a test cannot shift the benchmark:

* the "wide" schema and corpora: 112 composite L2 tags whose four
  components have alphabets of 12/6/3/8 symbols.  Every tag owns a
  three-letter suffix, so the surface form alone decides the tag and a
  direct CRF must learn all 112 labels at once;
* the cascade lexicon corpus, scored against the bundled 107-tag schema:
  six unambiguous words plus two words whose tag depends on the previous
  word, so every cascade stage does real sequence work.

Everything returned is text.  The benchmark hands it to the library's own
parsers, so the library only ever sees generated corpora.
"""

from __future__ import annotations

import itertools
import random

WIDE_COMPONENT_SIZES = (12, 6, 3, 8)
WIDE_TAGS = 112
CORPUS_COLUMNS = ("mot", "lemme", "tag")


def _wide_rows() -> list[tuple[str, str, str, str, str]]:
    """(l2, g0, g1, g2, g3) for every wide tag."""
    rows = []
    for q in range(1, 5):
        rows.append(("Q%d" % q, "Q%d" % q, "EPS", "EPS", "EPS"))
    for n in range(1, 4):
        for g1 in ("A", "B"):
            for g2 in ("S", "P"):
                g0 = "N%d" % n
                rows.append((g0 + g1 + g2, g0, g1, g2, "EPS"))
    for v in range(1, 4):
        for g1 in ("1", "2", "3"):
            for g2 in ("S", "P"):
                for g3 in ("T1", "T2", "T3", "T4"):
                    g0 = "V%d" % v
                    rows.append((g0 + g1 + g2 + g3, g0, g1, g2, g3))
    for d in range(1, 3):
        for g1 in ("A", "B"):
            for g2 in ("S", "P"):
                for g3 in ("K1", "K2", "K3"):
                    g0 = "D%d" % d
                    rows.append((g0 + g1 + g2 + g3, g0, g1, g2, g3))
    return sorted(rows)


def wide_schema_text() -> str:
    """The wide tag schema in the library's schema file format."""
    rows = _wide_rows()
    lines = ["[L0]"]
    lines += sorted({r[1] for r in rows})
    lines.append("[L1]")
    lines += ["%s\t%s" % (tag, g0) for tag, g0, _, _, _ in rows]
    lines.append("[L2]")
    lines += ["\t".join((tag, tag, g0, g1, g2, g3)) for tag, g0, g1, g2, g3 in rows]
    lines.append("[RULES]")
    lines.append("Q1,Q2,Q3,Q4\tg1=EPS\tg2=EPS\tg3=EPS")
    lines.append("N1,N2,N3\tg1!=1,2,3\tg3=EPS")
    lines.append("V1,V2,V3\tg1!=A,B\tg3!=K1,K2,K3,EPS")
    lines.append("D1,D2\tg1!=1,2,3\tg3!=T1,T2,T3,T4,EPS")
    return "\n".join(lines) + "\n"


def wide_corpora(seed: int, n_train: int, n_test: int) -> tuple[str, str]:
    """Labeled training and test text over the wide tags.

    Sentences hold 18-22 tokens.  The seed fixes the suffix each tag
    owns and every draw; the test sentences come from the same stream
    after the training ones, so both share one lexicon.
    """
    rng = random.Random(seed)
    pool = [
        "".join(t) for t in itertools.product("abcdefghijklmnopqrstuvwxyz", repeat=3)
    ]
    rng.shuffle(pool)
    tags = [row[0] for row in _wide_rows()]
    suffix = {tag: pool[i] for i, tag in enumerate(tags)}
    stems = ("qu", "wo", "zi")

    def block() -> str:
        lines = []
        for _ in range(rng.randint(18, 22)):
            tag = rng.choice(tags)
            mot = rng.choice(stems) + suffix[tag]
            lines.append("%s\t%s\t%s" % (mot, mot, tag))
        return "\n".join(lines)

    train = "\n\n".join(block() for _ in range(n_train)) + "\n"
    test = "\n\n".join(block() for _ in range(n_test)) + "\n"
    return train, test


CASCADE_LEXICON = {
    "le": ("DETDEFMS", "le"),
    "chat": ("NMS", "chat"),
    "dort": ("VINDP3S", "dormir"),
    "vite": ("ADV", "vite"),
    "sous": ("PREP", "sous"),
    "et": ("CONJCOO", "et"),
}
# noun after "le", finite verb anywhere else; the word alone never decides
CASCADE_AMBIGUOUS = ("ferme", "marche")
CASCADE_TAGS = ("ADV", "CONJCOO", "DETDEFMS", "NMS", "PREP", "VINDP3S")


def cascade_corpus(seed: int, n_sentences: int) -> str:
    """Labeled cascade lexicon text, 5-9 tokens per sentence."""
    rng = random.Random(seed)
    plain = sorted(CASCADE_LEXICON)
    blocks = []
    for _ in range(n_sentences):
        words = []
        for _ in range(rng.randint(5, 9)):
            draw = rng.random()
            if draw < 0.18:
                words.append(rng.choice(CASCADE_AMBIGUOUS))
            elif draw < 0.40:
                words.append("le")
            else:
                words.append(rng.choice(plain))
        lines = []
        for i, word in enumerate(words):
            if word in CASCADE_AMBIGUOUS:
                tag = "NMS" if i > 0 and words[i - 1] == "le" else "VINDP3S"
                lines.append("%s\t%s\t%s" % (word, word, tag))
            else:
                tag, lemma = CASCADE_LEXICON[word]
                lines.append("%s\t%s\t%s" % (word, lemma, tag))
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"
