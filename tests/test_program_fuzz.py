"""Hostile program texts, made by damaging the corpus programs.

Each example starts from a corpus program, splits it into tokens and damages
it: a token is dropped, duplicated, swapped with another or cut short, or a
name is given another token's text. The damaged tokens are joined back with
blanks. `parse_program` must then return a program or raise `BasmError`,
never another exception.
"""
import re
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from basm.errors import BasmError
from basm.literals import NAME
from basm.syntax import KEYWORDS, parse_program, tokenize

REPO = Path(__file__).resolve().parents[1]
PROGRAMS = [[t.text for t in tokenize(path.read_text()) if t.kind != "eof"]
            for path in sorted((REPO / "corpus").glob("*/program.basm"))]


@st.composite
def damaged_programs(draw) -> str:
    texts = list(draw(st.sampled_from(PROGRAMS)))
    others = sorted(set(texts))
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(texts) - 1))
        damage = draw(st.sampled_from(("drop", "duplicate", "swap", "cut", "rename")))
        if damage == "drop":
            del texts[i]
        elif damage == "duplicate":
            texts.insert(i, texts[i])
        elif damage == "swap":
            j = draw(st.integers(0, len(texts) - 1))
            texts[i], texts[j] = texts[j], texts[i]
        elif damage == "cut":
            texts[i] = texts[i][: draw(st.integers(0, max(len(texts[i]) - 1, 0)))]
        else:
            names = [k for k, t in enumerate(texts) if re.fullmatch(NAME, t) and t not in KEYWORDS]
            if names:
                texts[draw(st.sampled_from(names))] = draw(st.sampled_from(others))
        if not texts:
            break
    return " ".join(texts)


@settings(max_examples=300, deadline=None)
@given(damaged_programs())
def test_a_damaged_program_parses_or_fails_with_a_kind(source):
    try:
        parse_program(source)
    except BasmError:
        pass
