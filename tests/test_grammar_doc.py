"""The Tokens list in docs/grammar.md states the patterns and tables the lexer uses."""
import re
from pathlib import Path

from basm.literals import NAME, NUMBER
from basm.syntax import KEYWORDS, PUNCTUATION

GRAMMAR = Path(__file__).resolve().parents[1] / "docs" / "grammar.md"


def _token_items() -> dict[str, str]:
    """Each item of the Tokens list: its label and the first code span after it."""
    section = GRAMMAR.read_text().split("\nTokens:\n", 1)[1].split("\n## ", 1)[0]
    items = dict(re.findall(r"^\* `?(\w+)`?: `([^`]*)`", section, re.M))
    assert items, "no token items found; the collector is broken"
    return items


def test_the_token_list_matches_the_lexer():
    items = _token_items()
    assert items["IDENT"] == NAME
    assert items["NUMBER"] == NUMBER
    assert set(items["Keywords"].split()) == KEYWORDS
    assert tuple(items["Punctuation"].split()) == PUNCTUATION
