"""Error types shared across the interpreter, and `read_text`, which reads
every file basm takes and turns bytes that are not UTF-8 into a `parse` error.

Every failure carries a short machine-readable kind so callers (and the CLI)
can react without string matching. Kinds in use:

  parse                 malformed program, state file, or literal
  sort                  unknown symbol, arity mismatch, ill-sorted term or value
  arith                 mod / powmod domain violations, integer results past
                        MAX_INT_DIGITS digits, non-finite geometry results
  clash                 inconsistent update set (two values for one location)
  script                scripted oracle exhausted or mismatched
  aborted               interactive oracle input stream closed
  oracle-domain         oracle or geometry query outside its domain
  interactive-fixpoint  oracle inside an implicit-iteration program
  interactive-halt      oracle inside a do-until halting condition
  iso                   malformed universe bijection
  unsupported-iso       bijection touching a builtin sort
  vocab                 vocabulary mismatch between compared traces
  program-id            trace does not belong to the given program
  corpus                bad corpus entry name or argument
"""
from pathlib import Path


class BasmError(Exception):
    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind
        self.message = message


class ParseError(BasmError):
    """Parse or sort error with a source position when one is known."""

    def __init__(self, message: str, line=None, column=None, kind: str = "parse"):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(kind, message)
        self.line = line
        self.column = column


def read_text(path) -> str:
    """The text of a file basm reads: a program, state, trace or script. A
    file that is not UTF-8 is a `parse` error naming it; an unreadable one
    raises `OSError` as before."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})") from None
