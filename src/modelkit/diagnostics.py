"""Diagnostics shared by every layer, the base of every plain record, and
the line reading shared by the text notations.

Checks accumulate diagnostics instead of aborting, so one run reports
everything it can find.  Codes are short stable identifiers; the full
catalog is documented in README.md.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import Any, Callable, Iterable, Iterator, Optional


class Severity(Enum):
    ERROR = "error"
    WARNING = "warning"


class _RecordType(type):
    """Makes a record class's own `__init__` parameters its fields."""

    def __new__(mcls, name, bases, namespace):
        if "__slots__" in namespace:
            raise TypeError(f"record {name} lists __slots__; its __init__ lists its fields")
        init = getattr(namespace.get("__init__"), "__code__", None)
        namespace["__slots__"] = namespace["__match_args__"] = (
            init.co_varnames[1:init.co_argcount] if init else ())
        return super().__new__(mcls, name, bases, namespace)


class Record(metaclass=_RecordType):
    """Base of the plain records, whose fields are their constructors'
    parameters.  Records compare field by field, as tuples do, only within
    one class and skipping the `_uncompared` fields; they are unhashable,
    their repr is `Name(field=value, ...)`, class patterns bind fields in order."""

    _uncompared = ("span", "line", "file")  # where a record came from

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        skip = self._uncompared
        for name in self.__slots__:
            if name not in skip:
                mine, theirs = getattr(self, name), getattr(other, name)
                if mine is not theirs and not mine == theirs:
                    return False
        return True

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__slots__])
        return f"{type(self).__qualname__}({fields})"


class SourceSpan(Record):
    """1-based position of a construct inside an input file."""

    _uncompared = ()  # a span is a position

    def __init__(self, file: str, line: int, column: int = 1):
        self.file, self.line, self.column = file, line, column


class Diagnostic(Record):
    """One reported problem: severity, stable code, message, position and,
    for tooling, the id or name of the offending element."""

    _uncompared = ()  # unlike other records', a diagnostic's span counts

    def __init__(self, severity: Severity, code: str, message: str,
                 span: Optional[SourceSpan] = None, subject: Optional[str] = None):
        self.severity, self.code, self.message = severity, code, message
        self.span, self.subject = span, subject

    def format(self) -> str:
        """Render as one report line: `severity code file:line:col message`."""
        span = self.span
        loc = "-" if span is None else f"{span.file}:{span.line}:{span.column}"
        return f"{self.severity.value} {self.code} {loc} {self.message}"


def error(code: str, message: str, span: SourceSpan | None = None,
          subject: str | None = None) -> Diagnostic:
    return Diagnostic(Severity.ERROR, code, message, span, subject)


def warning(code: str, message: str, span: SourceSpan | None = None,
            subject: str | None = None) -> Diagnostic:
    return Diagnostic(Severity.WARNING, code, message, span, subject)


def has_errors(diagnostics: Iterable[Diagnostic]) -> bool:
    return any(d.severity is Severity.ERROR for d in diagnostics)


# The most digits an integer literal may have: CPython's default limit on
# int() and str(), fixed here so that what the notations read and write is
# the same on every interpreter and under every PYTHONINTMAXSTRDIGITS.
MAX_DIGITS = 4300
# PYTHONINTMAXSTRDIGITS may set int()'s and str()'s limit as low as 640
# digits, so up to that many convert under every setting, and longer runs
# are converted that many digits at a time.
SAFE_DIGITS = 640
_SAFE_BASE = 10 ** SAFE_DIGITS


def read_int(digits: str) -> Optional[int]:
    """The integer a signed run of digits spells, under every
    PYTHONINTMAXSTRDIGITS; None past MAX_DIGITS digits."""
    body = digits.lstrip("+-")
    if len(body) <= SAFE_DIGITS:
        return int(digits)
    if len(body) > MAX_DIGITS:
        return None
    number = 0
    for start in range(0, len(body), SAFE_DIGITS):
        chunk = body[start:start + SAFE_DIGITS]
        number = number * 10 ** len(chunk) + int(chunk)
    return -number if digits.startswith("-") else number


def int_text(number: int) -> str:
    """str(number), under every PYTHONINTMAXSTRDIGITS."""
    if -_SAFE_BASE < number < _SAFE_BASE:
        return str(number)
    rest, chunks = abs(number), []
    while rest >= _SAFE_BASE:
        rest, chunk = divmod(rest, _SAFE_BASE)
        chunks.append(f"{chunk:0{SAFE_DIGITS}d}")
    chunks.append(str(rest))
    return "-" * (number < 0) + "".join(reversed(chunks))


def int_literal(number: int) -> str:
    """The literal read_int takes back as `number`; ValueError past
    MAX_DIGITS digits."""
    # |number| < 2**(3 * MAX_DIGITS) has at most MAX_DIGITS digits
    if number.bit_length() > 3 * MAX_DIGITS and abs(number) >= 10 ** MAX_DIGITS:
        raise ValueError(f"the notation has no literal for an integer of more than "
                         f"{MAX_DIGITS} digits")
    return int_text(number)


# Codes emitted by parsers (as opposed to model-level validation); the CLI
# maps these to its usage/parse exit status.
SYNTAX_CODES = frozenset({
    "syntax",
    "unsupported-construct",
    "bad-value",
    "dup-object",
    "dup-slot",
    "unknown-object",
    "dup-constraint",
})


class ParseResult(Record):
    """Outcome of one parse: a model only when nothing went wrong."""

    def __init__(self, model: Any, diagnostics: Optional[list[Diagnostic]] = None):
        self.model = model
        self.diagnostics = [] if diagnostics is None else diagnostics

    @property
    def ok(self) -> bool:
        return self.model is not None


# What a line keeps before its comment marker: string literals, in which the
# marker is text, and other characters.  Strings are double-quoted with JSON
# escapes; `#`-comment files also hold single-quoted OCL strings.  A quote
# that never closes is an ordinary character.
JSON_STRING = r'"(?:[^"\\]|\\.)*"'
# The characters of a JSON string with nothing to escape (RFC 8259 section
# 7: no quote, backslash or control character; nor a surrogate, which has no
# UTF-8 form), which the object notation reads and writes between quotes as
# is, and an integer int() converts under every PYTHONINTMAXSTRDIGITS: the
# literals the scenario reader takes whole.
PLAIN_CHARS = r'[^"\\\x00-\x1f\ud800-\udfff]*'
INT_CHARS = rf"-?\d{{1,{SAFE_DIGITS}}}"
_BEFORE_COMMENT = {
    "'": (('"',), re.compile(rf"(?:{JSON_STRING}|[^'])*")),
    "#": (('"', "'"), re.compile(rf"(?:{JSON_STRING}|'[^']*'|[^#])*")),
}


def read_lines(text: str, marker: str) -> Iterator[tuple[int, str]]:
    """(1-based line number, content) for each line that is not blank once
    its comment, from `marker` (`'` or `#`) to end of line, is removed and
    surrounding blanks are stripped."""
    quotes, before_comment = _BEFORE_COMMENT[marker]
    for lineno, line in enumerate(text.split("\n"), 1):
        pos = line.find(marker)
        if pos >= 0:
            if any(line.find(q, 0, pos) >= 0 for q in quotes):
                line = before_comment.match(line).group()
            else:
                line = line[:pos]
        line = line.strip()
        if line:
            yield lineno, line


def read_envelope(lines: Iterator[tuple[int, str]], last: int, start: str,
                  end: str, err: Callable[[str, str, int], None]
                  ) -> Iterator[tuple[int, str]]:
    """The lines between `start` and `end` markers, taken from `lines`, whose
    last line number is `last`.  A missing start marker is reported and the
    first line read as content; content after the end marker is reported
    and ends the reading."""
    started = ended = False
    for lineno, line in lines:
        if not started:
            started = True
            if line == start:
                continue
            err("syntax", f"expected {start}", lineno)
        if line == end:
            ended = True
        elif ended:
            err("syntax", f"content after {end}", lineno)
            return
        else:
            yield lineno, line
    if not started:
        err("syntax", f"expected {start}", last)
    elif not ended:
        err("syntax", f"missing {end}", last)
