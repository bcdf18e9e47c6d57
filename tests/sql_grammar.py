"""Minimal structural checker for generated schema.sql files.

Accepts exactly the shape the generator promises: a header comment, then
CREATE TABLE blocks whose entries are column definitions, one optional
PRIMARY KEY, and FOREIGN KEY constraints.  Also enforces that referenced
tables are defined before their referencing tables, and that every
constraint names real columns.  Self-references are exempt, and so is a
reference within a cycle of references, which no order of the tables can
avoid: the generator falls back to declaration order there.
"""

import re

_HEADER_RE = re.compile(r"^-- SQL schema for model '[A-Za-z_]\w*'$")
# A table or column name: bare, or delimited (`"order"`, a quote doubled).
_NAME = r'(?:[A-Za-z_]\w*|"(?:[^"]|"")+")'
_NAMES = rf"{_NAME}(?:, {_NAME})*"
_CREATE_RE = re.compile(rf"^CREATE TABLE ({_NAME}) \($")
_COLUMN_RE = re.compile(
    rf"^  ({_NAME}) (INTEGER|REAL|TEXT|BOOLEAN)"
    r"( NOT NULL)?"
    rf"( CHECK \(({_NAME}) IN \('[^']*'(?:, '[^']*')*\)\))?$")
_PK_RE = re.compile(rf"^  PRIMARY KEY \(({_NAMES})\)$")
_FK_RE = re.compile(
    rf"^  FOREIGN KEY \(({_NAMES})\) "
    rf"REFERENCES ({_NAME}) \(({_NAMES})\)$")


def _names(text: str) -> list[str]:
    """The names a `, `-separated list holds, delimited ones unquoted."""
    return [_unquote(m.group()) for m in re.finditer(_NAME, text)]


def _unquote(name: str) -> str:
    return name[1:-1].replace('""', '"') if name.startswith('"') else name


def check_sql(text: str) -> list[str]:
    """Structural problems found in the schema text; empty means it parses."""
    problems: list[str] = []
    lines = text.split("\n")
    if not lines or not _HEADER_RE.match(lines[0]):
        problems.append("missing or malformed header comment")
        return problems
    if lines[-1] != "":
        problems.append("no trailing newline")

    tables: dict[str, set[str]] = {}
    refs: dict[str, set[str]] = {}  # table -> the tables its keys reference
    forward: list[tuple[int, str, str, list[str]]] = []  # to tables not yet defined
    current: str | None = None
    current_cols: set[str] = set()
    pk_seen = False
    pending_constraint_zone = False

    for number, line in enumerate(lines[1:-1], start=2):
        if line == "":
            if current is not None:
                problems.append(f"line {number}: blank line inside a table")
            continue
        m = _CREATE_RE.match(line)
        if m:
            if current is not None:
                problems.append(f"line {number}: CREATE TABLE inside a table")
                continue
            name = _unquote(m.group(1))
            if name in tables:
                problems.append(f"line {number}: duplicate table '{name}'")
            current = name
            current_cols = set()
            pk_seen = False
            pending_constraint_zone = False
            continue
        if current is None:
            problems.append(f"line {number}: statement outside a table: {line!r}")
            continue
        if line == ");":
            tables[current] = current_cols
            current = None
            continue

        body = line[:-1] if line.endswith(",") else line
        column = _COLUMN_RE.match(body)
        if column:
            if pending_constraint_zone:
                problems.append(f"line {number}: column after constraints")
            col_name = _unquote(column.group(1))
            if col_name in current_cols:
                problems.append(f"line {number}: duplicate column '{col_name}'")
            current_cols.add(col_name)
            check_target = column.group(5)
            if check_target is not None and _unquote(check_target) != col_name:
                problems.append(
                    f"line {number}: CHECK names '{check_target}', not the column")
            continue
        pk = _PK_RE.match(body)
        if pk:
            pending_constraint_zone = True
            if pk_seen:
                problems.append(f"line {number}: second PRIMARY KEY")
            pk_seen = True
            for col in _names(pk.group(1)):
                if col not in current_cols:
                    problems.append(
                        f"line {number}: PRIMARY KEY names unknown column '{col}'")
            continue
        fk = _FK_RE.match(body)
        if fk:
            pending_constraint_zone = True
            own_cols = _names(fk.group(1))
            ref_table = _unquote(fk.group(2))
            ref_cols = _names(fk.group(3))
            for col in own_cols:
                if col not in current_cols:
                    problems.append(
                        f"line {number}: FOREIGN KEY names unknown column '{col}'")
            refs.setdefault(current, set()).add(ref_table)
            if ref_table != current:
                if ref_table not in tables:
                    forward.append((number, current, ref_table, ref_cols))
                else:
                    problems += _unknown_columns(number, tables, ref_table, ref_cols)
            if len(own_cols) != len(ref_cols):
                problems.append(f"line {number}: FOREIGN KEY arity mismatch")
            continue
        problems.append(f"line {number}: unrecognized table entry: {line!r}")

    if current is not None:
        problems.append(f"table '{current}' never closed")
    for number, table, ref_table, ref_cols in forward:
        if ref_table in tables and _reaches(refs, ref_table, table):
            problems += _unknown_columns(number, tables, ref_table, ref_cols)
        else:
            problems.append(f"line {number}: references '{ref_table}' before it is "
                            f"defined")
    return problems


def _unknown_columns(number: int, tables: dict[str, set[str]], table: str,
                     cols: list[str]) -> list[str]:
    return [f"line {number}: references unknown column '{table}.{col}'"
            for col in cols if col not in tables[table]]


def _reaches(refs: dict[str, set[str]], start: str, goal: str) -> bool:
    """Whether a chain of references leads from table `start` to `goal`."""
    seen, todo = {start}, [start]
    while todo:
        for ref in refs.get(todo.pop(), ()):
            if ref == goal:
                return True
            if ref not in seen:
                seen.add(ref)
                todo.append(ref)
    return False
