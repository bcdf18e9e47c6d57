"""SQL DDL generator.

Single `schema.sql` artifact.  Mapping rules:

- one CREATE TABLE per concrete class, columns flattened from inherited
  properties (abstract classes contribute columns, never tables);
- int/float/str/bool map to INTEGER/REAL/TEXT/BOOLEAN, enums to TEXT with
  a CHECK over the literals; class-typed properties are unsupported
  (references belong in associations);
- is_id properties form the PRIMARY KEY; a class that is referenced by an
  association but has no is_id gets a synthetic `id INTEGER` key and a
  `synthetic-key` warning (so does a class whose table would otherwise
  have no columns at all);
- an association with a single-valued end (upper bound 1) puts FOREIGN
  KEY columns on the opposite table, named `<role-or-class>_<pk column>`,
  NOT NULL when the referenced end's lower bound is 1; when both ends are
  single-valued the second end holds the key;
- many-to-many associations become a join table named after the
  association, with a composite PRIMARY KEY over both ends' key columns;
- tables are emitted referenced-before-referencing, ties broken by
  declaration order, and a cycle of references is entered at its
  earliest-declared table;
- a table or column name that SQLite reserves (`order`, `Group`) is
  written as a delimited identifier, `"order"`.
"""

from __future__ import annotations

import heapq

from modelkit.codegen import (
    GeneratedArtifact,
    GenerationResult,
    end_name,
    snake_case,
)
from modelkit.diagnostics import Diagnostic, Record, error, warning
from modelkit.index import ModelIndex, graph_cycles
from modelkit.metamodel import Association, ClassModel

_TYPE_MAP = {"int": "INTEGER", "float": "REAL", "str": "TEXT", "bool": "BOOLEAN"}

# The SQLite 3.40.1 keywords that fail as a bare table or column name where
# this generator writes one, in lower case.
_RESERVED = frozenset("""
    add all alter and as autoincrement between case cast check collate commit constraint
    create current_date current_time current_timestamp default deferrable delete distinct
    drop else escape except exists foreign from group having if in index insert intersect
    into is isnull join limit not nothing notnull null on or order primary raise references
    returning select set table then to transaction union unique update using values when
    where""".split())


def _quote(name: str) -> str:
    """`name` as SQLite reads it: quoted when it is a reserved word."""
    return f'"{name}"' if name.lower() in _RESERVED else name


def _quoted(names: list[str]) -> str:
    return ", ".join(map(_quote, names))


class _Table(Record):
    """A table being built: columns as (name, rendered type), keys, and
    foreign keys as (columns, referenced table, referenced columns)."""

    def __init__(self, name: str, order: int,
                 columns: list[tuple[str, str]] | None = None,
                 primary_key: list[str] | None = None,
                 foreign_keys: list[tuple[list[str], str, list[str]]] | None = None):
        self.name, self.order = name, order
        self.columns = [] if columns is None else columns
        self.primary_key = [] if primary_key is None else primary_key
        self.foreign_keys = [] if foreign_keys is None else foreign_keys


def _column_type(index: ModelIndex, type_name: str, column: str) -> str | None:
    kind = index.kind(type_name)
    if kind == "primitive":
        return _TYPE_MAP[type_name]
    if kind == "enum":
        literals = ", ".join(f"'{lit}'" for lit in index.enums[type_name].literals)
        return f"TEXT CHECK ({_quote(column)} IN ({literals}))"
    return None


def _fk_mapping(assoc: Association) -> tuple[int, int] | None:
    """(referenced end index, holder end index) for FK-style associations,
    None for many-to-many."""
    if assoc.ends[0].multiplicity.upper == 1:
        return 0, 1  # when both ends are single-valued, the second holds the key
    if assoc.ends[1].multiplicity.upper == 1:
        return 1, 0
    return None


def generate_sql_ddl(model: ClassModel) -> GenerationResult:
    diags: list[Diagnostic] = []
    index = ModelIndex(model)
    concrete = [c for c in model.classes if not c.is_abstract]

    # Decide how each association maps before building any table, so key
    # synthesis knows which classes must be referenceable.
    fk_assocs: list[tuple[Association, int, int]] = []
    join_assocs: list[Association] = []
    referenced: set[str] = set()
    for assoc in index.binary:
        involved = [index.classes.get(end.target) for end in assoc.ends]
        if any(c is None for c in involved):
            continue  # invalid model; validation reports it
        if any(c.is_abstract for c in involved):
            diags.append(error("gen-unsupported",
                               f"association '{assoc.name}' involves an abstract "
                               f"class and cannot be mapped to tables",
                               subject=assoc.name))
            continue
        mapping = _fk_mapping(assoc)
        if mapping is None:
            bases = [end_name(end) for end in assoc.ends]
            if bases[0] == bases[1]:
                diags.append(error("gen-unsupported",
                                   f"many-to-many association '{assoc.name}' has "
                                   f"indistinguishable ends; give the ends distinct "
                                   f"roles",
                                   subject=assoc.name))
                continue
            join_assocs.append(assoc)
            referenced.update(end.target for end in assoc.ends)
        else:
            ref, _holder = mapping
            fk_assocs.append((assoc, *mapping))
            referenced.add(assoc.ends[ref].target)

    # Key columns per concrete class, synthesizing where required.
    keys: dict[str, list[tuple[str, str]]] = {}
    synthetic: set[str] = set()
    for cls in concrete:
        id_props = [p for p in index.flat(cls.name) if p.is_id]
        if id_props:
            keys[cls.name] = [(p.name, _TYPE_MAP.get(p.type_name, "TEXT"))
                              for p in id_props]
        elif cls.name in referenced:
            keys[cls.name] = [("id", "INTEGER")]
            synthetic.add(cls.name)
            diags.append(warning("synthetic-key",
                                 f"class '{cls.name}' is referenced but has no "
                                 f"identifier property; adding synthetic column 'id'",
                                 subject=cls.name))
        else:
            keys[cls.name] = []

    tables: dict[str, _Table] = {}
    # The lower-case column names of each table: SQLite compares them without case.
    column_names: dict[str, set[str]] = {}

    def new_table(name: str, order: int, subject: str) -> _Table | None:
        if name in tables:
            diags.append(error("name-collision",
                               f"table name '{name}' produced twice after "
                               f"snake_case mangling",
                               subject=subject))
            return None
        table = tables[name] = _Table(name=name, order=order)
        column_names[name] = set()
        return table

    def add_column(table: _Table, name: str, rendered: str, context: str) -> bool:
        names, folded = column_names[table.name], name.lower()
        if folded in names:
            diags.append(error("name-collision",
                               f"column '{name}' appears twice in table "
                               f"'{table.name}' ({context})",
                               subject=f"{table.name}.{name}"))
            return False
        names.add(name if folded == name else folded)  # no copy of a lower-case name
        table.columns.append((name, rendered))
        return True

    class_table: dict[str, str] = {}
    for order, cls in enumerate(concrete):
        table = new_table(snake_case(cls.name), order, cls.name)
        if table is None:
            continue
        class_table[cls.name] = table.name
        if cls.name in synthetic:
            add_column(table, "id", "INTEGER", "synthetic key")
        for prop in index.flat(cls.name):
            rendered = _column_type(index, prop.type_name, prop.name)
            if rendered is None:
                diags.append(error("gen-unsupported",
                                   f"property '{cls.name}.{prop.name}' has "
                                   f"class-typed value '{prop.type_name}'; model it "
                                   f"as an association instead",
                                   subject=f"{cls.name}.{prop.name}"))
                continue
            add_column(table, prop.name, rendered, "declared property")
        table.primary_key = [name for name, _ in keys[cls.name]]
        if not table.columns:
            # A table needs at least one column to be valid SQL.
            add_column(table, "id", "INTEGER", "synthetic key")
            table.primary_key = ["id"]
            keys[cls.name] = [("id", "INTEGER")]
            diags.append(warning("synthetic-key",
                                 f"class '{cls.name}' maps to a table with no "
                                 f"columns; adding synthetic column 'id'",
                                 subject=cls.name))

    def add_foreign_key(table: _Table, referenced_class: str, base: str,
                        required: bool, context: str) -> None:
        """Columns for the referenced class's key and a foreign key over them."""
        cols = []
        for key_name, key_type in keys[referenced_class]:
            rendered = key_type + (" NOT NULL" if required else "")
            col = f"{base}_{key_name}"
            if add_column(table, col, rendered, context):
                cols.append(col)
        if cols:
            table.foreign_keys.append((cols, class_table[referenced_class],
                                       [k for k, _ in keys[referenced_class]]))

    def left_out(assoc: Association) -> bool:
        """Whether a class at an end of `assoc` has no table; reports it."""
        gone = [end.target for end in assoc.ends if end.target not in class_table]
        if gone:
            diags.append(error("gen-unsupported", f"association '{assoc.name}' is left "
                               f"out: class '{gone[0]}' has no table", subject=assoc.name))
        return bool(gone)

    for assoc, ref, holder in fk_assocs:
        if left_out(assoc):
            continue
        end = assoc.ends[ref]
        add_foreign_key(tables[class_table[assoc.ends[holder].target]], end.target,
                        end_name(end), end.multiplicity.lower >= 1,
                        f"association '{assoc.name}'")

    assoc_order = {a.name: i for i, a in enumerate(model.associations)}
    for assoc in join_assocs:
        if left_out(assoc):
            continue
        table = new_table(snake_case(assoc.name),
                          len(concrete) + assoc_order[assoc.name], assoc.name)
        if table is None:
            continue
        for end in assoc.ends:
            add_foreign_key(table, end.target, end_name(end), True,
                            f"association '{assoc.name}'")
        table.primary_key = [name for name, _ in table.columns]

    ordered = _dependency_order(tables)

    lines = [f"-- SQL schema for model '{model.name}'"]
    for table in ordered:
        lines.append("")
        lines.append(f"CREATE TABLE {_quote(table.name)} (")
        entries = [f"  {_quote(name)} {rendered}" for name, rendered in table.columns]
        if table.primary_key:
            entries.append(f"  PRIMARY KEY ({_quoted(table.primary_key)})")
        for cols, ref_table, ref_cols in table.foreign_keys:
            entries.append(f"  FOREIGN KEY ({_quoted(cols)}) REFERENCES "
                           f"{_quote(ref_table)} ({_quoted(ref_cols)})")
        lines.append(",\n".join(entries))
        lines.append(");")

    result = GenerationResult(diagnostics=diags)
    result.artifacts.append(GeneratedArtifact(
        relative_path="schema.sql", content="\n".join(lines) + "\n"))
    return result


def _dependency_order(tables: dict[str, _Table]) -> list[_Table]:
    """Referenced tables first, ties broken by declaration order.  Each step
    emits the earliest-declared table whose dependencies are all emitted
    or, when there is none, the earliest-declared table on a cycle of
    references among the tables left.  A reference to no table is no
    dependency."""
    keys = {name: (t.order, name) for name, t in tables.items()}
    pending: dict[str, int] = {}  # unemitted table -> its unmet dependencies
    dependents: dict[str, list[str]] = {}
    for name, table in tables.items():
        deps = {ref for _, ref, _ in table.foreign_keys if ref in tables} - {name}
        pending[name] = len(deps)
        for dep in deps:
            dependents.setdefault(dep, []).append(name)
    ready = [keys[name] for name, unmet in pending.items() if not unmet]
    heapq.heapify(ready)
    emitted: list[_Table] = []
    while pending:
        if ready:
            name = heapq.heappop(ready)[1]
        else:  # each table left waits, through a chain, on a cycle
            cycles = graph_cycles(pending, lambda t: [r for _, r, _ in tables[t].foreign_keys])
            name = min(keys[t] for comp in cycles for t in comp)[1]
        del pending[name]
        emitted.append(tables[name])
        for dependent in dependents.get(name, ()):
            if dependent in pending:
                pending[dependent] -= 1
                if not pending[dependent]:
                    heapq.heappush(ready, keys[dependent])
    return emitted
