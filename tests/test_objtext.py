import gc
import random
import tracemalloc

import pytest

from modelkit.metamodel import AttributeLink, ClassModel, EnumV, ObjectDef, ObjectModel
from modelkit.objtext import (parse_object_model, parse_value, render_value,
                              serialize_object_model)
from model_gen import random_object_population

EMPTY_MODEL = ClassModel(name="model")


def test_parse_single_object_with_slot():
    text = ('@startobjects\n'
            'object p1 : ProductPassport\n'
            'p1.code = "DPP-001"\n'
            '@endobjects\n')
    result = parse_object_model(text, EMPTY_MODEL)
    assert result.ok
    objects = result.model
    assert len(objects.objects) == 1
    obj = objects.objects[0]
    assert obj.classifier == "ProductPassport"
    assert obj.slots[0].property_name == "code"
    assert obj.slots[0].value == "DPP-001"


def test_a_parsed_link_holds_its_objects_own_id_strings():
    text = ("@startobjects\nobject p1 : P\nobject s1 : S\nobject s2 : S\n"
            "link p1 -- s1 : stages\nlink s2 -- p1 : back\n@endobjects\n")
    population = parse_object_model(text, EMPTY_MODEL).model
    by_id = {obj.id: obj for obj in population.objects}
    assert [link.ends for link in population.links] == [("p1", "s1"), ("s2", "p1")]
    for link in population.links:
        assert type(link.ends) is tuple and len(link.ends) == 2
        for end in link.ends:
            assert type(end) is str and end is by_id[end].id


def test_an_object_model_holds_its_objects_links_and_file():
    """Each element holds only the number of the line it was read from."""
    assert ObjectModel.__slots__ == ("objects", "links", "file")
    text = "@startobjects\nobject a : K\na.s = 1\nlink a -- a : r\n@endobjects\n"
    population = parse_object_model(text, EMPTY_MODEL, filename="p.objs").model
    obj = population.objects[0]
    assert population.file == "p.objs"
    assert (obj.line, obj.slots[0].line, population.links[0].line) == (2, 3, 4)


def _traced_bytes(text: str) -> tuple[int, int]:
    """Bytes still allocated after reading `text`, while its result lives,
    and the most allocated at once while reading it.  Collecting first
    empties CPython's free lists, whose reused objects tracemalloc does not
    see, so that neither figure depends on what ran before."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = parse_object_model(text, EMPTY_MODEL)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.ok and result.model is not None
    return after - before, peak - before


def test_a_parsed_link_retains_under_270_bytes():
    """1 000 objects and 4 000 links: a link's record and ends tuple retain
    about 148 bytes on CPython 3.11, and 334 with a record per end holding
    its own copy of the id string.  Read before the free lists were emptied,
    they retained 120, 176 with the `SourceSpan` links once held, and 362
    with records per end as well."""
    rng = random.Random(21)
    objects = [f"object o{i} : K" for i in range(1000)]
    links = [f"link o{rng.randrange(1000)} -- o{rng.randrange(1000)} : r"
             for _ in range(4000)]
    bare = "\n".join(["@startobjects", *objects, "@endobjects"]) + "\n"
    linked = "\n".join(["@startobjects", *objects, *links, "@endobjects"]) + "\n"
    parse_object_model(linked, EMPTY_MODEL)  # compile and cache what the reader uses
    per_link = (_traced_bytes(linked)[0] - _traced_bytes(bare)[0]) / len(links)
    assert per_link <= 270, f"{per_link:.0f} B retained per link"


def test_empty_population():
    result = parse_object_model("@startobjects\n@endobjects\n", EMPTY_MODEL)
    assert result.ok
    assert result.model.objects == [] and result.model.links == []


def test_duplicate_object_id():
    text = ('@startobjects\n'
            'object p1 : X\n'
            'object p1 : Y\n'
            '@endobjects\n')
    result = parse_object_model(text, EMPTY_MODEL)
    assert result.model is None
    assert [d.code for d in result.diagnostics] == ["dup-object"]
    assert result.diagnostics[0].span.line == 3


def test_duplicate_slot():
    text = ('@startobjects\n'
            'object p1 : X\n'
            'p1.a = 1\n'
            'p1.a = 2\n'
            '@endobjects\n')
    result = parse_object_model(text, EMPTY_MODEL)
    assert [d.code for d in result.diagnostics] == ["dup-slot"]


def test_links_and_forward_reference():
    text = ('@startobjects\n'
            'object a : X\n'
            'link a -- b : r\n'
            'object b : X\n'
            '@endobjects\n')
    result = parse_object_model(text, EMPTY_MODEL)
    assert [d.code for d in result.diagnostics] == ["unknown-object"]


def test_value_literals():
    """Each literal reads as a value of exactly its kind: 1 == True == 1.0."""
    for text, value in [("3", 3), ("-7", -7), ("2.5", 2.5), ("1e3", 1000.0), ("true", True),
                        (" false ", False), ("null", None), ('"hi there"', "hi there"),
                        ('"esc \\" quote"', 'esc " quote'), ("Color::RED", EnumV("Color", "RED"))]:
        parsed = parse_value(text)
        assert type(parsed) is type(value) and parsed == value, text
    for text in ["wat", '"unterminated', '"a" "b"', "1" * 4301, "Color::", "True"]:
        with pytest.raises(ValueError):
            parse_value(text)


def test_a_float_that_overflows_is_a_bad_value():
    """JSON has no infinity, so `1e999` cannot be written back; it is
    rejected where it is read instead of becoming inf."""
    for text in ("1e999", "-1.5e400"):
        with pytest.raises(ValueError):
            parse_value(text)
    assert type(parse_value("1e-999")) is float and parse_value("1e-999") == 0.0
    text = "@startobjects\nobject a : X\na.x = 1e999\n@endobjects\n"
    result = parse_object_model(text, EMPTY_MODEL)
    assert result.model is None
    assert _where(result) == [("bad-value", 3, "malformed value for 'a.x': 1e999")]


def test_roundtrip_random_populations():
    rng = random.Random(53)
    for _ in range(100):
        objects = random_object_population(rng)
        text = serialize_object_model(objects)
        reparsed = parse_object_model(text, EMPTY_MODEL)
        assert reparsed.ok, reparsed.diagnostics
        assert reparsed.model == objects
        assert serialize_object_model(reparsed.model) == text


def test_strings_with_newlines_survive_the_round_trip():
    objects = ObjectModel(objects=[ObjectDef(
        "o1", "K", slots=[AttributeLink("s", 'line1\nline2\t"quoted"')])])
    text = serialize_object_model(objects)
    assert parse_object_model(text, EMPTY_MODEL).model == objects


def _where(result):
    return [(d.code, d.span.line, d.message) for d in result.diagnostics]


def test_marker_characters_inside_strings_survive_the_round_trip():
    values = ["O'Brien", "\\\"'", "a#b", "'", "it's \"quoted\" ' not a comment"]
    objects = ObjectModel(objects=[ObjectDef(
        "o1", "K", slots=[AttributeLink(f"s{i}", v) for i, v in enumerate(values)])])
    text = serialize_object_model(objects)
    reparsed = parse_object_model(text, EMPTY_MODEL)
    assert reparsed.ok, reparsed.diagnostics
    assert reparsed.model == objects


def test_comment_after_a_string_holding_an_apostrophe():
    text = ('@startobjects\n'
            'object p1 : Person\n'
            'p1.name = "O\'Brien" \' the surname\n'
            '@endobjects\n')
    result = parse_object_model(text, EMPTY_MODEL)
    assert result.ok, result.diagnostics
    assert result.model.objects[0].slots[0].value == "O'Brien"


@pytest.mark.parametrize("text, expected", [
    # A missing start marker is reported and its line read as a statement.
    ("a.x = 1\n@endobjects\n",
     [("syntax", 1, "expected @startobjects"),
      ("unknown-object", 1, "slot assigned to undeclared object 'a'")]),
    ("@endobjects\nobject a : X\n",
     [("syntax", 1, "expected @startobjects"), ("syntax", 2, "content after @endobjects")]),
    # Empty input reports the start marker on the last line.
    ("", [("syntax", 1, "expected @startobjects")]),
    ("\n", [("syntax", 2, "expected @startobjects")]),
    # Content after the end marker is reported once and ends the parse.
    ("@startobjects\n@endobjects\nobject a : X\nbogus\n",
     [("syntax", 3, "content after @endobjects")]),
    ("@startobjects\nobject a : X\n", [("syntax", 3, "missing @endobjects")]),
])
def test_envelope_diagnostics(text, expected):
    result = parse_object_model(text, EMPTY_MODEL)
    assert _where(result) == expected
    assert result.model is None


@pytest.mark.parametrize("ends, listed", [(("a", "b", "c"), "3 ends (a, b, c)"),
                                          (("a",), "1 ends (a)")])
def test_a_link_without_exactly_two_ends_is_not_written(ends, listed):
    from modelkit.metamodel import Link, ObjectDef
    objects = ObjectModel(objects=[ObjectDef(i, "K") for i in "abc"],
                          links=[Link("r", ends)])
    with pytest.raises(ValueError) as caught:
        serialize_object_model(objects)
    assert str(caught.value) == \
        f"cannot write link of 'r' with {listed}: the notation holds two"


@pytest.mark.parametrize("number", [float("nan"), float("inf"), float("-inf")])
def test_a_float_that_is_not_finite_is_not_written(number):
    """The reader rejects `nan` and `inf` as bad values, so the writer
    refuses them instead of writing text it cannot read back."""
    with pytest.raises(ValueError) as caught:
        render_value(number)
    assert str(caught.value) == f"the notation has no literal for {number!r}"
    with pytest.raises(ValueError):
        parse_value(repr(number))
    objects = ObjectModel(objects=[ObjectDef("a", "K", [AttributeLink("ok", 1.5),
                                                        AttributeLink("x", number)])])
    with pytest.raises(ValueError) as caught:
        serialize_object_model(objects)
    assert str(caught.value) == \
        f"cannot write slot 'a.x': the notation has no literal for {number!r}"


@pytest.mark.parametrize("value", [[], ObjectDef("o", "K"), 1j, (1,)],
                         ids=["list", "ObjectDef", "complex", "tuple"])
def test_only_none_is_written_as_null(value):
    """A value of no slot kind, put in a slot through the API, is refused
    rather than written as `null`."""
    assert render_value(None) == "null"
    objects = ObjectModel(objects=[ObjectDef("a", "K", [AttributeLink("x", value)])])
    with pytest.raises(ValueError) as caught:
        serialize_object_model(objects)
    assert str(caught.value) == ("cannot write slot 'a.x': the notation has no literal for "
                                 f"a value of type {type(value).__name__}")


BRANDS = ("Acme", "Globex", "Initech", "Umbrella")
STAGES = ("Design", "Manufacture", "Use", "Recycle")


def _passports(rng: random.Random, passports: int) -> str:
    """Passports with three string slots, each linked to one to three stages
    with two: the shape of a digital product passport population."""
    lines, links, stage = ["@startobjects"], [], 0
    for i in range(passports):
        lines += [f"object p{i} : ProductPassport", f'p{i}.code = "DPP-{i:06}"',
                  f'p{i}.product_name = "Model {rng.randint(100, 999)}"',
                  f'p{i}.brand = "{rng.choice(BRANDS)}"']
        for _ in range(rng.randint(1, 3)):
            lines += [f"object s{stage} : {rng.choice(STAGES)}",
                      f's{stage}.stage_id = "S-{stage:07}"',
                      f's{stage}.start_date = "20{rng.randint(10, 24)}-0{rng.randint(1, 9)}-'
                      f'1{rng.randint(0, 9)}"']
            links.append(f"link p{i} -- s{stage} : stages")
            stage += 1
    return "\n".join(lines + links + ["@endobjects"]) + "\n"


def _passports_per_element() -> tuple[float, float]:
    """What reading 2 516 passport objects and links retains and peaks at,
    per element."""
    text = _passports(random.Random(24), 500)
    population = parse_object_model(text, EMPTY_MODEL).model  # compile what the reader uses
    elements = len(population.objects) + len(population.links)
    assert elements == 2516
    retained, peak = _traced_bytes(text)
    return retained / elements, peak / elements


def test_a_parsed_population_retains_under_420_bytes_an_element():
    """The passports' objects and links, each holding the number of its
    line, one string per classifier, property and association name shared
    by every record that names it, and its slot values as plain `str`s,
    retain about 401 bytes an element on CPython 3.11.  With each value
    wrapped in a one-field record, as the reader once made, they retain
    about 457.  With a `SourceSpan` per element as well they read 590, and
    with a copy of the name in each record as well 747, both before the
    free lists were emptied."""
    per_element = _passports_per_element()[0]
    assert per_element <= 420, f"{per_element:.0f} B retained per element"


def test_reading_a_population_peaks_under_800_bytes_an_element():
    """Beside the population it builds, the reader holds the text's lines,
    its objects by id and the slots it has read: about 762 bytes an element
    at the peak on CPython 3.11, and 818 with each slot value wrapped in a
    one-field record."""
    per_element = _passports_per_element()[1]
    assert per_element <= 800, f"{per_element:.0f} B at the peak per element"


def test_every_record_shares_one_string_per_name():
    """Statements the pattern reads, because they have no blanks or a value
    `split` does not read, share their names with the rest as well."""
    text = ("@startobjects\nobject p0 : P\nobject p1:P\nobject p2 : P\n"
            'p0.code = "a"\np1.code="b"\np2.code = 1.5\n'
            "link p0 -- p1 : next\nlink p1--p2:next\nlink p2 -- p0 : next\n@endobjects\n")
    population = parse_object_model(text, EMPTY_MODEL).model
    for names in ([o.classifier for o in population.objects],
                  [o.slots[0].property_name for o in population.objects],
                  [link.association_name for link in population.links]):
        assert len(names) == 3 and all(name is names[0] for name in names), names
