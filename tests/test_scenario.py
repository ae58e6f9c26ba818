"""The scenario loader reads a grid's readings straight from the text and
gives what json for the whole file gives: the same readings and regions, or
the same error type, kind and message. Each file is loaded by
`load_scenario` and by `reference_load_scenario`, with the text path taking
arrays of any length, and again padded past its length threshold. The text
path takes an array exactly when json reads it as plain integers of at most
18 digits."""

import json
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from gridcubes import scenario
from gridcubes.scenario import load_scenario

from conftest import reference_load_scenario

# A valid array body well past the text path's length threshold.
LONG = ", ".join(str(v) for v in range(1500))
assert len(LONG) > scenario._TEXT_PATH_MIN_CHARS


def outcome(loader, path):
    """What a loader makes of a file: everything it read, or its error."""
    try:
        sc = loader(str(path))
    except Exception as e:  # any error: both loaders must raise the same one
        return type(e), getattr(e, "kind", None), str(e)
    return (sc.values.array.dtype, sc.values.array.tolist(), sc.regions, sc.config,
            sc.mode, sc.redundant, sc.failures, sc.aliases, sc.queries)


def assert_loaders_agree(path, text: str, min_chars: int | None = None) -> None:
    path.write_text(text, encoding="utf-8")
    threshold = scenario._TEXT_PATH_MIN_CHARS if min_chars is None else min_chars
    with mock.patch.object(scenario, "_TEXT_PATH_MIN_CHARS", threshold):
        assert outcome(load_scenario, path) == outcome(reference_load_scenario, path)


def json_readings(body: str):
    """json's reading of an array body, or None where json refuses it."""
    try:
        return json.loads(f"[{body}]")
    except (ValueError, RecursionError):
        return None


def grid_file(body: str) -> str:
    """A one-row scenario whose grid has `body` as its values, sized to the
    readings json finds there."""
    readings = json_readings(body)
    width = max(len(readings), 1) if isinstance(readings, list) else 1
    return (f'{{"schema": 1, "grid": {{"width": {width}, "height": 1, "values": [{body}]}}, '
            f'"hierarchy": {{"fanouts": [1]}}, "regions": [{{"name": "R", "rects": [[0, 0, 0, 0]]}}]}}')


def check_body(body: str) -> None:
    """The text path reads `body` exactly when json reads it as plain
    integers of at most 18 digits, and then reads the same ones."""
    readings = json_readings(body)
    plain = (isinstance(readings, list) and readings != []
             and all(type(v) is int and abs(v) < 10 ** 18 for v in readings))
    ours = scenario._json_integers(body)
    assert (ours is not None) == plain
    if plain:
        assert ours.dtype == "int64" and ours.tolist() == readings


BODIES = {
    "spaced-minus": "- 1", "minus": "-", "space": " ", "empty": "",
    "leading-comma": ",1, 2", "trailing-comma": "1, 2,", "double-comma": "1,, 2",
    "spaced-double-comma": "1, ,2", "split-number": "1 2, 3", "zero-padded": "007",
    "zero-padded-negative": "-01", "negative-zero": "-0", "plus": "+1", "minus-inside": "1-2",
    "minus-inside-and-empty": "1-2,,3", "minus-alone": "1, -, 2", "spaced-minus-last": "1, 2 -",
    "control-whitespace": "\n1\t,\r2 ,\n\t3\r", "space-before-comma": "1 ,2 , 3",
    "true-mixed": "1, true, 2", "false-only": "false", "float": "1.0", "exponent": "1e2",
    "nested": "[1, 2], [3]", "null": "1, null", "string": '"4"', "nan": "1, NaN",
    "vertical-tab": "1,\x0b2", "non-ascii-digit": "1, １",
    "max-18-digits": "999999999999999999, -999999999999999999", "19-digits": "1000000000000000000",
    "int64-max": str(2 ** 63 - 1), "int64-min": str(-2 ** 63), "past-int64": str(2 ** 63),
}


@pytest.mark.parametrize("body", BODIES.values(), ids=BODIES.keys())
def test_fixed_bodies_load_as_json_reads_them(tmp_path, body):
    check_body(body)
    path = tmp_path / "s.json"
    assert_loaders_agree(path, grid_file(body), min_chars=0)
    # Padded past the threshold, with the odd text at either end.
    assert_loaders_agree(path, grid_file(f"{body}, {LONG}"))
    assert_loaders_agree(path, grid_file(f"{LONG}, {body}"))


# Layouts of a file around a long `values` array (VALUES); OTHER is another
# array of as many readings. json keeps the last of duplicate keys.
OTHER = ", ".join(str(v) for v in range(1500, 0, -1))
GRID = '"grid": {"width": 1500, "height": 1, "values": [VALUES]}'
REST = '"hierarchy": {"fanouts": [1]}, "regions": [{"name": "R", "rects": [[0, 0, 0, 0]]}]'
LAYOUTS = {
    "plain": '{"schema": 1, ' + GRID + ", " + REST + "}",
    "duplicate-values-long-first": '{"schema": 1, '
    + GRID.replace("]}", '], "values": [OTHER]}') + ", " + REST + "}",
    "duplicate-values-long-last": '{"schema": 1, '
    + GRID.replace('"values"', '"values": [true], "values"') + ", " + REST + "}",
    "values-on-an-earlier-region": '{"schema": 1, "regions": [{"name": "R", "rects": '
    '[[0, 0, 0, 0]], "values": [VALUES]}], ' + GRID.replace("VALUES", "OTHER")
    + ', "hierarchy": {"fanouts": [1]}}',
    "values-at-the-top-level": '{"values": [VALUES], "schema": 1, '
    + GRID.replace("VALUES", "OTHER") + ", " + REST + "}",
    "values-ending-an-earlier-key": '{"note \\"values": [VALUES], "schema": 1, '
    + GRID.replace("VALUES", "OTHER") + ", " + REST + "}",
    "values-text-in-a-region-name": '{"schema": 1, "regions": [{"name": '
    + json.dumps('x"values": [1, 2') + ', "rects": [[0, 0, 0, 0]]}], ' + GRID
    + ', "hierarchy": {"fanouts": [1]}}',
    "nan-elsewhere": '{"schema": 1, "extra": NaN, ' + GRID + ", " + REST + "}",
    "infinity-after": '{"schema": 1, ' + GRID + ", " + REST + ', "extra": [-Infinity]}',
    "nan-values": '{"schema": 1, "grid": {"width": 1, "height": 1, "values": NaN}, '
    + REST + ', "extra": [VALUES]}',
    "nan-values-after-top-level-values": '{"values": [VALUES], "schema": 1, "grid": '
    '{"width": 1500, "height": 1, "values": NaN}, ' + REST + "}",
    "grid-not-an-object": '{"schema": 1, "grid": [VALUES], ' + REST + "}",
}


@pytest.mark.parametrize("layout", LAYOUTS.values(), ids=LAYOUTS.keys())
def test_where_values_sit_in_the_file_loads_as_json_reads_it(tmp_path, layout):
    text = layout.replace("VALUES", LONG).replace("OTHER", OTHER)
    for min_chars in (None, 0):
        assert_loaders_agree(tmp_path / "s.json", text, min_chars)


NUMBERS = st.one_of(
    st.integers(0, 99), st.integers(-10 ** 18, 10 ** 18), st.integers(-2 ** 64, 2 ** 64)
).map(str)
ODD = st.sampled_from(["-", "+1", "007", "-01", "-0", "0", "1.0", "1e2", "true", "false",
                       "null", '"4"', "[1]", "[]", "NaN", "- 1", "", "1 2", "１", "1-2"])
SEPARATORS = st.sampled_from([",", ", ", ", ", ",\n  ", " ,", " , ", "\r\n,\t", ",,", " ",
                              "", ", ,", ",\x0b"])
EDGES = st.sampled_from(["", "", " ", "\n  ", ",", "\t-"])


@st.composite
def bodies(draw):
    tokens = draw(st.lists(st.one_of(NUMBERS, NUMBERS, ODD), min_size=1, max_size=12))
    seps = [draw(st.one_of(st.just(", "), SEPARATORS)) for _ in tokens[1:]]
    inner = tokens[0] + "".join(s + t for s, t in zip(seps, tokens[1:]))
    return draw(EDGES) + inner + draw(EDGES)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(bodies())
def test_drawn_bodies_load_as_json_reads_them(tmp_path_factory, body):
    check_body(body)
    path = tmp_path_factory.getbasetemp() / "drawn.json"
    assert_loaders_agree(path, grid_file(body), min_chars=0)
