"""Scenario files: JSON descriptions of grid, hierarchy, regions and failures.

Schema (version 1):

    {
      "schema": 1,
      "grid": {"width": W, "height": H,
               "values": [row-major integers]           # or
               "random": {"seed": S, "low": A, "high": B}},
      "hierarchy": {"fanouts": [F1, F2, ...],
                    "mode": "simple" | "ps",            # optional, default simple
                    "redundant": false},                # optional, true or false
      "regions":  [{"name": N, "rects": [[x0,y0,x1,y1], ...]}, ...],
      "queries":  [{"name": N, "regions": [region names]}, ...],   # optional
      "aliases":  {"label": "cell:LEVEL:x,y" | "node:x,y", ...},   # optional
      "failures": [{"name": N, "fail": [SPEC | alias, ...]}, ...]  # optional
    }

Values are row-major with y as the outer index, matching the top-left origin.
Every number is a JSON integer (a `true` among the readings reads as 1).
Failure SPECs are `node:x,y` or `cell:LEVEL:x,y` with (x, y) in the cell.

The file is UTF-8 text. Its grid's readings are read on one path: numpy
turns the `values` array straight from the text into one int64 array, and
json parses the rest of the file. An array that is short, or that holds
anything but JSON integers of at most 18 digits, falls through to json for
the whole file, and `array.array` converts the readings it gives. So do a
duplicate `values` key, a `values` key ahead of the grid's, and a `NaN` or
`Infinity` anywhere in the file. Both paths give the same readings, and the
fall-through gives the messages and exit codes json's path always gave.
"""

from __future__ import annotations

import array
import json
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import ScenarioError
from .flow import FailureSet
from .grid import GridDims, GridValues, RectilinearRegion, region_from_rectangles
from .hierarchy import CubeHierarchy, HierarchyConfig, build_hierarchy, cell_of


@dataclass
class Scenario:
    values: GridValues
    config: HierarchyConfig
    mode: str
    redundant: bool
    regions: dict[str, RectilinearRegion]
    failures: dict[str, list[str]]       # name -> raw specs
    aliases: dict[str, str] = field(default_factory=dict)
    queries: dict[str, list[str]] = field(default_factory=dict)  # name -> region names
    _hierarchy: CubeHierarchy | None = None

    @property
    def dims(self) -> GridDims:
        return self.config.dims

    def hierarchy(self) -> CubeHierarchy:
        if self._hierarchy is None:
            self._hierarchy = build_hierarchy(self.values, self.config)
        return self._hierarchy

    def region(self, name: str) -> RectilinearRegion:
        try:
            return self.regions[name]
        except KeyError:
            raise ScenarioError(f"unknown region {name!r}", kind="name") from None

    def expand_query_names(self, names) -> list[str]:
        """Region names with query names expanded to their region batches."""
        out: list[str] = []
        for name in names:
            if name in self.queries:
                out.extend(self.queries[name])
            else:
                out.append(name)
        return out

    def resolve_spec(self, spec: str):
        """A failure spec or alias -> ('node', coord) or ('cell', Cell)."""
        spec = self.aliases.get(spec, spec)
        parts = spec.split(":")
        try:
            if parts[0] == "node" and len(parts) == 2:
                x, y = (int(v) for v in parts[1].split(","))
                if not self.dims.contains((x, y)):
                    raise ScenarioError(f"node {spec!r} outside grid", kind="validation")
                return "node", (x, y)
            if parts[0] == "cell" and len(parts) == 3:
                level = int(parts[1])
                x, y = (int(v) for v in parts[2].split(","))
                if not 0 <= level <= self.config.height:
                    raise ScenarioError(f"bad level in {spec!r}", kind="validation")
                if not self.dims.contains((x, y)):
                    raise ScenarioError(f"cell {spec!r} outside grid", kind="validation")
                return "cell", cell_of(self.config, level, (x, y))
        except ValueError:
            pass
        raise ScenarioError(f"bad failure spec {spec!r}", kind="validation")

    def failure_set(self, specs) -> FailureSet:
        nodes, cells = [], []
        for spec in specs:
            kind, obj = self.resolve_spec(spec)
            (nodes if kind == "node" else cells).append(obj)
        return FailureSet.of(nodes, cells)

    def named_failure(self, name: str) -> FailureSet:
        try:
            specs = self.failures[name]
        except KeyError:
            raise ScenarioError(f"unknown failure set {name!r}", kind="name") from None
        return self.failure_set(specs)


def _object(obj, context) -> dict:
    if not isinstance(obj, dict):
        raise ScenarioError(f"{context} must be a JSON object")
    return obj


def _require(obj, key, context, expected=object):
    if key not in _object(obj, context):
        raise ScenarioError(f"missing {key!r} in {context}", kind="validation")
    if not isinstance(obj[key], expected):
        raise ScenarioError(f"{key!r} in {context} must be a {expected.__name__}")
    return obj[key]


def _list(obj, context, item=object) -> list:
    """obj as a JSON list whose entries are all of type `item`."""
    if not isinstance(obj, list) or not all(isinstance(v, item) for v in obj):
        of = "" if item is object else f" of {item.__name__}"
        raise ScenarioError(f"{context} must be a list{of}")
    return obj


def _int(value, context) -> int:
    if type(value) is not int:
        raise ScenarioError(f"{context} must be an integer, got {value!r}")
    return value


def _unique(name: str, taken, kind: str) -> str:
    if name in taken:
        raise ScenarioError(f"{kind} name {name!r} used twice", kind="validation")
    return name


# A `values` array shorter than this many characters is left to json, whose
# cost per reading is below numpy's fixed cost per call there. The two cost
# the same at about 3,000 characters, some 770 two-digit readings (2-core
# Xeon VM, Python 3.11, numpy 2.4). A 16x16 grid's array has about 1,000
# characters and a 256x256 grid's about 260,000.
_TEXT_PATH_MIN_CHARS = 4096
_JSON_SPACE = " \t\n\r"
# A `values` member up to its array's opening bracket.
_VALUES_KEY = re.compile(r'"values"[ \t\n\r]*:[ \t\n\r]*\[')


def _parse(text: str):
    """`json.loads(text)`, with the grid's `values` array read by numpy.

    The first `values` array in the text is cut out and json parses the rest,
    with the constant `NaN` in the array's place. The cut-out array is used
    only when that marker is the one constant json met and it sits at the
    grid's effective `values` member, and when `_json_integers` reads the
    array. Anything else, such as a duplicate key, `values` on another object
    or a reading that is not a plain integer, takes `json.loads(text)`.
    """
    found = len(text) >= _TEXT_PATH_MIN_CHARS and _VALUES_KEY.search(text)
    if found:
        start = found.end()
        stop = text.find("]", start)
        if stop - start >= _TEXT_PATH_MIN_CHARS:
            marker = object()
            constants = []

            def constant(name):
                constants.append(name)
                return marker

            try:
                raw = json.loads(text[:start - 1] + "NaN" + text[stop + 1:],
                                 parse_constant=constant)
            except (ValueError, RecursionError):
                raw = None
            grid = raw.get("grid") if isinstance(raw, dict) else None
            if len(constants) == 1 and isinstance(grid, dict) and grid.get("values") is marker:
                readings = _json_integers(text[start:stop])
                if readings is not None:
                    grid["values"] = readings
                    return raw
    return json.loads(text)


def _json_integers(body: str) -> np.ndarray | None:
    """The text between a JSON array's brackets as int64 readings, when it
    holds one or more JSON integers of at most 18 digits, which int64 holds
    exactly; None for any other text."""
    body = body.strip(_JSON_SPACE)
    if not body or not body.isascii():
        return None
    text = body.encode("ascii")
    a = np.frombuffer(text, np.uint8)
    digit = a - 48 < 10  # uint8 wraps: any byte but '0'-'9' lands at 10 or above
    comma, minus = a == 44, a == 45
    space = a == 32
    for c in (10, 13, 9):
        space |= a == c
    token = digit | minus
    if not (token | comma | space).all():
        return None
    # A minus opens its token, no 0 that opens a number has a digit after it,
    # and no number has 19 digits: runs of 2, 4, 8, 16 and then 19 digits.
    lead = (a[:-1] == 48) & digit[1:]
    lead[1:] &= ~digit[:-2]
    run = digit
    for k in (1, 2, 4, 8, 3):
        run = run[:-k] & run[k:]
    if (minus[1:] & token[:-1]).any() or lead.any() or run.any():
        return None
    # One more run of digits than commas. As a minus only opens a token, the
    # text between two commas, or before the first or after the last, holds
    # two runs only where whitespace splits them, which needs whitespace after
    # a token character. Without it, each such stretch holds exactly one run.
    if np.count_nonzero(digit[1:] > digit[:-1]) + digit[0] != np.count_nonzero(comma) + 1:
        return None
    if (space[1:] & token[:-1]).any():
        # No run of whitespace lies between two token characters.
        edges = np.flatnonzero(space[1:] != space[:-1])
        if ((a[edges[::2]] != 44) & (a[edges[1::2] + 1] != 44)).any():
            return None
    return np.fromstring(text, dtype=np.int64, sep=",")


def load_scenario(path: str, seed_override: int | None = None) -> Scenario:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = _parse(fh.read())
    except OSError as e:
        raise ScenarioError(f"cannot read scenario: {e}", kind="parse") from None
    except UnicodeDecodeError as e:
        raise ScenarioError(f"scenario is not UTF-8: {e}", kind="parse") from None
    except json.JSONDecodeError as e:
        raise ScenarioError(
            f"scenario parse error at line {e.lineno}, column {e.colno}: {e.msg}",
            kind="parse") from None

    schema = _object(raw, "scenario").get("schema")
    if type(schema) is not int or schema != 1:
        raise ScenarioError("unsupported or missing schema version", kind="validation")
    grid = _require(raw, "grid", "scenario")
    dims = GridDims(_int(_require(grid, "width", "grid"), "grid width"),
                    _int(_require(grid, "height", "grid"), "grid height"))
    try:
        if "values" in grid:
            readings = grid["values"]
            if not isinstance(readings, np.ndarray):
                # An int64 buffer refuses floats, strings, None, nested lists
                # and readings beyond int64 by type; a `true` reads as 1.
                readings = np.frombuffer(array.array("q", readings), dtype=np.int64)
            values = GridValues.from_flat(dims, readings)
        elif "random" in grid:
            spec = _object(grid["random"], "random")
            seed = seed_override if seed_override is not None else \
                _int(_require(spec, "seed", "random"), "seed")
            low, high = _int(spec.get("low", 0), "low"), _int(spec.get("high", 9), "high")
            if low > high:
                raise ValueError(f"random low {low} exceeds high {high}")
            values = GridValues.random(dims, seed, low, high)
        else:
            raise ScenarioError("grid needs 'values' or 'random'", kind="validation")
    except (TypeError, OverflowError, ValueError) as e:
        raise ScenarioError(f"bad grid values: {e}") from None

    hier = _require(raw, "hierarchy", "scenario")
    fanouts = _list(_require(hier, "fanouts", "hierarchy"), "fanouts")
    config = HierarchyConfig(dims, tuple(_int(f, "fanout") for f in fanouts))
    mode = hier.get("mode", "simple")
    if mode not in ("simple", "ps"):
        raise ScenarioError(f"bad hierarchy mode {mode!r}", kind="validation")
    redundant = hier.get("redundant", False)
    if not isinstance(redundant, bool):
        raise ScenarioError(f"'redundant' must be true or false, got {redundant!r}")

    regions = {}
    for entry in _list(raw.get("regions", []), "regions"):
        name = _unique(_require(entry, "name", "region", str), regions, "region")
        rects = _list(_require(entry, "rects", f"region {name!r}"), f"rects of {name!r}", list)
        if not all(len(r) == 4 and all(type(v) is int for v in r) for r in rects):
            raise ScenarioError(f"each rect of {name!r} must be four integers x0,y0,x1,y1")
        regions[name] = region_from_rectangles(
            [((r[0], r[1]), (r[2], r[3])) for r in rects], dims)

    failures = {}
    for e in _list(raw.get("failures", []), "failures"):
        name = _unique(_require(e, "name", "failure", str), failures, "failure")
        failures[name] = _list(_require(e, "fail", "failure"), "failure specs", str)
    queries = {}
    for e in _list(raw.get("queries", []), "queries"):
        # Queries and regions share the --region namespace.
        name = _unique(_require(e, "name", "query", str), regions | queries, "region or query")
        queries[name] = _list(_require(e, "regions", "query"), "query regions", str)
    for name, members in queries.items():
        for member in members:
            if member not in regions:
                raise ScenarioError(
                    f"query {name!r} references unknown region {member!r}", kind="name")
    aliases = _object(raw.get("aliases", {}), "aliases")
    if not all(isinstance(v, str) for v in aliases.values()):
        raise ScenarioError("alias targets must be strings")
    return Scenario(values, config, mode, redundant, regions, failures, dict(aliases), queries)
