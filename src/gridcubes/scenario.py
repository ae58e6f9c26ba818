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
"""

from __future__ import annotations

import array
import json
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


def load_scenario(path: str, seed_override: int | None = None) -> Scenario:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as e:
        raise ScenarioError(f"cannot read scenario: {e}", kind="parse") from None
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
            # An int64 buffer refuses floats, strings, None, nested lists and
            # readings beyond int64 by type; a `true` reads as 1.
            readings = np.frombuffer(array.array("q", grid["values"]), dtype=np.int64)
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
        if not all(len(r) == 4 and all(isinstance(v, int) for v in r) for r in rects):
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
