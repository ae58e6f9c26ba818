"""Scenario-driven command line front end.

Subcommands: divide, plan, ps-plan, construct, recover, render. Output is
line oriented; --json additionally writes a machine-readable report, one
line of JSON with sorted keys. Each subcommand accepts only the options it
reads, spelled in full. A `--fail node:` spec is a dead node to both `plan`
and `recover`; a `cell:` spec is a lost data point (`FailureSet.points`) to
`plan` and a dead area (`FailureSet.cells`) to `recover`. Exit codes: 0
success, 2 scenario parse error, usage error or an output file that cannot
be written, 3 unresolved name, 4 bounds or validation error, 1 unexpected
failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import cache

from .division import greedy_divide
from .errors import (BoundsError, ConfigError, GridCubesError, InfeasibleError,
                     ScenarioError, ValidationError)
from .flow import FailureSet, QueryPlan, combined_plan, plan_query
from .hierarchy import Cell, color_tree
from .prefix import build_ps_cube, ps_query_plan
from .protocol import run_construction
from .recovery import plan_with_failures
from .render import render_svg
from .scenario import Scenario, load_scenario

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_PARSE = 2
EXIT_NAME = 3
EXIT_VALIDATION = 4


def _cell_json(cell: Cell) -> dict:
    b = cell.bounds
    return {"level": cell.level, "x0": b.x0, "y0": b.y0, "x1": b.x1, "y1": b.y1}


def _value_json(v):
    if isinstance(v, Fraction):
        return {"exact": f"{v.numerator}/{v.denominator}", "approx": float(v)}
    return v


def _term_str(point, sign) -> str:
    """Signed term such as '+ L2(0,0)'; a coefficient other than 1 is shown,
    as in '+2 PS1@(4,4)'."""
    coefficient = abs(sign) if abs(sign) != 1 else ""
    return f"{'+' if sign > 0 else '-'}{coefficient} {point.label()}"


def _plan_lines(plan: QueryPlan) -> str:
    if not plan.terms:
        return f"(empty) = {plan.value}"
    body = " ".join(_term_str(p, s) for p, s in plan.terms)
    return f"{body} = {plan.value}"


def _write(path: str, text: str) -> None:
    """Writes an output file in one call. Its text is complete before the
    file is opened, so a failed write never leaves part of a report."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as e:
        raise ScenarioError(f"cannot write {path}: {e.strerror}", kind="parse") from None


def cmd_divide(scenario: Scenario, args, report: dict) -> int:
    h = scenario.hierarchy()
    results = []
    for name in scenario.expand_query_names(args.region):
        cover = greedy_divide(h, scenario.region(name))
        print(f"region {name}:")
        for cell in cover.cells:
            b = cell.bounds
            print(f"  {cell.level}:({b.x0},{b.y0})-({b.x1},{b.y1})")
        print(f"  size {cover.size}")
        results.append({"region": name, "size": cover.size,
                        "cells": [_cell_json(c) for c in cover.cells]})
    report["divide"] = results
    return EXIT_OK


def cmd_plan(scenario: Scenario, args, report: dict) -> int:
    h = scenario.hierarchy()
    failures = scenario.failure_set(args.fail)
    # To the planner a `cell:` spec is a lost data point; its nodes stay alive.
    failed = FailureSet.of(failures.nodes, points=failures.cells)
    names = scenario.expand_query_names(args.region)
    out = {"queries": [], "infeasible": False}
    try:
        trees = [color_tree(h, scenario.region(name)) for name in names]
        result = combined_plan(trees, h, failed_cells=failed)
    except InfeasibleError as e:
        blocking = " ".join(sorted(c.label() for c in e.blocking))
        print(f"INFEASIBLE {blocking}")
        out["infeasible"] = True
        out["blocking"] = [_cell_json(c) for c in sorted(
            e.blocking, key=lambda c: (c.level, c.bounds.y0, c.bounds.x0))]
        report["plan"] = out
        return EXIT_OK
    for name, plan in zip(names, result.plans):
        print(f"query {name}: {_plan_lines(plan)}")
        out["queries"].append({
            "region": name, "size": plan.size, "value": _value_json(plan.value),
            "terms": [dict(_cell_json(c), sign=s) for c, s in plan.terms]})
    print(f"retrieval set: {len(result.retrieval)} points")
    out["retrieval_size"] = len(result.retrieval)
    out["retrieval"] = [_cell_json(c) for c in sorted(
        result.retrieval, key=lambda c: (-c.level, c.bounds.y0, c.bounds.x0))]
    report["plan"] = out
    return EXIT_OK


def cmd_ps_plan(scenario: Scenario, args, report: dict) -> int:
    ps = build_ps_cube(scenario.values, scenario.config)
    results = []
    for name in scenario.expand_query_names(args.region):
        plan = ps_query_plan(ps, scenario.region(name))
        print(f"query {name}: cost {plan.size}, value {plan.value}")
        terms = []
        for point, sign in plan.terms:
            c = point.covered
            print(f"  {_term_str(point, sign)} "
                  f"covers ({c.x0},{c.y0})-({c.x1},{c.y1}) entry {ps.entry(point)}")
            terms.append({"level": point.cell.level,
                          "x": point.location[0], "y": point.location[1],
                          "covered": [c.x0, c.y0, c.x1, c.y1],
                          "sign": sign, "entry": ps.entry(point)})
        results.append({"region": name, "cost": plan.size,
                        "value": _value_json(plan.value), "terms": terms})
    report["ps_plan"] = results
    return EXIT_OK


def cmd_construct(scenario: Scenario, args, report: dict) -> int:
    mode = args.mode or scenario.mode
    redundant = args.redundant or scenario.redundant
    states, stats = run_construction(scenario.values, scenario.config,
                                     mode=mode, redundant=redundant)
    sent = stats.total_messages
    print(f"sent {sent} received {stats.total_received} "
          f"max-received {stats.max_received}")
    if args.dump:
        for (x, y) in scenario.dims.coords():
            st = states[(x, y)]
            vals = " ".join(str(v) for v in (st.local_value,) + st.stored)
            print(f"{x} {y} {st.junction_level} {vals}")
    report["construct"] = {"mode": mode, "redundant": redundant,
                           "sent": sent,
                           "received": stats.total_received,
                           "max_received": stats.max_received}
    return EXIT_OK


def cmd_recover(scenario: Scenario, args, report: dict) -> int:
    h = scenario.hierarchy()
    failures = scenario.failure_set(args.fail)
    results = []
    for name in scenario.expand_query_names(args.region):
        res = plan_with_failures(h, failures, scenario.region(name))
        if isinstance(res, QueryPlan):
            print(f"query {name}: exact plan {_plan_lines(res)}")
            results.append({"region": name, "kind": "exact-plan",
                            "value": _value_json(res.value), "points_read": res.size})
            continue
        kind = res.kind.value
        print(f"query {name}: {kind} value {res.value} "
              f"requested {len(res.requested_area)} recovered {len(res.recovered_area)} "
              f"reads {res.points_read}")
        results.append({"region": name, "kind": kind,
                        "value": _value_json(res.value),
                        "requested_area": len(res.requested_area),
                        "recovered_area": len(res.recovered_area),
                        "points_read": res.points_read})
    report["recover"] = results
    return EXIT_OK


def cmd_render(scenario: Scenario, args, report: dict) -> int:
    if not args.svg:
        raise ValidationError("render requires --svg PATH")
    if len(args.region) > 1:
        raise ValidationError("render takes at most one --region")
    h = scenario.hierarchy()
    region = scenario.region(args.region[0]) if args.region else None
    plan = None
    if args.plan and region is not None:
        plan = plan_query(h, region)
    svg = render_svg(h, region, plan)
    _write(args.svg, svg)
    print(f"wrote {args.svg}")
    report["render"] = {"path": args.svg, "bytes": len(svg)}
    return EXIT_OK


# Per subcommand: its handler, whether it needs a --region, and the options
# it reads besides --scenario, --json and --seed; it accepts no others.
COMMANDS = {
    "divide": (cmd_divide, True, ("--region",)),
    "plan": (cmd_plan, True, ("--region", "--fail")),
    "ps-plan": (cmd_ps_plan, True, ("--region",)),
    "construct": (cmd_construct, False, ("--mode", "--redundant", "--dump")),
    "recover": (cmd_recover, True, ("--region", "--fail")),
    "render": (cmd_render, False, ("--region", "--svg", "--plan")),
}

OPTIONS = {
    "--region": {"action": "append", "default": []},
    "--fail": {"action": "append", "default": []},
    "--mode": {"choices": ["simple", "ps"]},
    "--redundant": {"action": "store_true"},
    "--svg": {},
    "--dump": {"action": "store_true"},
    "--plan": {"action": "store_true", "help": "overlay the min-cut plan when rendering"},
}


@cache
def build_parser() -> argparse.ArgumentParser:
    """Built once: argparse copies an `append` default before adding to it."""
    parser = argparse.ArgumentParser(
        prog="gridcubes", allow_abbrev=False,
        description="Multiresolution cube queries over 2-D sensor grids")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, options) in COMMANDS.items():
        p = sub.add_parser(name, allow_abbrev=False)
        p.add_argument("--scenario", required=True)
        p.add_argument("--json", dest="json_path")
        p.add_argument("--seed", type=int)
        for option in options:
            p.add_argument(option, **OPTIONS[option])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler, needs_region, _ = COMMANDS[args.command]
    try:
        scenario = load_scenario(args.scenario, seed_override=args.seed)
        if needs_region and not args.region:
            raise ValidationError(f"{args.command} requires at least one --region")
        report = {"schema": 1, "command": args.command, "scenario": args.scenario}
        code = handler(scenario, args, report)
        if args.json_path:
            # Without `indent`, json runs its C encoder: several times faster
            # than the pure-Python one that any indent selects.
            _write(args.json_path, json.dumps(report, sort_keys=True) + "\n")
        return code
    except ScenarioError as e:
        print(f"error: {e}", file=sys.stderr)
        return {"parse": EXIT_PARSE, "name": EXIT_NAME}.get(e.kind, EXIT_VALIDATION)
    except (BoundsError, ValidationError, ConfigError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except GridCubesError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_UNEXPECTED


if __name__ == "__main__":
    sys.exit(main())
