import json
import re
import shlex
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from gridcubes.cli import build_parser, main
from gridcubes.render import CELL_PX, MARGIN
from gridcubes.scenario import load_scenario

from conftest import reference_construction

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "fixtures"
THREE_LEVEL = str(FIXTURES / "three_level.json")
PS4X4 = str(FIXTURES / "ps4x4.json")
AREA = str(FIXTURES / "area_failure.json")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_plan_worked_example(capsys):
    code, out, _ = run(capsys, "plan", "--scenario", THREE_LEVEL, "--region", "G")
    assert code == 0
    assert "+ L2(0,0) + L2(4,4) + L1(2,4) - L0(3,5)" in out
    assert "retrieval set: 4 points" in out


def test_plan_combined(capsys):
    code, out, _ = run(capsys, "plan", "--scenario", THREE_LEVEL,
                       "--region", "G", "--region", "Q2")
    assert code == 0
    assert "retrieval set: 5 points" in out


def test_plan_batched_query_name(capsys):
    # "both" is a named query batching G and Q2
    code, out, _ = run(capsys, "plan", "--scenario", THREE_LEVEL, "--region", "both")
    assert code == 0
    assert "query G:" in out and "query Q2:" in out
    assert "retrieval set: 5 points" in out


def test_plan_infeasible_lists_blocking(capsys):
    code, out, _ = run(capsys, "plan", "--scenario", THREE_LEVEL,
                       "--region", "G", "--fail", "2", "--fail", "4")
    assert code == 0
    assert out.startswith("INFEASIBLE")
    assert "L2(4,0)" in out and "L2(4,4)" in out


def test_plan_dead_node_avoids_its_summaries(capsys):
    # (3,3) is the junction of L1(2,2) and L2(0,0): a dead node loses both
    code, out, _ = run(capsys, "plan", "--scenario", THREE_LEVEL,
                       "--region", "G", "--fail", "node:3,3")
    assert code == 0
    assert "L2(0,0)" not in out and "L1(2,2)" not in out
    assert "query G: + L3(0,0) + L1(2,4) - L2(4,0) - L2(0,4) - L0(3,5) = 175" in out


def test_divide(capsys):
    code, out, _ = run(capsys, "divide", "--scenario", THREE_LEVEL, "--region", "G")
    assert code == 0
    assert "size 5" in out
    assert "2:(0,0)-(3,3)" in out
    # cells in (y0, x0) order of their top-left corners
    assert out.splitlines() == [
        "region G:",
        "  2:(0,0)-(3,3)",
        "  0:(2,4)-(2,4)",
        "  0:(3,4)-(3,4)",
        "  2:(4,4)-(7,7)",
        "  0:(2,5)-(2,5)",
        "  size 5",
    ]


def test_divide_step_region(capsys):
    corner = str(FIXTURES / "corner_demo.json")
    code, out, _ = run(capsys, "divide", "--scenario", corner, "--region", "Z")
    assert code == 0
    assert "size" in out


def test_ps_plan(capsys):
    code, out, _ = run(capsys, "ps-plan", "--scenario", PS4X4, "--region", "R81")
    assert code == 0
    assert "cost 4, value 81" in out
    assert "entry 170" in out


def test_ps_plan_pinch_prints_weight_two(tmp_path, capsys):
    # Two squares meeting only at lattice corner (5,5): the level-1 cell
    # (4,4)-(5,5) holds them diagonally, so entry PS1@(4,4) has weight 2.
    path = tmp_path / "pinch.json"
    path.write_text(json.dumps({
        "schema": 1,
        "grid": {"width": 16, "height": 16, "values": list(range(256))},
        "hierarchy": {"fanouts": [2, 2, 2, 2]},
        "regions": [{"name": "P", "rects": [[2, 2, 4, 4], [5, 5, 7, 7]]}],
    }))
    report_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "ps-plan", "--scenario", str(path), "--region", "P",
                       "--json", str(report_path))
    assert code == 0
    assert "cost 12," in out
    assert "+2 PS1@(4,4) covers (4,4)-(4,4)" in out
    (result,) = json.loads(report_path.read_text())["ps_plan"]
    assert result["cost"] == 12
    assert [t["sign"] for t in result["terms"] if (t["x"], t["y"]) == (4, 4)] == [2]


def test_construct_stats_and_dump(capsys):
    code, out, _ = run(capsys, "construct", "--scenario", THREE_LEVEL,
                       "--mode", "ps", "--dump")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("sent 64 ")
    assert len(lines) == 1 + 64
    # dump line: x y k local stored...
    first = lines[1].split()
    assert first[:3] == ["0", "0", "0"]


def test_construct_single_node(tmp_path, capsys):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({
        "schema": 1,
        "grid": {"width": 1, "height": 1, "values": [5]},
        "hierarchy": {"fanouts": [1]},
    }))
    code, out, _ = run(capsys, "construct", "--scenario", str(path))
    assert code == 0
    assert out.startswith("sent 1 received 0")


@pytest.mark.parametrize("redundant", [False, True])
@pytest.mark.parametrize("mode", ["simple", "ps"])
@pytest.mark.parametrize("fixture", sorted(p.name for p in FIXTURES.glob("*.json")))
def test_construct_dump_matches_the_reference_wave(tmp_path, capsys, fixture, mode, redundant):
    path = str(FIXTURES / fixture)
    scenario = load_scenario(path)
    redundant = redundant or scenario.redundant
    states, sent, received = reference_construction(scenario.values, scenario.config,
                                                    mode, redundant)
    totals = {"sent": sum(sent.values()), "received": sum(received.values()),
              "max_received": max(received.values())}
    expected = [f"sent {totals['sent']} received {totals['received']} "
                f"max-received {totals['max_received']}"]
    expected += [" ".join(str(v) for v in (x, y, st.junction_level, st.local_value) + st.stored)
                 for (x, y), st in states.items()]
    report_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "construct", "--scenario", path, "--mode", mode, "--dump",
                       "--json", str(report_path), *(["--redundant"] if redundant else []))
    assert code == 0
    assert out.splitlines() == expected
    report = json.loads(report_path.read_text())["construct"]
    assert report == dict(totals, mode=mode, redundant=redundant)
    assert all(type(report[key]) is int for key in totals)


def test_recover_estimate(capsys):
    code, out, _ = run(capsys, "recover", "--scenario", AREA, "--region", "Q",
                       "--fail", "cell:1:2,0", "--fail", "cell:1:2,2", "--fail", "cell:1:2,4")
    assert code == 0
    assert "estimate" in out
    assert "requested 4 recovered 8" in out


def test_json_report_roundtrip(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code, _, _ = run(capsys, "plan", "--scenario", THREE_LEVEL, "--region", "G",
                     "--json", str(report_path))
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["schema"] == 1
    scenario = load_scenario(THREE_LEVEL)
    h = scenario.hierarchy()
    (query,) = report["plan"]["queries"]
    total = 0
    for term in query["terms"]:
        cell = h.cell_at(term["level"], (term["x0"], term["y0"]))
        total += term["sign"] * h.value(cell)
    naive = sum(scenario.values.at(p) for p in scenario.region("G").cells)
    assert total == query["value"] == naive



@pytest.mark.parametrize("argv", [
    ("plan", "--scenario", THREE_LEVEL, "--region", "G"),
    ("divide", "--scenario", THREE_LEVEL, "--region", "G", "--region", "Q2"),
    ("ps-plan", "--scenario", PS4X4, "--region", "R81"),
    ("recover", "--scenario", AREA, "--region", "Q",
     "--fail", "cell:1:2,0", "--fail", "cell:1:2,2", "--fail", "cell:1:2,4"),
], ids=lambda argv: argv[0])
def test_json_report_is_one_line_with_sorted_keys(tmp_path, capsys, argv):
    report_path = tmp_path / "report.json"
    code, _, _ = run(capsys, *argv, "--json", str(report_path))
    assert code == 0
    text = report_path.read_text()
    assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"


@pytest.mark.parametrize("option", ["--json", "--svg"])
def test_an_unwritable_output_path_exits_2(tmp_path, capsys, option):
    command = "plan" if option == "--json" else "render"
    target = tmp_path / "no" / "such" / "dir" / "out"
    code, _, err = run(capsys, command, "--scenario", THREE_LEVEL, "--region", "G",
                       option, str(target))
    assert code == 2
    assert f"error: cannot write {target}: No such file or directory" in err
    assert not target.parent.exists()

def test_render_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    for target in (a, b):
        code, _, _ = run(capsys, "render", "--scenario", THREE_LEVEL,
                         "--region", "G", "--svg", str(target), "--plan")
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes().startswith(b"<svg")
    # The shaded squares are the region's locations, each once, row-major.
    shaded = [((int(x) - MARGIN) // CELL_PX, (int(y) - MARGIN) // CELL_PX)
              for x, y in re.findall(r'<rect x="(\d+)" y="(\d+)" width="\d+" height="\d+" '
                                     r'fill="#c9c9c9"/>', a.read_text())]
    region = load_scenario(THREE_LEVEL).region("G")
    assert shaded == sorted(region.cells, key=lambda p: (p[1], p[0]))


def test_render_grid_only(tmp_path, capsys):
    target = tmp_path / "grid.svg"
    code, _, _ = run(capsys, "render", "--scenario", THREE_LEVEL, "--svg", str(target))
    assert code == 0
    assert b"#c9c9c9" not in target.read_bytes()  # no region shading


def test_exit_code_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "plan", "--scenario", str(bad), "--region", "G")
    assert code == 2
    assert "line" in err and "column" in err
    code, _, err = run(capsys, "plan", "--scenario", str(tmp_path / "missing.json"),
                       "--region", "G")
    assert code == 2
    assert "cannot read scenario" in err


def test_exit_code_unknown_region(tmp_path, capsys):
    code, _, err = run(capsys, "plan", "--scenario", THREE_LEVEL, "--region", "nope")
    assert code == 3
    assert "unknown region" in err
    path = tmp_path / "query.json"
    path.write_text(json.dumps(_malformed(queries=[{"name": "q", "regions": ["nope"]}])))
    code, _, err = run(capsys, "plan", "--scenario", str(path), "--region", "R")
    assert code == 3
    assert "unknown region 'nope'" in err


def test_render_without_svg_exits_4(capsys):
    code, _, err = run(capsys, "render", "--scenario", THREE_LEVEL)
    assert code == 4
    assert "render requires --svg" in err


def test_render_takes_at_most_one_region(tmp_path, capsys):
    target = tmp_path / "two.svg"
    code, _, err = run(capsys, "render", "--scenario", THREE_LEVEL, "--region", "G",
                       "--region", "Q2", "--svg", str(target))
    assert code == 4
    assert "render takes at most one --region" in err
    assert not target.exists()


def test_exit_code_bounds_violation(tmp_path, capsys):
    bad = tmp_path / "oob.json"
    bad.write_text(json.dumps({
        "schema": 1,
        "grid": {"width": 4, "height": 4, "values": list(range(16))},
        "hierarchy": {"fanouts": [2]},
        "regions": [{"name": "R", "rects": [[0, 0, 9, 9]]}],
    }))
    code, _, _ = run(capsys, "plan", "--scenario", str(bad), "--region", "R")
    assert code == 4


@pytest.mark.parametrize("spec", ["bogus:1", "cell:4:0,0", "cell:-1:0,0",
                                  "cell:1:8,0", "cell:1:0,-1", "node:a,b"])
def test_exit_code_bad_failure_spec(capsys, spec):
    # The fixture is 8x8 with three levels: level 4 and location (8, 0)
    # are out of range.
    code, _, err = run(capsys, "plan", "--scenario", THREE_LEVEL,
                       "--region", "G", "--fail", spec)
    assert code == 4
    assert spec in err


@pytest.mark.parametrize("command", ["divide", "plan", "ps-plan", "recover"])
def test_exit_code_missing_region(capsys, command):
    code, _, err = run(capsys, command, "--scenario", THREE_LEVEL)
    assert code == 4
    assert f"{command} requires at least one --region" in err


def test_seed_override(tmp_path, capsys):
    path = tmp_path / "rand.json"
    path.write_text(json.dumps({
        "schema": 1,
        "grid": {"width": 4, "height": 4, "random": {"seed": 1, "low": 0, "high": 9}},
        "hierarchy": {"fanouts": [2, 2]},
        "regions": [{"name": "R", "rects": [[0, 0, 3, 3]]}],
    }))
    outs = []
    for seed in ("11", "11", "12"):
        _, out, _ = run(capsys, "plan", "--scenario", str(path), "--region", "R",
                        "--seed", seed)
        outs.append(out)
    assert outs[0] == outs[1]
    assert outs[0] != outs[2]


def _malformed(**changes):
    scenario = {
        "schema": 1,
        "grid": {"width": 4, "height": 4, "values": list(range(16))},
        "hierarchy": {"fanouts": [2]},
        "regions": [{"name": "R", "rects": [[0, 0, 1, 1]]}],
    }
    scenario.update(changes)
    return scenario


@pytest.mark.parametrize("scenario", [
    _malformed(failures=[{"name": "f"}]),
    _malformed(queries=[{"name": "q"}]),
    _malformed(regions=[{"name": "R", "rects": [[0, 0, 1]]}]),
    _malformed(regions=[{"name": "R", "rects": [[0, 0, "a", 1]]}]),
    _malformed(aliases=["x"]),
    _malformed(hierarchy={"fanouts": ["x"]}),
    [1, 2],
    _malformed(grid={"width": "w", "height": 4, "values": list(range(16))}),
    _malformed(grid={"width": 4, "height": 4, "random": 5}),
    _malformed(grid={"width": 4, "height": 4, "values": ["a"] * 16}),
    _malformed(regions=[{"name": ["R"], "rects": []}]),
    _malformed(queries=[{"name": "q", "regions": [["R"]]}]),
    _malformed(failures=[{"name": "f", "fail": "node:0,0"}]),
    _malformed(aliases={"a": 5}),
    _malformed(regions=[{"name": "R", "rects": [[0, 0, 1, 1]]},
                        {"name": "R", "rects": [[2, 2, 3, 3]]}]),
    _malformed(queries=[{"name": "R", "regions": ["R"]}]),
    _malformed(queries=[{"name": "q", "regions": ["R"]}, {"name": "q", "regions": ["R"]}]),
    _malformed(failures=[{"name": "f", "fail": ["node:0,0"]},
                         {"name": "f", "fail": ["node:1,1"]}]),
    _malformed(grid={"width": 2.9, "height": 4, "values": list(range(8))}),
    _malformed(grid={"width": "4", "height": 4, "values": list(range(16))}),
    _malformed(hierarchy={"fanouts": [2.5]}),
    _malformed(grid={"width": 4, "height": 4, "values": [1.5, 2.7, True, "4"] * 4}),
    _malformed(grid={"width": 4, "height": 4, "values": [1.5] + list(range(15))}),
    _malformed(grid={"width": 4, "height": 4, "values": ["4"] + list(range(15))}),
    _malformed(grid={"width": 4, "height": 4, "values": [None] + list(range(15))}),
    _malformed(grid={"width": 4, "height": 4, "values": [2 ** 63] + list(range(15))}),
    _malformed(grid={"width": 4, "height": 4, "values": [2 ** 64] + list(range(15))}),
    _malformed(grid={"width": 4, "height": 4, "random": {"seed": 1, "low": 5, "high": 2}}),
    _malformed(grid={"width": 4, "height": 4, "random": {"seed": 1, "high": 2 ** 70}}),
    _malformed(grid={"width": 4, "height": 4, "random": {"seed": -1}}),
    _malformed(grid={"width": 4, "height": 4, "random": {"seed": 1.5}}),
    _malformed(schema=2),
    _malformed(grid={"width": 4, "height": 4}),
    _malformed(hierarchy={"fanouts": [2], "mode": "fast"}),
    _malformed(schema=True),
    _malformed(grid={"width": 2, "height": 2, "values": [[1, 2], [3, 4]]}),
    _malformed(hierarchy={"fanouts": [2], "redundant": "no"}),
    _malformed(regions=[{"name": "R", "rects": [[0, 0, True, True]]}]),
], ids=["failure-without-fail", "query-without-regions", "short-rect", "string-in-rect",
        "aliases-list", "string-fanout", "top-level-list", "string-width", "random-not-object",
        "string-values", "list-name", "list-query-member", "fail-not-list", "alias-not-string",
        "region-named-twice", "query-named-like-region", "query-named-twice",
        "failure-named-twice", "float-width", "numeric-string-width", "float-fanout",
        "mixed-values", "float-value", "numeric-string-value", "null-value", "value-above-int64",
        "value-above-uint64", "random-low-above-high", "random-high-above-int64",
        "negative-seed", "float-seed", "unsupported-schema", "no-values-or-random",
        "bad-mode", "boolean-schema", "nested-values", "string-redundant", "boolean-rect"])
def test_malformed_scenario_exits_4(tmp_path, capsys, scenario):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(scenario))
    code, _, err = run(capsys, "plan", "--scenario", str(path), "--region", "R")
    assert code == 4
    assert err.startswith("error: ")


def test_a_scenario_that_is_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(json.dumps(_malformed()).encode().replace(b'"R"', b'"R\xff"'))
    code, out, err = run(capsys, "plan", "--scenario", str(path), "--region", "R")
    assert (code, out) == (2, "")
    assert err.startswith("error: scenario is not UTF-8: ") and "0xff" in err


def test_boolean_readings_load_as_integers(tmp_path):
    path = tmp_path / "ones.json"
    path.write_text(json.dumps(_malformed(grid={"width": 4, "height": 4, "values": [True] * 16})))
    values = load_scenario(str(path)).values.array
    assert values.dtype == np.int64 and values.tolist() == [[1] * 4] * 4


# Every option of the command line, with a sample value (None for a flag).
OPTION_VALUES = {"--scenario": THREE_LEVEL, "--region": "G", "--fail": "2", "--mode": "ps",
                 "--redundant": None, "--json": "report.json", "--svg": "out.svg",
                 "--seed": "1", "--dump": None, "--plan": None}
COMMON_OPTIONS = ("--scenario", "--json", "--seed")
# The options each subcommand reads besides the common ones.
OWN_OPTIONS = {
    "divide": ("--region",),
    "plan": ("--region", "--fail"),
    "ps-plan": ("--region",),
    "construct": ("--mode", "--redundant", "--dump"),
    "recover": ("--region", "--fail"),
    "render": ("--region", "--svg", "--plan"),
}
UNREAD = [(command, option) for command, own in OWN_OPTIONS.items()
          for option in OPTION_VALUES if option not in own + COMMON_OPTIONS]


def option_argv(command: str, options) -> list[str]:
    argv = [command]
    for option in options:
        value = OPTION_VALUES[option]
        argv += [option] if value is None else [option, value]
    return argv


def test_each_subcommand_accepts_the_options_it_reads():
    assert len(UNREAD) == 30
    for command, own in OWN_OPTIONS.items():
        args = build_parser().parse_args(option_argv(command, COMMON_OPTIONS + own))
        assert args.command == command


@pytest.mark.parametrize("command,option", UNREAD,
                         ids=[f"{c}{o}" for c, o in UNREAD])
def test_option_a_subcommand_does_not_read_is_a_usage_error(capsys, command, option):
    with pytest.raises(SystemExit) as exc:
        main(option_argv(command, ("--scenario", option)))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def abbreviated_command_lines() -> dict[str, list[str]]:
    """Valid command lines with one option cut to a prefix: the two of the
    worked example, then each option a subcommand reads less its last
    letter."""
    lines = {"plan --scen": ["plan", "--scen", THREE_LEVEL, "--region", "G"],
             "plan --reg": ["plan", "--scenario", THREE_LEVEL, "--reg", "G"]}
    for command, own in OWN_OPTIONS.items():
        for option in COMMON_OPTIONS + own:
            argv = option_argv(command, COMMON_OPTIONS + own)
            argv[argv.index(option)] = option[:-1]
            lines[f"{command} {option[:-1]}"] = argv
    return lines


ABBREVIATED = abbreviated_command_lines()


@pytest.mark.parametrize("argv", ABBREVIATED.values(), ids=ABBREVIATED.keys())
def test_an_abbreviated_option_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def readme_command_lines() -> list[list[str]]:
    text = (ROOT / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    lines = re.sub(r"\\\n", " ", block).splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("gridcubes ")]


def test_readme_and_benchmark_command_lines_parse(monkeypatch):
    lines = readme_command_lines()
    assert {argv[0] for argv in lines} == set(OWN_OPTIONS)
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from workloads import CliWorkload

    paths = SimpleNamespace(scenario_path=Path("scenario.json"), report_path=Path("report.json"))
    for command in ("plan", "divide", "ps-plan"):
        for n_regions in (1, 3):
            lines.append(CliWorkload.request(paths, command, n_regions))
    for argv in lines:
        assert build_parser().parse_args(argv).command == argv[0]
