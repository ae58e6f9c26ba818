"""Replay of recorded CLI transcripts: `divide`, `plan`, `ps-plan` and
`recover` over every region, query, alias and named failure of every
fixture, plus `node:` and `cell:` specs (infeasible ones included) and a few
bad arguments.

`tests/golden/cli.json` holds, per command line, its argv, exit code, stdout
and `--json` report (null when the command fails before writing one). Each
replay's exit code and stdout must match byte for byte, and its report must
match by value, as parsed JSON. The report's layout, one line with sorted
keys, is pinned by `test_json_report_is_one_line_with_sorted_keys` in
`tests/test_cli.py`. To re-record after a deliberate output change, run from
the repository root:

    PYTHONPATH=src python tests/test_cli_golden.py --record
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gridcubes.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "cli.json"


def _node_specs(width: int, height: int) -> list[str]:
    """A corner, a few level junctions and the last node of the grid."""
    picks = [(0, 0), (1, 1), (3, 3), (7, 7), (width - 1, height - 1), (width // 2, 0)]
    return list(dict.fromkeys(f"node:{x},{y}" for x, y in picks if x < width and y < height))


def _cell_specs(width: int, height: int, levels: int) -> list[str]:
    out = []
    for level in range(levels + 1):
        for x, y in ((0, 0), (width - 1, height - 1), (width // 2, height // 2)):
            out.append(f"cell:{level}:{x},{y}")
    return list(dict.fromkeys(out))


def command_lines() -> list[list[str]]:
    """Every recorded argv, built from the fixtures' own names."""
    lines: list[list[str]] = []
    for path in sorted((ROOT / "fixtures").glob("*.json")):
        raw = json.loads(path.read_text())
        rel = f"fixtures/{path.name}"
        width, height = raw["grid"]["width"], raw["grid"]["height"]
        levels = len(raw["hierarchy"]["fanouts"])
        regions = [r["name"] for r in raw.get("regions", [])]
        names = regions + [q["name"] for q in raw.get("queries", [])]
        fail_sets = [list(f["fail"]) for f in raw.get("failures", [])]
        fail_sets += [[alias] for alias in raw.get("aliases", {})]
        fail_sets += [[spec] for spec in _node_specs(width, height)]
        fail_sets += [[spec] for spec in _cell_specs(width, height, levels)]
        fail_sets.append(_node_specs(width, height)[:3])

        def cmd(command, region_names, specs=()):
            argv = [command, "--scenario", rel]
            for name in region_names:
                argv += ["--region", name]
            for spec in specs:
                argv += ["--fail", spec]
            lines.append(argv)

        for command in ("divide", "plan", "ps-plan"):
            for name in names:
                cmd(command, [name])
            cmd(command, regions)
        for name in names:
            for specs in fail_sets:
                cmd("plan", [name], specs)
                cmd("recover", [name], specs)
        # Bad arguments: an unknown region, a node off the grid, a bad spec.
        cmd("plan", ["no-such-region"])
        cmd("recover", regions[:1], [f"node:{width},0"])
        cmd("recover", regions[:1], ["cell:x"])
    return lines


def run_line(argv: list[str], json_path: Path) -> dict:
    """Run one command line from the repository root; return its record."""
    if json_path.exists():
        json_path.unlink()
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv + ["--json", str(json_path)])
    finally:
        os.chdir(cwd)
    report = json.loads(json_path.read_text()) if json_path.exists() else None
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "report": report}


def _load() -> list[dict]:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("record", _load() if GOLDEN.exists() else [],
                         ids=lambda r: " ".join(r["argv"]))
def test_cli_matches_golden(record, tmp_path):
    got = run_line(record["argv"], tmp_path / "report.json")
    assert got == record


def test_module_entry_point_matches_golden(tmp_path):
    record = next(r for r in _load()
                  if r["argv"][0] == "plan" and "--fail" in r["argv"] and r["exit"] == 0)
    report = tmp_path / "report.json"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "gridcubes", *record["argv"],
                           "--json", str(report)], cwd=ROOT, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert (done.returncode, done.stdout) == (record["exit"], record["stdout"])
    assert json.loads(report.read_text()) == record["report"]


def test_golden_covers_every_command_line():
    # A fixture or spec added later shows up here until the file is re-recorded.
    assert [r["argv"] for r in _load()] == command_lines()


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_cli_golden.py --record")
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        records = [run_line(argv, Path(tmp) / "report.json") for argv in command_lines()]
    GOLDEN.parent.mkdir(exist_ok=True)
    # One record per line, so a changed command line is a one-line diff.
    GOLDEN.write_text("[\n" + ",\n".join(json.dumps(r, sort_keys=True) for r in records) + "\n]\n")
    print(f"recorded {len(records)} command lines in {GOLDEN.relative_to(ROOT)}")
