"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload spatial-query --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Builds nothing: the package is imported from `src/` of the checkout that
holds this file, and the run stops with an error when that source is
missing.  With `--trace 0` the last line of standard output carries the
end-to-end metrics of BENCHMARK.json; with `--trace 1` it carries the
per-layer metrics, measured by running every operation once untraced and
once traced.  `--workload all` runs each workload in its own process, one
after another.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracer import clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-up runs in SETUP_SLOTS slots spread evenly over the run, so that its
# median samples the host over the whole run like the operations do.  In a
# slot a cheap set-up repeats until the slot has taken SLOT_SECONDS.
SETUP_SLOTS = 9
SLOT_SECONDS = 0.1
MAX_SLOT_REPEATS = 25
# op_p90_ms needs ten samples above the 90th percentile.
MIN_SAMPLES = 100


def import_package() -> None:
    src = ROOT / "src"
    if not (src / "gridcubes" / "__init__.py").is_file():
        sys.exit(f"perfbench: no gridcubes source in {src}")
    sys.path[:0] = [str(src), str(HERE)]
    import gridcubes

    if Path(gridcubes.__file__).resolve().parent != (src / "gridcubes").resolve():
        sys.exit(f"perfbench: gridcubes imported from {gridcubes.__file__}, not {src}")


def spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        sys.exit(f"perfbench: {path} is missing")
    return json.loads(path.read_text())


def timed(fn, *args):
    start = clock()
    result = fn(*args)
    return result, clock() - start


def set_up(workload, tracer, times: list) -> None:
    """One slot of set-ups; each leaves the workload ready to run."""
    spent = 0.0
    for _ in range(MAX_SLOT_REPEATS):
        if tracer:
            tracer.open(("setup", len(times)))
        times.append(timed(workload.setup)[1])
        if tracer:
            tracer.close()
        spent += times[-1]
        if spent >= SLOT_SECONDS:
            break


def run_workload(workload, seconds: float, tracer=None) -> dict:
    """Run whole rounds for `seconds` of wall time, setting up in slots.

    Returns the raw measurements.  A failed check marks its operation
    failed and the run goes on.
    """
    setup_times = []
    set_up(workload, tracer, setup_times)
    slots = 1
    latencies, untraced, points = [], [], []
    attempted = failed = wrong = known = 0
    start = time.perf_counter()
    deadline = start + seconds
    while time.perf_counter() < deadline:
        for op in workload.make_round():
            if slots < SETUP_SLOTS and time.perf_counter() >= start + seconds * slots / SETUP_SLOTS:
                set_up(workload, tracer, setup_times)
                slots += 1
            index = attempted
            attempted += 1
            prepared = workload.prepare(op)
            try:
                if tracer is None:
                    output, dt = timed(workload.run, prepared)
                else:
                    # Alternate which of the pair runs first; both give the
                    # same output, and the second one is checked.
                    for traced in ((False, True) if index % 2 else (True, False)):
                        if traced:
                            tracer.open(index)
                            output, dt = timed(workload.run, prepared)
                            tracer.close()
                        else:
                            output, plain = timed(workload.run, prepared)
                    untraced.append(plain)
                latencies.append(dt)
                outcome = workload.check(op, prepared, output)
            except Exception as e:  # an operation that raises has failed
                if tracer:
                    tracer.close()
                failed += 1
                print(f"operation {index} failed: {type(e).__name__}: {e}", file=sys.stderr)
                continue
            if outcome.errors and outcome.known_fault:
                failed += 1
                if known == 0:
                    print(f"operation {index} failed by a known fault ({outcome.known_fault}): "
                          f"{'; '.join(outcome.errors[:5])}", file=sys.stderr)
                known += 1
            elif outcome.errors:
                failed += 1
                wrong += 1
                print(f"operation {index} gave a wrong output: {'; '.join(outcome.errors[:5])}",
                      file=sys.stderr)
            else:
                points.append(outcome.points)
    for _ in range(slots, SETUP_SLOTS):
        set_up(workload, tracer, setup_times)
    errors = [f"set-up: {e}" for e in workload.setup_errors()]
    return {"setup": setup_times, "latencies": latencies, "untraced": untraced,
            "points": points, "attempted": attempted, "failed": failed, "wrong": wrong,
            "ops": list(range(attempted)), "errors": errors}


def end_to_end(raw: dict) -> dict[str, float]:
    lat = raw["latencies"]
    if len(lat) < MIN_SAMPLES:
        print(f"warning: {len(lat)} samples; op_p90_ms needs {MIN_SAMPLES}", file=sys.stderr)
    return {
        "setup_s": statistics.median(raw["setup"]),
        "op_p50_ms": statistics.median(lat) * 1000,
        "op_p90_ms": statistics.quantiles(lat, n=10)[8] * 1000,
        "ops_per_s": len(lat) / sum(lat),
        "points_read_per_op": statistics.fmean(raw["points"]) if raw["points"] else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(raw: dict, tracer) -> dict[str, float]:
    """Per-operation times and counts from the trace.

    A function a workload calls only during set-up is reported per set-up;
    one it never calls reads 0.
    """
    from tracer import TARGETS

    ops = raw["ops"]
    setups = [("setup", i) for i in range(len(raw["setup"]))]
    op_incl, op_self = tracer.times(ops)
    set_incl, set_self = tracer.times(setups)
    op_counts, set_counts = tracer.totals(ops), tracer.totals(setups)

    def per_unit(op_value, setup_value):
        if op_value:
            return op_value / len(ops)
        return setup_value / len(setups)

    out = {}
    for module, func, _ in TARGETS:
        name = f"{module}.{func}"
        out[f"{name}.ms"] = 1000 * per_unit(op_incl.get(name, 0), set_incl.get(name, 0))
        out[f"{name}.self_ms"] = 1000 * per_unit(op_self.get(name, 0), set_self.get(name, 0))
    for key in set(op_counts) | set(set_counts):
        out[key] = per_unit(op_counts[key], set_counts[key])

    def ratio(num, den):
        return op_counts[num] / op_counts[den] if op_counts[den] else 0.0

    out["flow.combined_merged_ratio"] = ratio("flow.combined_merged", "flow.combined_calls")
    out["prefix.recolor_win_ratio"] = ratio("prefix.recolor_wins", "prefix.regions")
    out["recovery.exact_plan_ratio"] = ratio("recovery.exact_plans", "recovery.queries")
    plain, traced = sum(raw["untraced"]), sum(raw["latencies"])
    out["trace.overhead_pct"] = 100 * (traced - plain) / plain
    return out


def emit(result: dict, metrics: list[dict], values: dict[str, float]) -> None:
    result["metrics"] = {}
    for m in metrics:
        value = values.get(m["name"], 0.0)
        result["metrics"][m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:36s} {value:14.4f} {m['unit']}")
    print(json.dumps(result))


def run_all(args, bench: dict) -> int:
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in bench["workloads"]:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", w["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{w['name']}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        print(f"== {w['name']}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            merged["metrics"][f"{w['name']}/{name}"] = m
        print(f"attempted {result['attempted']} failed {result['failed']} "
              f"correct {result['correct']}")
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bench = spec()
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    if args.workload == "all":
        return run_all(args, bench)
    if args.workload not in names:
        parser.error(f"--workload must be one of {names} or all")
    import_package()
    from tracer import Tracer
    from workloads import WORKLOADS

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        workload = WORKLOADS[args.workload](args.seed, Path(workdir))
        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install()
        try:
            raw = run_workload(workload, args.seconds, tracer)
        finally:
            if tracer:
                tracer.uninstall()
    for e in raw["errors"]:
        print(e, file=sys.stderr)
    result = {"correct": not raw["errors"] and raw["wrong"] == 0,
              "attempted": raw["attempted"], "failed": raw["failed"]}
    if args.trace:
        emit(result, bench["per_layer"], per_layer(raw, tracer))
    else:
        emit(result, bench["end_to_end"], end_to_end(raw))
    return 0


if __name__ == "__main__":
    sys.exit(main())
