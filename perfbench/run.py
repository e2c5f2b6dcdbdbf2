"""Benchmark of the cqdw pipeline, measured from outside the program.

    python3 perfbench/run.py --workload branches --seed 1 --seconds 10 --trace 0

Runs from any directory; the program is imported from the checkout's src/.
With --trace 0 it measures set-up SETUP_REPEATS times, each in a fresh
process, then runs the workload's CLI command in fresh processes until
--seconds have passed (at least once), and reports the end-to-end metrics
of BENCHMARK.json as medians. With --trace 1 it makes the same untraced runs
and then one traced run, and reports the per-layer metrics. The outputs of
every run are checked (see workloads.py). The last stdout line is the JSON
result; everything before it is for people. Exits 2 without a result when a
process cannot be measured at all.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, hash_tree, ledger_for, output_checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 9
CHILD_TIMEOUT_S = 170


class BenchError(RuntimeError):
    """A measured process failed to start, crashed or printed no result."""


def spawn(*args: str) -> dict:
    """Run worker.py to completion and return its result line."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{' '.join(args)}: no result after {CHILD_TIMEOUT_S} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    lines = stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{' '.join(args)}: worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def setup_seconds(workload: str, seed: int) -> float:
    """Spawn of a fresh worker to the moment it reports the workload built."""
    spawned = time.time()
    return spawn("setup", workload, str(seed))["ready"] - spawned


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    return loose.read_text().strip() if loose.is_file() else "unknown"


def metric_specs(trace: bool) -> list[dict]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    out_root = OUT / workload
    shutil.rmtree(out_root, ignore_errors=True)
    out_root.mkdir(parents=True)
    ledger = ledger_for(OUT / "ledger", WORKLOADS[workload], ROOT / "src" / "cqdw")
    checks = []

    def checked(result: dict, out: Path) -> dict:
        checks.extend(output_checks(workload, result["exit"], out))
        checks.append(ledger.check(seed, hash_tree(out)))
        return result

    setups = []
    if not trace:
        setups = [setup_seconds(workload, seed) for _ in range(SETUP_REPEATS)]
    runs = []
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < seconds:
        out = out_root / f"run{len(runs)}"
        runs.append(checked(spawn("run", workload, str(seed), str(out)), out))
    traced = None
    if trace:
        out = out_root / "traced"
        traced = checked(spawn("trace", workload, str(seed), str(out)), out)
        traced["artifact_bytes"] = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
    ledger.save()
    return {"setups": setups, "runs": runs, "traced": traced, "checks": checks}


def end_to_end(m: dict) -> dict[str, float]:
    runs = m["runs"]
    return {
        "run_s": statistics.median(r["run_s"] for r in runs),
        "setup_s": statistics.median(m["setups"]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }


def per_layer(m: dict) -> dict[str, float]:
    traced = m["traced"]
    values = dict(traced["metrics"])
    values["cli.artifact_bytes"] = traced["artifact_bytes"]
    values["cli.cpu_s"] = traced["cpu_s"]
    values["cli.trace_overhead_s"] = traced["run_s"] - statistics.median(
        r["run_s"] for r in m["runs"]
    )
    return values


def report(workload: str, seed: int, m: dict, values: dict, specs: list[dict]) -> None:
    env = dict(m["runs"][0]["env"], commit=git_commit(), seed=seed, workload=workload)
    print("environment: " + json.dumps(env, sort_keys=True))
    for k, r in enumerate(m["runs"]):
        print(f"run {k}: run_s {r['run_s']:.4f} s, cpu {r['cpu_s']:.2f} s, "
              f"peak rss {r['peak_rss_mb']:.1f} MiB, exit {r['exit']}")
    if m["setups"]:
        print("setup_s samples: " + ", ".join(f"{s:.4f}" for s in m["setups"]))
    if m["traced"] is not None:
        wall = m["traced"]["run_s"]
        print(f"traced run: {wall:.4f} s")
        print(f"  {'layer':<15} {'count':>9} {'total s':>10} {'self s':>10} {'share':>7}")
        layers = m["traced"]["layers"]
        for layer, row in sorted(layers.items(), key=lambda kv: -kv[1]["self"]):
            print(f"  {layer:<15} {row['count']:>9} {row['total']:>10.4f} "
                  f"{row['self']:>10.4f} {row['self'] / wall:>7.1%}")
    failed = [c for c in m["checks"] if not c.ok]
    for c in failed:
        print(f"FAILED {c.message}")
    print(f"checks: {len(m['checks']) - len(failed)}/{len(m['checks'])} passed")
    print(f"metrics ({workload}):")
    for spec in specs:
        print(f"  {spec['name']:<36} {values[spec['name']]:>14.6g} {spec['unit']}")
    print(f"  {'fail_frac':<36} {len(failed) / len(m['checks']):>14.6g} ratio")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    trace = bool(args.trace)
    specs = metric_specs(trace)
    try:
        m = measure(args.workload, args.seed, args.seconds, trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    values = per_layer(m) if trace else end_to_end(m)
    report(args.workload, args.seed, m, values, specs)
    failed = sum(not c.ok for c in m["checks"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(m["checks"]),
        "failed": failed,
        "metrics": {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
