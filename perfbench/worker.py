"""One measured process of the benchmark; prints one JSON line on stdout.

    python3 perfbench/worker.py setup <workload> <seed>
    python3 perfbench/worker.py run   <workload> <seed> <out-dir>
    python3 perfbench/worker.py trace <workload> <seed> <out-dir>

`setup` imports cqdw from the checkout's src/, loads the workload config and
builds its grid, StationaryProblem and linear basis with the builders the
CLI runners use, then reports the wall-clock time at which it was done; the
parent times set-up from the spawn to that moment.
`run` calls `cqdw.cli.main` exactly as `cqdw <sub> --config <file> --out
<dir> --seed <seed>` would, timing the call and taking the process's peak
memory. `trace` does the same with the layer wrappers of tracer.py installed
and adds the per-layer aggregates to the result.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time
from pathlib import Path

from tracer import Tracer, install, layer_metrics
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def import_cqdw():
    src = ROOT / "src"
    if not (src / "cqdw" / "__init__.py").is_file():
        sys.exit(f"perfbench: no cqdw package under {src}")
    sys.path.insert(0, str(src))
    import cqdw.cli

    if Path(cqdw.__file__).resolve().parent != src / "cqdw":
        sys.exit(f"perfbench: imported cqdw from {cqdw.__file__}, not from {src}")
    return cqdw.cli


def environment(config) -> dict:
    """Versions, BLAS and threads, grid size and time step of this process."""
    import numpy as np
    import scipy
    from cqdw.discretization import build_grid

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    nproc = len(os.sched_getaffinity(0))
    return {
        "nproc": nproc,
        "blas": blas_name,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", f"{nproc} (default)"),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "n_points": build_grid(config.grid.half_width, config.grid.spacing).n_points,
        "dt": config.dynamics.dt,
    }


def setup(workload) -> dict:
    cli = import_cqdw()
    config = cli.load_config(workload.config)
    problem = cli._build_problem(config)
    cli._build_basis(problem.grid, cli._build_potential(config))
    return {"ready": time.time()}


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run(workload, seed: int, out: Path, traced: bool) -> dict:
    cli = import_cqdw()
    env = environment(cli.load_config(workload.config))
    tracer = None
    if traced:
        tracer = Tracer()
        install(tracer)
    argv = [workload.subcommand, "--config", str(workload.config),
            "--out", str(out), "--seed", str(seed)]
    cpu0 = cpu_seconds()
    start = time.perf_counter()
    # stdout carries only this process's result line
    with contextlib.redirect_stdout(sys.stderr):
        code = cli.main(argv)
    run_s = time.perf_counter() - start
    result = {
        "exit": code,
        "run_s": run_s,
        "cpu_s": cpu_seconds() - cpu0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": env,
    }
    if tracer is not None:
        result["layers"] = tracer.layers()
        result["metrics"] = layer_metrics(tracer, tracer.total_s("cli.main"))
    return result


def main(argv: list[str]) -> None:
    mode, name, seed = argv[0], argv[1], int(argv[2])
    workload = WORKLOADS[name]
    if mode == "setup":
        result = setup(workload)
    else:
        result = run(workload, seed, Path(argv[3]), mode == "trace")
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
