#!/usr/bin/env python3
"""Run one workload of the repo benchmark and print its metrics.

    python3 perfbench/run.py --workload wide_grid_solve --seed 1 --seconds 30 --trace 0

Run from the root of a checkout (the program is imported from ``src/``).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: every end-to-end
metric of ``BENCHMARK.json`` with ``--trace 0``, every per-layer metric with
``--trace 1``, each with its unit.  The line before it records the workload,
seed, sample counts and the host setting (nproc, Python, numpy and BLAS).
``--tiny`` runs the same code paths at sizes meant for the tests.
"""

import time

START = time.perf_counter()  # set-up_s counts from here, before numpy loads

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Single-threaded BLAS: default OpenBLAS threading inside the simulated
#: ranks costs more than 100x on a busy 2-core host.
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def pin_host(tmp: Path) -> None:
    """Pin BLAS threads and drop ambient ``REPRO_*`` settings (before numpy)."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    for var in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[var]
    os.environ["REPRO_FACTOR_CACHE_DIR"] = str(tmp / "factors")
    os.environ["REPRO_RESULTS_DIR"] = str(tmp / "results")


#: Imports the program the way the runner does and prints how long it took.
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import workloads; "
    "print(time.perf_counter() - t)"
)


def import_seconds(in_process: float, src: Path) -> float:
    """Median import time of this process and of two fresh interpreters.

    Imports happen once per process, so set-up repeats them in children (each
    waited for) to report a median like the other set-up steps.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(HERE)]))
    samples = [in_process]
    for _ in range(2):
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            cwd=HERE, env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(probe.stdout))
    return statistics.median(samples)


def host_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def parse_args(argv, spec: dict):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in spec["workloads"]]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="test-sized inputs")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, spec)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {src}", file=sys.stderr)
        return 2
    tmp_parent = ROOT / ".perfbench_tmp"
    tmp_parent.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=tmp_parent))
    try:
        pin_host(tmp)
        sys.path.insert(0, str(src))
        before_import = time.perf_counter()
        import workloads

        imported = time.perf_counter()
        startup_s = before_import - START + import_seconds(imported - before_import, src)
        table = workloads.TINY if args.tiny else workloads.WORKLOADS
        w = table[args.workload]
        trace = bool(args.trace)
        if w.kind == "solve":
            tally, values, info = workloads.run_solve(w, args.seed, args.seconds, trace, startup_s)
        else:
            tally, values, info = workloads.run_serve(
                w, args.seed, args.seconds, trace, startup_s, tmp
            )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_parent.rmdir()
        except OSError:
            pass  # another run still uses it
    wanted = spec["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"perfbench: metrics not produced: {missing}", file=sys.stderr)
        return 3
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        **info,
        "host": host_info(),
    }))
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in wanted
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
