"""Benchmark of fermiflow: seeded workloads through the public API, outputs checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

NAME is w1_pairs, w1_cap, laws_exact or laws_sampled; `all` runs the four
one after the other, each in a child process of its own, so that every
workload's peak memory is its own. With --trace 0 a run repeats whole
rounds of the workload's instances for at least S seconds (by default
BENCHMARK.json's run_seconds) and reports the end-to-end metrics; with
--trace 1 it runs one round untraced and the same round traced, and
reports the per-layer metrics. The last line of standard output is one
JSON object {correct, attempted, failed, metrics}; the line before it
holds the environment. The run's full record, environment included, goes
to perfbench/runs/ and, traced, its spans to perfbench/traces/.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# one BLAS thread: no higher than the cores of any machine, and steady
# under other load; must be set before numpy is first imported
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

WORKLOADS = ("w1_pairs", "w1_cap", "laws_exact", "laws_sampled")
SETUP_REPEATS = 5
PROBE_TIMEOUT_S = 60


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def setup_probe(workload: str, seed: int) -> None:
    """Print the seconds taken to import fermiflow and build one round of inputs."""
    start = time.perf_counter()
    from perfbench import inputs
    inputs.build(workload, seed)
    print(repr(time.perf_counter() - start))


def setup_seconds(workload: str, seed: int) -> float:
    """Median set-up time over fresh processes, each importing and building anew."""
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            _fail(f"set-up probe failed:\n{proc.stderr.strip()}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def blas_threads_in_use():
    """Threads the loaded OpenBLAS reports, or None where it cannot be asked."""
    import ctypes
    import glob

    import numpy as np
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            if hasattr(lib, name):
                fn = getattr(lib, name)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import platform

    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads_set": BLAS_THREADS,
        "blas_threads_in_use": blas_threads_in_use(),
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def run_seconds() -> int:
    """The run length BENCHMARK.json declares, the one place it is set."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]


def run_workload(workload: str, seed: int, seconds: float, trace: bool, env: dict) -> dict:
    from perfbench import inputs, workloads

    instances = inputs.build(workload, seed)
    if trace:
        outcomes, metrics, spans = workloads.traced_run(workload, instances)
    else:
        setup = setup_seconds(workload, seed)
        outcomes, elapsed = workloads.timed_run(workload, instances, seconds)
        metrics = workloads.end_to_end(outcomes, elapsed)
        metrics["setup_s"] = (setup, "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        spans = None
    result = {
        "correct": all(not o.problems for o in outcomes),
        "attempted": len(outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "environment": env, "result": result,
              "instances": [vars(o) for o in outcomes]}
    tag = f"{workload}_seed{seed}_trace{int(trace)}"
    _write(HERE / "runs" / f"{tag}.json", record)
    if spans is not None:
        _write(HERE / "traces" / f"{tag}.json", spans)
    for o in outcomes:
        for problem in o.problems:
            print(f"CHECK FAILED {workload} {o.label}: {problem}", file=sys.stderr)
    return result


def run_child(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One workload in a fresh process; its result, the last line it prints."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
        stdout=subprocess.PIPE, text=True, cwd=ROOT)
    if proc.returncode != 0:
        _fail(f"workload {workload} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _write(path: Path, doc: dict) -> None:
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fermiflow" / "__init__.py").is_file():
        _fail(f"no fermiflow sources under {ROOT / 'src'}")
    if args.seconds is None:
        args.seconds = run_seconds()
    if args.seconds <= 0:
        _fail("--seconds must be positive")
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    env = environment()
    if args.workload == "all":
        results = {name: run_child(name, args.seed, args.seconds, bool(args.trace))
                   for name in WORKLOADS}
        for name, result in results.items():
            print(json.dumps({"workload": name, **result}))
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{k}": v for name, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), env)
    print(json.dumps({"environment": env, "wall_s": time.perf_counter() - _START}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
