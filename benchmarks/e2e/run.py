"""Host-clock end-to-end benchmark for ``@parallelize`` programs.

One workload, as the benchmark driver calls it::

    python3 benchmarks/e2e/run.py --workload q4_join --seed 31 \\
        --seconds 15 --trace 0

prints human-readable lines and, last on standard output, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, every per-layer metric with
``--trace 1``.  Without ``--workload`` it runs all six workloads, both
passes each.  Either way it exits non-zero when a job failed or tracing
cost more than 10 %.  See ``README.md`` beside this file.

This process only supervises.  Every measurement happens in a child
process (``--child``) with a guarded environment, started one after
another.  A timed run is split over ``FRESH_PROCESSES`` of them: each
measures set-up (process start to the end of the warm-up job) and then
its share of ``--seconds``, and the samples are pooled.  A traced run is
one child.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib.metadata
import importlib.util
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

for _path in (SRC, HERE):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import layers  # noqa: E402 - needs HERE on the path; standard library only

#: everything one invocation starts must be over by then (the driver
#: allows 180 s)
RUN_DEADLINE_S = 170.0
TRACE_OVERHEAD_LIMIT = 1.10
#: children a timed run is split over: ``setup_s`` is the median of
#: that many set-ups, and the job samples see that many process layouts
FRESH_PROCESSES = 5
#: below this many jobs fewer than ten lie beyond the 80th percentile
MIN_JOBS = 50


# -- the child: one workload, measured ---------------------------------------


def child_main(args: argparse.Namespace) -> int:
    import resource

    import harness
    from workloads import SCALES, WORKLOADS

    wl = WORKLOADS[args.workload]()
    try:
        wl.setup(args.seed, SCALES[args.scale], os.environ["TMPDIR"])
        result: dict = {"setup_s": time.time() - args.spawned_at}
        if args.child == "timed":
            result.update(harness.timed_pass(wl, args.seconds / FRESH_PROCESSES))
            result["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            )
        elif args.child == "traced":
            trace_path = os.path.join(OUT, f"trace_{args.workload}.jsonl")
            meta = {"workload": args.workload, **json.loads(args.meta)}
            result.update(
                harness.traced_pass(wl, args.seconds, trace_path, meta)
            )
    finally:
        wl.close()
    print(json.dumps(result))
    return 0


# -- the supervisor -----------------------------------------------------------


def provenance(args: argparse.Namespace) -> dict:
    commit = "unknown"
    if os.path.exists(os.path.join(ROOT, ".git")):
        found = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            check=False,
        )
        if found.returncode == 0:
            commit = found.stdout.strip()
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "commit": commit,
    }


def guarded_env(tmpdir: str) -> dict[str, str]:
    """The children's environment: no ``REPRO_*`` knob leaks in, temp
    files stay inside the checkout, string hashing is fixed."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["TMPDIR"] = tmpdir
    env["PYTHONHASHSEED"] = "0"
    return env


_PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Make this process the parent of orphaned descendants (Linux).

    ``multiprocessing``'s resource tracker outlives the child that
    started it by a moment; adopted, it can be waited for like the rest.
    """
    try:
        ctypes.CDLL(None).prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def run_child(
    args: argparse.Namespace,
    mode: str,
    k: int,
    env: dict[str, str],
    deadline: float,
) -> dict:
    """Start child ``k`` of a run, wait for it, return the JSON it
    printed last.

    Each child draws its own inputs from the run's seed.  The same seed
    still gives the same five data sets, and a run's medians rest on
    five inputs instead of one: between runs that differ only in the
    seed, the inputs moved the job metrics more than the host did.
    """
    command = [
        sys.executable,
        os.path.abspath(__file__),
        "--child", mode,
        "--workload", args.workload,
        "--seed", str(args.seed * FRESH_PROCESSES + k),
        "--seconds", str(args.seconds),
        "--scale", args.scale,
        "--meta", args.meta,
        "--spawned-at", repr(time.time()),
    ]  # fmt: skip
    proc = subprocess.Popen(
        command,
        env=env,
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{args.workload}: child exceeded the run deadline")
    finally:
        # The child's own exit already waited for its pool workers; this
        # catches whatever a crash or the deadline left behind.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        try:
            while True:
                os.waitpid(-1, 0)
        except ChildProcessError:
            pass
    if proc.returncode != 0:
        raise SystemExit(
            f"{args.workload}: child exited with code {proc.returncode}"
        )
    return json.loads(stdout.strip().splitlines()[-1])


def pool_timed(parts: list[dict]) -> tuple[dict, dict]:
    """One run's end-to-end metrics from its children's samples, and the
    same job metrics in seconds as measured.

    Every child sets up from scratch and then measures its share of
    ``--seconds``, so one run sees several process layouts and several
    moments of the host, and ``setup_s`` gets one sample per child.
    """
    walls = [wall for part in parts for wall in part["walls"]]
    rels = [rel for part in parts for rel in part["rels"]]
    attempted = sum(part["attempted"] for part in parts)
    correct = attempted - sum(part["failed"] for part in parts)
    bounded = {
        "setup_s": median(part["setup_s"] for part in parts),
        "job_wall_rel_p50": median(rels),
        "job_wall_rel_p80": layers.percentile(rels, 80),
        "throughput_rel": correct / sum(part["busy_rel"] for part in parts),
        "peak_rss_mb": median(part["peak_rss_mb"] for part in parts),
    }
    seconds = {
        "job_wall_s_p50": (median(walls), "s"),
        "job_wall_s_p80": (layers.percentile(walls, 80), "s"),
        "jobs_per_s": (correct / sum(part["busy_s"] for part in parts), "1/s"),
        "spin_s": (median(s for part in parts for s in part["spins"]), "s"),
    }
    return bounded, seconds


def run_workload(args: argparse.Namespace) -> tuple[dict, dict]:
    """One workload, one pass: the driver-contract result object, and
    what else to print as ``{name: (value, unit)}``."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    tmpdir = os.path.join(OUT, f"tmp-{args.workload}-{os.getpid()}")
    os.makedirs(tmpdir, exist_ok=True)
    env = guarded_env(tmpdir)
    extra: dict = {}
    try:
        if args.trace:
            result = run_child(args, "traced", 0, env, deadline)
            attempted, failed = result["attempted"], result["failed"]
            metrics = result["metrics"]
        else:
            parts = [
                run_child(args, "timed", k, env, deadline)
                for k in range(FRESH_PROCESSES)
            ]
            attempted = sum(part["attempted"] for part in parts)
            failed = sum(part["failed"] for part in parts)
            bounded, extra = pool_timed(parts)
            metrics = {
                name: {"value": bounded[name], "unit": unit}
                for name, unit in layers.END_TO_END_UNITS.items()
            }
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, extra


def report(args: argparse.Namespace, result: dict, extra: dict) -> int:
    """Print one pass's metrics by name; the exit status it earns."""
    workload = args.workload
    share = result["failed"] / result["attempted"]
    print(
        f"{workload}: attempted={result['attempted']} "
        f"failed={result['failed']} failed_share={share:.4f}"
    )
    for name, metric in result["metrics"].items():
        print(f"  {name:<48} {metric['value']:>16.6f} {metric['unit']}")
    for name, (value, unit) in extra.items():
        print(f"  {name + ' (as measured)':<48} {value:>16.6f} {unit}")
    status = 0
    if not result["correct"]:
        print(f"FAIL {workload}: {result['failed']} job(s) failed", file=sys.stderr)
        status = 1
    if args.scale == "full":
        # At the tiny scale a job is a few milliseconds: the wrappers'
        # fixed cost is a real share of it and N says nothing.
        overhead = result["metrics"].get("bench.trace_overhead_ratio")
        if overhead and overhead["value"] > TRACE_OVERHEAD_LIMIT:
            print(
                f"FAIL {workload}: tracing overhead {overhead['value']:.3f} "
                f"> {TRACE_OVERHEAD_LIMIT}",
                file=sys.stderr,
            )
            status = 1
        if not args.trace and result["attempted"] < MIN_JOBS:
            print(
                f"warning: {workload}: only {result['attempted']} jobs in "
                f"{args.seconds} s, so job_wall_rel_p80 has fewer than ten "
                "samples beyond it",
                file=sys.stderr,
            )
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload (default: all six)")
    parser.add_argument("--seed", type=int, default=31)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--no-trace", action="store_true", help="all-workloads mode: skip the traced pass"
    )
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--child", choices=("timed", "traced"), help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--meta", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no source tree at {SRC}", file=sys.stderr)
        return 2
    if importlib.util.find_spec("numpy") is None:
        # Without numpy ``auto`` silently measures the row plane.
        print("error: the benchmark needs numpy", file=sys.stderr)
        return 2
    if args.child:
        return child_main(args)

    if args.workload is not None and args.workload not in layers.WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; one of {', '.join(layers.WORKLOADS)}"
        )
    os.makedirs(OUT, exist_ok=True)
    adopt_orphans()
    args.meta = json.dumps(provenance(args))
    print(f"# {args.meta}")

    if args.workload is not None:
        result, extra = run_workload(args)
        status = report(args, result, extra)
        print(json.dumps(result))
        return status

    status = 0
    for workload in layers.WORKLOADS:
        args.workload = workload
        for trace in (0,) if args.no_trace else (0, 1):
            args.trace = trace
            status |= report(args, *run_workload(args))
    return status


if __name__ == "__main__":
    sys.exit(main())
