#!/usr/bin/env python3
"""Write the benchmark snapshot ``BENCH_<n>.json`` at the repository root.

Usage: python3 tools/bench_snapshot.py N [--tree TREE]

Measures the crackid source tree TREE (this repository by default), with
one BLAS thread throughout, in three parts:

- the benchmark: TREE's ``perfbench/run.py``, unchanged, once per workload
  of TREE's ``BENCHMARK.json`` with ``--trace 0`` and once with
  ``--trace 1``, each run as long as the benchmark's own ``run_seconds``.
  It keeps the JSON result line of each run, and from the record the
  untraced run appends to ``TREE/.perfbench/results.jsonl`` the quartiles
  of the scaled end-to-end metrics;
- the end-to-end runs: per load case ``measure`` on the default
  configuration and the 200-iteration ``identify`` on that measurement,
  then ``gradient-check`` under the contact load, each the median wall time
  of ``REPEATS`` fresh ``python3 -m crackid`` processes;
- the machine's speed: ``perfbench/instrument.ReferenceKernel``, imported
  unchanged, the median of ``KERNEL_CALLS`` calls.

Writes ``BENCH_N.json`` at the root of the repository that holds this
tool, with the tree's commit (``git describe --always --dirty``, where
TREE is a checkout) and the SHA-256 of its ``src/crackid`` sources.
"""

import os

if __name__ == "__main__":   # one BLAS thread, as perfbench/run.py
    for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_name] = "1"

import argparse  # noqa: E402
import datetime  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 3
KERNEL_CALLS = 5


def result_line(stdout):
    """The JSON result object, the last line a perfbench run prints."""
    return json.loads(stdout.strip().splitlines()[-1])


def quartiles(values):
    """(q1, q3) of the values, inclusive, as ``numpy.percentile``."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def workload_entry(untraced, traced, record):
    """One workload's entry of the snapshot: the result lines of its
    untraced and traced runs, each end-to-end metric with the quartiles of
    the scaled samples behind its median, taken from the untraced run's
    record as ``perfbench/run.py``'s ``end_to_end`` takes that median."""
    imports = record["imports"][1]
    samples = {"setup_s": [imports + s[1] for s in record["setups"]],
               "wall_s": [r[1] for r in record["rounds"]],
               "step_ms.p50": [1e3 * s[1] for s in record["steps"]]}
    end_to_end = {}
    for name, metric in untraced["metrics"].items():
        q1, q3 = quartiles(samples[name])
        end_to_end[name] = dict(metric, q1=q1, q3=q3)
    return {"correct": untraced["correct"] and traced["correct"],
            "attempted": untraced["attempted"], "failed": untraced["failed"],
            "end_to_end": end_to_end, "per_layer": traced["metrics"]}


def benchmark(tree, workload, seconds, trace):
    """(result, record) of one ``perfbench/run.py`` run on ``tree``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True, check=True)
    with open(tree / ".perfbench" / "results.jsonl") as fh:
        record = json.loads(fh.readlines()[-1])
    if (record["workload"], record["trace"]) != (workload, trace):
        raise RuntimeError("the last record of %s is not this run's" % fh.name)
    return result_line(proc.stdout), record


def end_to_end_runs(tree):
    """Median and samples of the wall time of each end-to-end run, in
    fresh processes, the runs of a repeat in the order they depend on."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    times = {}
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        config = work / "empty.cfg"
        config.write_text("")

        def run(name, *argv):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-m", "crackid", *argv, "--config", str(config),
                            "--out", str(work / name)],
                           cwd=work, env=env, check=True, capture_output=True)
            times.setdefault(name, []).append(time.perf_counter() - t0)

        for _ in range(REPEATS):
            for load in ("contact", "stretch"):
                run("measure-" + load, "measure", "--load-case", load)
                run("identify-" + load, "identify", "--load-case", load, "--measurement",
                    str(work / ("measure-" + load) / "measurement.txt"))
            run("gradient-check", "gradient-check")
    return {name: {"median_s": statistics.median(t), "samples_s": t}
            for name, t in times.items()}


def reference_kernel_s(tree):
    sys.path.insert(0, str(tree / "perfbench"))
    from instrument import ReferenceKernel
    kernel = ReferenceKernel()
    return statistics.median(kernel() for _ in range(KERNEL_CALLS))


def source_digest(tree):
    digest = hashlib.sha256()
    for path in sorted((tree / "src" / "crackid").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def commit(tree):
    try:
        return subprocess.run(["git", "describe", "--always", "--dirty"], cwd=tree,
                              capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            return next((line.split(":", 1)[1].strip() for line in fh
                         if line.startswith("model name")), None)
    except OSError:
        return None


def snapshot(n, tree):
    declared = json.loads((tree / "BENCHMARK.json").read_text())
    seconds = declared["run_seconds"]
    workloads, environment = {}, None
    for name in (w["name"] for w in declared["workloads"]):
        untraced, record = benchmark(tree, name, seconds, 0)
        traced, _ = benchmark(tree, name, seconds, 1)
        workloads[name] = workload_entry(untraced, traced, record)
        environment = record["environment"]
    return {
        "n": n,
        "commit": commit(tree),
        "src_sha256": source_digest(tree),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "environment": dict(environment, machine=platform.machine(), cpu=cpu_model()),
        "seconds": seconds,
        "reference_kernel_s": reference_kernel_s(tree),
        "workloads": workloads,
        "runs": end_to_end_runs(tree),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("n", type=int, help="the number in BENCH_<n>.json")
    parser.add_argument("--tree", type=Path, default=ROOT)
    args = parser.parse_args(argv)
    out = ROOT / ("BENCH_%d.json" % args.n)
    data = snapshot(args.n, args.tree.resolve())
    out.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print("wrote %s" % out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
