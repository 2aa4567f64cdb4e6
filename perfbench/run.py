"""Benchmark of the crackid identification loop.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload identify-contact --seed 1 --seconds 30 --trace 0

Runs one workload through the ``crackid`` subcommands, called in-process,
checks its outputs and prints one JSON object as the last line of standard
output: ``correct``, ``attempted`` and ``failed`` operations and the
metrics. With ``--trace 0`` these are the end-to-end metrics (``setup_s``,
``wall_s``, ``step_ms.p50``); with ``--trace 1`` the per-layer metrics of
``instrument.PER_LAYER``, taken with every public function of the program's
modules wrapped. The inputs are fixed configurations and crackid takes no
random input, so ``--seed`` is recorded but changes nothing.

A run sets up ``SETUP_REPEATS`` times, then repeats whole rounds of the
workload for about ``--seconds`` seconds, never starting a round that the
median round so far says would end later. End-to-end times are scaled to a
reference machine speed, measured next to them with a fixed sparse LU that
does not involve crackid (``instrument.ReferenceKernel``). Each run appends
a record with its environment and raw times to ``.perfbench/results.jsonl``;
outputs go to ``.perfbench/work/``. See README.md in this directory.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:    # before numpy loads: the BLAS reads them once
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402
from unittest import mock  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
try:
    import numpy as np  # noqa: E402
    import scipy  # noqa: E402
    from crackid import cli, driver  # noqa: E402
except ImportError as exc:
    sys.exit("perfbench: cannot import crackid from %s: %s" % (ROOT / "src", exc))

from instrument import (REFERENCE_S, LayerTracer, ReferenceKernel,  # noqa: E402
                        StepTimer, per_layer_metrics)

T_IMPORTED = time.perf_counter()

PREFIX = 10          # identification iterations per round (n_max)
NODES = 9            # interior interface nodes the gradient check probes
SETUP_REPEATS = 3
GRADIENT_TOL = 0.05  # the CLI's own agreement tolerance
VI_PRODUCT_TOL = 1e-8
WORK = ROOT / ".perfbench"


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------

def check_contact_vi(z, aset, mesh, mu):
    """Problems with the contact VI conditions of the PDAS state."""
    interior = mesh.interface_interior()
    jump2 = mesh.jump(z.values, 1)[interior]
    lam = aset.lam[interior]
    roundoff = 1e-12 * float(np.max(np.abs(z.values)))
    problems = []
    if np.min(jump2) < -roundoff:
        problems.append("PDAS state penetrates: min [[u]]_2 = %.3e" % np.min(jump2))
    if np.max(lam) > 0.0:
        problems.append("PDAS multiplier positive: max lambda = %.3e" % np.max(lam))
    product = float(np.max(np.abs(lam * jump2)))
    if product > VI_PRODUCT_TOL * mu:
        problems.append("PDAS complementarity: max |lambda [[u]]_2| = %.3e" % product)
    return problems


def read_rows(text):
    return list(csv.DictReader(io.StringIO(text)))


def check_identify_log(text):
    """(failed operations, problems) of one iterations.csv.

    Every iteration 0..PREFIX must be logged, J must fall strictly at each
    one, and the final shape-error ratio must be below 1.
    """
    rows = read_rows(text)
    failed, problems = set(range(len(rows), PREFIX + 1)), []
    if failed:
        problems.append("%d of %d iterations missing" % (len(failed), PREFIX + 1))
    J = [float(r["J"]) for r in rows]
    for n in range(1, len(rows)):
        if not J[n] < J[n - 1]:
            failed.add(n)
            problems.append("J does not decrease at iteration %d: %r -> %r"
                            % (n, J[n - 1], J[n]))
    if rows and not float(rows[-1]["shape_error_ratio"]) < 1.0:
        failed.add(len(rows) - 1)
        problems.append("final shape-error ratio %s is not below 1"
                        % rows[-1]["shape_error_ratio"])
    return len(failed), problems


def check_gradient_csv(text):
    """(failed operations, problems) of one gradient_check.csv.

    Recomputes the agreement: the analytic derivative must lie within 5% of
    the central difference at the smaller step, and the two steps'
    differences within 5% of each other. A failing node fails its 4 probes.
    """
    rows = read_rows(text)
    bad, problems = max(0, NODES - len(rows)), []
    if bad:
        problems.append("%d of %d nodes missing" % (bad, NODES))
    for r in rows:
        ana, coarse, fine = (float(r[k]) for k in ("analytic", "fd_coarse", "fd_fine"))
        rel = abs(ana - fine) / max(abs(ana), abs(fine), 1e-30)
        steps = abs(coarse - fine) / max(abs(coarse), abs(fine), 1e-30)
        if not (rel <= GRADIENT_TOL and steps <= GRADIENT_TOL):
            bad += 1
            problems.append("node s = %s: analytic vs fd %.2e, step agreement %.2e"
                            % (r["s_H"], rel, steps))
    return 4 * bad, problems


def check_newton_steps(text, newton_steps):
    """The traced Newton steps of one round must equal the logged ones."""
    logged = sum(int(r["penalty_iters"]) for r in read_rows(text))
    if logged != newton_steps:
        return ["traced newton steps %d != sum of penalty_iters %d"
                % (newton_steps, logged)]
    return []


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------

class Identify:
    """A fixed prefix of the reference identification under one load."""

    ops = PREFIX + 1

    def __init__(self, load_case):
        self.load_case = load_case
        self.pdas = None

    def install(self, patches, timer):
        timer.install_identify(patches, driver)
        synthesize = driver.synthesize_measurement

        def capture(config):
            result = synthesize(config)
            self.pdas = config, result
            return result

        patches.enter_context(
            mock.patch.object(driver, "synthesize_measurement", capture))

    def setup(self, work):
        cfg = work / "identify.cfg"
        cfg.write_text("[penalty]\neps = 1e-8\n[geometry]\nh_measure = 0.01\n"
                       "[algorithm]\nload_case = %s\nn_max = %d\n"
                       % (self.load_case, PREFIX))
        rc = cli.main(["measure", "--config", str(cfg), "--out", str(work / "measure")])
        if rc != 0:
            return ["measure exited %d" % rc]
        config, (_, z, aset, _, mesh) = self.pdas
        return check_contact_vi(z, aset, mesh, config.elasticity().mu_L)

    def round(self, work):
        return cli.main(["identify", "--config", str(work / "identify.cfg"),
                         "--measurement", str(work / "measure" / "measurement.txt"),
                         "--out", str(work / "identify")])

    def output(self, work):
        return work / "identify" / "iterations.csv"

    def check(self, text):
        return check_identify_log(text)


class GradientCheck:
    """The reference gradient-check under the contact load."""

    ops = 4 * NODES    # 2 steps x 2 central-difference probes per node

    def install(self, patches, timer):
        timer.install_probes(patches, cli, driver)

    def setup(self, work):
        (work / "gradient.cfg").write_text(
            "[penalty]\neps = 1e-8\n[geometry]\nh_measure = 0.01\n"
            "[algorithm]\nload_case = contact\n")
        return []

    def round(self, work, corrupt_sign=False):
        argv = ["gradient-check", "--config", str(work / "gradient.cfg"),
                "--out", str(work / "gradient-check")]
        return cli.main(argv + (["--corrupt-sign"] if corrupt_sign else []))

    def output(self, work):
        return work / "gradient-check" / "gradient_check.csv"

    def check(self, text):
        return check_gradient_csv(text)


WORKLOADS = {
    "identify-contact": lambda: Identify("contact"),
    "identify-stretch": lambda: Identify("stretch"),
    "gradient-check": GradientCheck,
}


# ----------------------------------------------------------------------
# Runner
# ----------------------------------------------------------------------

def environment():
    """What the figures depend on besides the code."""
    tasks = Path("/proc/self/task")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "process_threads": len(list(tasks.iterdir())) if tasks.is_dir() else None,
    }


def fresh_dir(path):
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


def instrument(workload, trace, reference=None):
    """Install the step timer and, if ``trace``, the layer tracer under it;
    returns (patches, timer, tracer or None). Closing the ``ExitStack``
    ``patches`` removes them."""
    patches, timer = contextlib.ExitStack(), StepTimer(reference)
    tracer = LayerTracer() if trace else None
    if tracer:
        tracer.install(patches)
    workload.install(patches, timer)
    return patches, timer, tracer


def end_to_end(imports, setups, rounds, steps, k):
    """The end-to-end metrics from (raw, scaled) second pairs: raw for
    ``k`` = 0, scaled to the reference machine speed for ``k`` = 1."""
    def median(pairs):    # 0 only where a round raised before its first step
        return statistics.median(p[k] for p in pairs) if pairs else 0.0

    return {
        "setup_s": {"value": median([imports]) + median(setups), "unit": "s"},
        "wall_s": {"value": median(rounds), "unit": "s"},
        "step_ms.p50": {"value": 1e3 * median(steps), "unit": "ms"},
    }


def run(name, seconds, trace):
    """Set up and run one workload; returns (result, record).

    Untraced, the reference kernel is timed before every operation and
    after the imports and each set-up; its own time is kept out of the
    times it scales. Traced, it is not run and scaled times equal raw ones.
    An exception in a set-up or a round is reported as a problem, and a
    round that raises fails all its operations.
    """
    workload = WORKLOADS[name]()
    work = fresh_dir(WORK / "work" / name)
    reference = None if trace else ReferenceKernel()
    patches, timer, tracer = instrument(workload, trace, reference)
    begin = tracer.begin if tracer else (lambda kind: None)

    def timed_alone(seconds):
        """(raw, scaled) for a stretch with no kernel timings inside."""
        if not reference:
            return seconds, seconds
        ref = statistics.median(reference() for _ in range(3))
        return seconds, seconds * REFERENCE_S / ref

    problems, setups, rounds, walls = [], [], [], []
    attempted = failed = 0
    first = None
    imports = timed_alone(T_IMPORTED - T_START)
    with patches, contextlib.redirect_stdout(io.StringIO()):
        for _ in range(SETUP_REPEATS):
            begin("setup")
            t0 = time.perf_counter()
            try:
                problems += workload.setup(work)
            except Exception as exc:
                problems.append("set-up raised %r" % exc)
            setups.append(timed_alone(time.perf_counter() - t0))
        timed = time.perf_counter()
        while not walls or (time.perf_counter() - timed
                            + statistics.median(walls) <= seconds):
            out = workload.output(work)
            out.unlink(missing_ok=True)
            begin("round")
            t0 = time.perf_counter()
            try:
                rc, raised = workload.round(work), None
            except Exception as exc:
                rc, raised = None, exc
            t1 = time.perf_counter()
            walls.append(t1 - t0)
            rounds.append(reference.scaled_span(t0, t1)
                          if reference else (t1 - t0, t1 - t0))
            data = out.read_bytes() if out.exists() else b""
            text = data.decode()
            if raised is None:
                bad, why = workload.check(text)
            else:
                bad, why = workload.ops, ["round raised %r" % raised]
            attempted += workload.ops
            failed += bad
            problems += why
            if raised is None and rc != 0 and not bad:
                problems.append("exit code %d with outputs that pass" % rc)
            if first is None:
                first = data
            elif data != first:
                problems.append("round %d output differs from round 1" % len(walls))
            if tracer and isinstance(workload, Identify) and raised is None:
                problems += check_newton_steps(
                    text, tracer.phases[-1][1].counts["newton_steps"])
    if len(timer.steps) != len(rounds) * workload.ops:
        problems.append("timed %d operations, expected %d"
                        % (len(timer.steps), len(rounds) * workload.ops))
    steps = [(s, s * REFERENCE_S / ref if ref else s) for s, ref in timer.steps]
    scaled = end_to_end(imports, setups, rounds, steps, 1)
    metrics = scaled
    if tracer:
        try:
            metrics = per_layer_metrics(tracer)
        except ValueError as exc:
            problems.append(str(exc))
            metrics = {}
    correct = not problems and failed == 0
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {
        "workload": name, "seconds": seconds, "trace": trace,
        "environment": environment(), "imports": imports, "setups": setups,
        "rounds": rounds, "steps": steps,
        "end_to_end": scaled,
        "end_to_end_raw": end_to_end(imports, setups, rounds, steps, 0),
        "reference_s": statistics.median(dt for _, dt in reference.samples)
        if reference else None,
        "output_sha256": hashlib.sha256(first or b"").hexdigest(),
        "problems": problems, "result": result,
    }
    return result, record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="recorded only: the inputs are deterministic")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    result, record = run(args.workload, args.seconds, args.trace)
    record["seed"] = args.seed
    with open(WORK / "results.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    for problem in record["problems"]:
        print("perfbench: %s" % problem, file=sys.stderr)
    print("environment: %s" % json.dumps(record["environment"], sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
