"""Shows that the benchmark's checks can fail and that tracing changes nothing.

Usage, from the root of the repository (about two minutes on 2 cores):

    python3 perfbench/selfcheck.py

For each workload it runs one set-up and one round untraced, then one round
traced, and requires the output CSV to be bitwise identical and, for the
identify workloads, the traced Newton steps to equal the logged
``penalty_iters``. It then feeds each checker corrupted outputs and requires
the expected number of failed operations or a reported problem:

* an iteration log in which J rises, one with missing iterations, and one
  whose final shape-error ratio is 1;
* a log whose ``penalty_iters`` disagree with the traced Newton steps;
* PDAS states with a positive multiplier, a penetrating node, and a gap
  where the multiplier is nonzero;
* the output of ``crackid gradient-check --corrupt-sign``;
* a gradient-check whose measurement synthesis raises, which must still
  give a result with every operation failed.

Exits 0 if every case behaves as expected, 1 otherwise.
"""

import contextlib
import copy
import io
import sys
import time

from unittest import mock

from run import (PREFIX, WORK, WORKLOADS, check_contact_vi, check_gradient_csv,
                 check_identify_log, check_newton_steps, fresh_dir, instrument,
                 read_rows, run)
from crackid import driver  # importable once run has put src/ on the path


def one_round(workload, work, trace):
    """(output text, wall seconds, traced Newton steps) of one round."""
    patches, _, tracer = instrument(workload, trace)
    with patches, contextlib.redirect_stdout(io.StringIO()):
        if tracer:
            tracer.begin("round")
        t0 = time.perf_counter()
        workload.round(work)
        wall = time.perf_counter() - t0
    steps = tracer.phases[-1][1].counts["newton_steps"] if tracer else None
    return workload.output(work).read_text(), wall, steps


def set_up(workload, work):
    patches, _, _ = instrument(workload, False)
    with patches, contextlib.redirect_stdout(io.StringIO()):
        return workload.setup(work)


def to_csv(rows):
    keys = list(rows[0])
    return "\n".join([",".join(keys)] + [",".join(r[k] for k in keys) for r in rows]) + "\n"


def main():
    results = []

    def expect(case, ok, detail):
        results.append(ok)
        print("%-4s %s (%s)" % ("ok" if ok else "FAIL", case, detail))

    logs, pdas = {}, None
    for name in WORKLOADS:
        workload = WORKLOADS[name]()
        work = fresh_dir(WORK / "selfcheck" / name)
        problems = set_up(workload, work)
        expect("%s set-up checks pass" % name, not problems, "; ".join(problems) or "none")
        plain, wall0, _ = one_round(workload, work, False)
        traced, wall1, steps = one_round(workload, work, True)
        expect("%s traced output is bitwise identical" % name, plain == traced,
               "round %.2f s untraced, %.2f s traced" % (wall0, wall1))
        if name.startswith("identify"):
            why = check_newton_steps(traced, steps)
            expect("%s traced newton steps equal penalty_iters" % name, not why,
                   "%d steps" % steps)
            logs[name] = plain
            if name == "identify-contact":
                pdas = workload.pdas
        else:
            bad, _ = check_gradient_csv(plain)
            expect("gradient-check passes", bad == 0, "%d failed" % bad)
            with contextlib.redirect_stdout(io.StringIO()):
                rc = workload.round(work, corrupt_sign=True)
            bad, _ = check_gradient_csv(workload.output(work).read_text())
            expect("gradient-check --corrupt-sign fails every probe",
                   bad == workload.ops, "exit %d, %d of %d failed" % (rc, bad, workload.ops))

    rows = read_rows(logs["identify-contact"])
    bad, _ = check_identify_log(to_csv(rows))
    expect("identify log passes", bad == 0, "%d failed" % bad)
    rising = copy.deepcopy(rows)
    rising[5]["J"] = repr(float(rows[4]["J"]) * (1.0 + 1e-3))
    bad, _ = check_identify_log(to_csv(rising))
    expect("J rising at iteration 5 fails it", bad == 1, "%d failed" % bad)
    bad, _ = check_identify_log(to_csv(rows[:-3]))
    expect("3 missing iterations fail", bad == 3, "%d failed" % bad)
    stalled = copy.deepcopy(rows)
    stalled[-1]["shape_error_ratio"] = "1"
    bad, _ = check_identify_log(to_csv(stalled))
    expect("final shape-error ratio 1 fails", bad == 1, "%d failed" % bad)
    steps = sum(int(r["penalty_iters"]) for r in rows)
    why = check_newton_steps(logs["identify-contact"], steps + 1)
    expect("newton steps off by one are reported", bool(why), "; ".join(why))

    config, (_, z, aset, _, mesh) = pdas
    mu = config.elasticity().mu_L
    active = aset.active.nonzero()[0]
    node = active[len(active) // 2]
    positive = copy.deepcopy(aset)
    positive.lam[node] = 1.0
    pen = copy.deepcopy(z)
    pen.values[2 * mesh.iface_plus[node] + 1] -= 1e-6
    gap = copy.deepcopy(z)
    gap.values[2 * mesh.iface_plus[node] + 1] += 1e-6
    for case, state in (("positive multiplier", (z, positive)),
                        ("penetrating node", (pen, aset)),
                        ("gap under a nonzero multiplier", (gap, aset))):
        why = check_contact_vi(*state, mesh, mu)
        expect("PDAS state with a %s is reported" % case, bool(why), "; ".join(why))

    def fault(config):
        raise RuntimeError("factor is exactly singular")

    with mock.patch.object(driver, "synthesize_measurement", fault):
        result, record = run("gradient-check", 0, 0)
    expect("a round that raises fails all its operations",
           not result["correct"] and result["failed"] == result["attempted"] == 36,
           "; ".join(record["problems"]))

    print("selfcheck: %d of %d cases as expected (prefix %d)"
          % (sum(results), len(results), PREFIX))
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
