#!/usr/bin/env python3
"""Measure the roundoff envelope of the output recipe.

Usage: python3 tools/roundoff_envelope.py TREE OUT [--seeds N] [--ulps K]
                                          [--config FILE]

Runs the output recipe, ``run_recipe``, which ``tools/make_outputs.sh``
runs too, on the crackid source tree TREE (a checkout holding src/crackid),
in this process and with one BLAS thread: per load case ``measure`` and
then ``identify --dump-gradients`` on that measurement, then
``gradient-check`` under each load. It runs the recipe once as it is, into
OUT/base, and then once per seed 0 .. N-1 (3 by default), into OUT/seed_S,
with every stiffness matrix that ``fem.assemble_stiffness`` returns moved:
a draw seeded by S picks each nonzero entry with probability 0.05 and moves
it by K ulps (1 by default), up or down at random. No source file is
changed.

The envelope is the largest relative spread between a perturbed run and
the unperturbed one, per file and column, measured as
``tools/compare_outputs.py`` measures that file and column; for
``iterations.csv`` also per row n. It goes to OUT/envelope.json, which
``compare_outputs.py --envelope`` reads, and the spread of each seed over
n <= 100, 150, 200 is printed per ``iterations.csv`` column.
"""

import os

if __name__ == "__main__":   # one BLAS thread, as tools/make_outputs.sh
    for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_name] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare_outputs as cmp  # noqa: E402

PREFIXES = (100, 150, 200)
FRACTION = 0.05   # of K's entries moved in a perturbed run


def run_recipe(out, config):
    """The output recipe into the directory ``out``, on the crackid this
    process imports, with the config file ``config``: the one place the
    recipe is written down."""
    from crackid import cli

    def run(*argv):
        text = io.StringIO()
        with contextlib.redirect_stdout(text), contextlib.redirect_stderr(text):
            rc = cli.main(list(argv) + ["--config", config])
        if rc not in (0, 4):   # 4: a gradient check that fails still writes its file
            raise RuntimeError("%s exited %d:\n%s" % (argv[0], rc, text.getvalue()))

    for load in ("contact", "stretch"):
        meas = os.path.join(out, "m_" + load)
        run("measure", "--load-case", load, "--out", meas)
        run("identify", "--load-case", load, "--measurement",
            os.path.join(meas, "measurement.txt"), "--dump-gradients",
            "--out", os.path.join(out, "i_" + load))
    run("gradient-check", "--out", os.path.join(out, "g"))
    run("gradient-check", "--load-case", "stretch", "--out", os.path.join(out, "g_stretch"))


@contextlib.contextmanager
def moved_stiffness(fem, seed, ulps):
    """``fem.assemble_stiffness`` with each nonzero entry it sums moved by
    ``ulps`` ulps, up or down, with probability ``FRACTION``, drawn from one
    generator seeded by ``seed``. A finite-difference probe's assembly sums
    only the entries of its re-sum plan (``fem._probe_plan``) and copies
    the others from its base's K, so only the plan's entries move: the
    others carry exactly the base's moves, as each entry is rounded once."""
    rng = np.random.default_rng(seed)
    assemble, plan = fem.assemble_stiffness, fem._probe_plan
    planned = []   # the entries of the plan the current assembly took

    def recorded(topology, moved_bits):
        out = plan(topology, moved_bits)
        planned.append(out[0])
        return out

    def moved(mesh, elast, base=None):
        planned.clear()
        K = assemble(mesh, elast, base)
        summed = np.zeros(K.nnz, bool)
        summed[planned[0] if planned else slice(None)] = True
        pick = (rng.random(K.nnz) < FRACTION) & (K.data != 0.0) & summed
        toward = np.where(rng.random(K.nnz) < 0.5, np.inf, -np.inf)[pick]
        for _ in range(ulps):
            K.data[pick] = np.nextafter(K.data[pick], toward)
        return K

    fem.assemble_stiffness, fem._probe_plan = moved, recorded
    try:
        yield
    finally:
        fem.assemble_stiffness, fem._probe_plan = assemble, plan


def spreads(base, run):
    """{file: {"columns": {column: spread}, "rows": {"n": n, column: spread
    per row}}} of the run ``run`` against ``base``; "*" names the whole of
    a file that ``compare_outputs`` bounds by no rule."""
    found = {}
    for rel in sorted(cmp.output_files(base)):
        name = os.path.basename(rel)
        if name in cmp.PLOTS:
            continue
        _, names, a = cmp.load(os.path.join(base, rel))
        _, _, b = cmp.load(os.path.join(run, rel))
        if a.shape != b.shape:
            raise RuntimeError("%s: shape %s against %s" % (rel, a.shape, b.shape))
        entry = found[rel] = {"columns": {}}
        rule = cmp.RULES.get(name)
        if rule is None:
            entry["columns"]["*"] = cmp.normwise(a, b)[0]
            continue
        exact, bounds = rule
        for column in exact:
            k = names.index(column)
            entry["columns"][column] = cmp.entrywise(a[:, k], b[:, k])[0]
        for column, measure in [(c, m) for cols, _, m in bounds for c in cols]:
            k = names.index(column)
            entry["columns"][column] = measure(a[:, k], b[:, k])[0]
            if name == "iterations.csv":
                rows = entry.setdefault("rows", {"n": a[:, 0].tolist()})
                rows[column] = cmp.relative(a[:, k], b[:, k]).tolist()
    return found


def fold(envelope, found):
    """Take the larger of each spread of ``found`` into ``envelope``."""
    for rel, entry in found.items():
        into = envelope.setdefault(rel, {"columns": {}})
        for column, got in entry["columns"].items():
            into["columns"][column] = max(into["columns"].get(column, 0.0), got)
        if "rows" in entry:
            rows = into.setdefault("rows", {"n": entry["rows"]["n"]})
            for column, got in entry["rows"].items():
                if column != "n":
                    rows[column] = np.maximum(rows.get(column, 0.0), got).tolist()


def prefix_max(rows, column, upto):
    """The largest spread of ``column`` over the rows n <= ``upto``."""
    n = np.asarray(rows["n"])
    return float(np.max(np.asarray(rows[column])[n <= upto], initial=0.0))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("tree")
    parser.add_argument("out")
    parser.add_argument("--seeds", type=int, default=3)
    parser.add_argument("--ulps", type=int, default=1)
    parser.add_argument("--config", default=None,
                        help="config file (default: an empty one, the recipe's)")
    args = parser.parse_args(argv)
    src = os.path.join(os.path.abspath(args.tree), "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from crackid import fem

    os.makedirs(args.out, exist_ok=True)
    config = args.config
    if config is None:
        config = os.path.join(args.out, "empty.cfg")
        open(config, "w").close()
    base = os.path.join(args.out, "base")
    run_recipe(base, config)
    envelope = {}
    for seed in range(args.seeds):
        out = os.path.join(args.out, "seed_%d" % seed)
        with moved_stiffness(fem, seed, args.ulps):
            run_recipe(out, config)
        found = spreads(base, out)
        fold(envelope, found)
        for rel, entry in sorted(found.items()):
            for column in sorted(set(entry.get("rows", ())) - {"n"}):
                print("seed %d %-28s %-18s %s" % (seed, rel, column, "  ".join(
                    "n<=%d %.1e" % (upto, prefix_max(entry["rows"], column, upto))
                    for upto in PREFIXES)))
    path = os.path.join(args.out, "envelope.json")
    with open(path, "w") as fh:
        json.dump({"tree": os.path.abspath(args.tree), "seeds": args.seeds,
                   "ulps": args.ulps, "fraction": FRACTION, "files": envelope},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")
    for rel, entry in sorted(envelope.items()):
        print("%-40s %s" % (rel, ", ".join("%s %.1e" % kv for kv in
                                           sorted(entry["columns"].items()))))
    print("envelope of %d seeds: %s" % (args.seeds, path))
    return 0


if __name__ == "__main__":
    sys.exit(main())
