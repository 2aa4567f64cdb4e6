#!/usr/bin/env python3
"""Compare the outputs of two crackid runs under the roundoff tolerance.

Usage: python3 tools/compare_outputs.py [--envelope FILE] PARENT_DIR CHANGE_DIR

Both directories hold the outputs of the same commands, found anywhere
below them: ``measurement.txt``, ``iterations.csv``, ``gradients.csv``,
``interface_nNNN.txt`` and ``gradient_check.csv`` (for example
``m_contact/measurement.txt``, ``i_contact/iterations.csv`` and
``g/gradient_check.csv``). Each file is first compared byte for byte, as
``cmp`` does. A file that differs is checked against the bound for its
kind, relative to the parent's value:

- ``iterations.csv``: per row, J and shape_error_ratio within 1e-9, and
  n, pdas_na, penalty_iters and clamped identical; the row of each
  column's largest difference is named by its n;
- ``measurement.txt``: header and points identical, the displacements
  within 1e-12 of the largest displacement;
- ``gradient_check.csv``: s_H identical, analytic within 1e-9, fd_coarse
  and fd_fine within 1e-5 (they divide the roundoff of J by the step),
  each largest difference named by its s_H;
- ``interface_nNNN.txt`` and ``gradients.csv`` carry no bound: the loop
  feeds each iterate's roundoff into the next. Their largest difference
  relative to the largest entry is reported.
- the plots ``deformed.svg``, ``ratios.svg`` and ``interfaces.svg`` are
  compared byte for byte only. One that differs is reported, not failed:
  a change that moves roundoff may move a plotted coordinate by a pixel
  rounding.

Prints one line per file and a summary, and exits 0 when every file is
identical or within its bound, 1 otherwise, a file found on one side only
included.

With ``--envelope FILE``, the output of ``tools/roundoff_envelope.py``,
each difference is also printed as a multiple of the envelope, the
largest spread that moving K's last bits gives the same file and column;
for ``iterations.csv`` that multiple is taken over n <= N, for every 50th
N and the last. A last line names the largest multiple over all files and
columns and where it is, such as ``largest envelope multiple: 3.27x at
i_contact/interface_n180.txt``: the one number a stated tolerance is
checked against. The bounds and the exit status do not change.
"""

import filecmp
import json
import os
import sys

import numpy as np


def relative(a, b):
    """|a - b| / |a| entry by entry, 0 where they are equal."""
    diff = np.abs(a - b)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(diff == 0.0, 0.0, diff / np.abs(a))


def entrywise(a, b):
    """Largest |a - b| / |a| over the entries (0 where they are equal), and
    the row where it is."""
    rel = relative(a, b)
    return float(rel.max(initial=0.0)), int(np.argmax(rel)) if rel.size else None


def normwise(a, b):
    """max |a - b| / max |a|, and no row."""
    diff = float(np.abs(a - b).max(initial=0.0))
    return (0.0 if diff == 0.0 else diff / float(np.abs(a).max())), None


# file name: (columns that must be identical, [(columns, bound, measure)])
RULES = {
    "iterations.csv": (("n", "pdas_na", "penalty_iters", "clamped"),
                       [(("J", "shape_error_ratio"), 1e-9, entrywise)]),
    "measurement.txt": (("0", "1"), [(("2", "3"), 1e-12, normwise)]),
    "gradient_check.csv": (("s_H",), [(("analytic",), 1e-9, entrywise),
                                      (("fd_coarse", "fd_fine"), 1e-5, entrywise)]),
}


PLOTS = ("deformed.svg", "ratios.svg", "interfaces.svg")


def is_output(name):
    return (name in RULES or name in PLOTS or name == "gradients.csv"
            or (name.startswith("interface_n") and name.endswith(".txt")))


def output_files(root):
    found = set()
    for dirpath, _, names in os.walk(root):
        found.update(os.path.relpath(os.path.join(dirpath, name), root)
                     for name in names if is_output(name))
    return found


def load(path):
    """(header lines, column names, data) of an output file; a ``.txt``
    file's columns are named by their index."""
    with open(path) as fh:
        lines = [line for line in fh.read().splitlines() if line]
    if path.endswith(".csv"):
        head, names = lines[:1], lines[0].split(",")
        rows = [line.split(",") for line in lines[1:]]
    else:
        head = [line for line in lines if line.startswith("#")]
        rows = [line.split() for line in lines if not line.startswith("#")]
        names = [str(k) for k in range(len(rows[0]) if rows else 0)]
    return head, names, np.array(rows, dtype=float).reshape(len(rows), len(names))


def multiple(got, env):
    """got as a multiple of the envelope env: 0 where got is, inf where
    only env is."""
    return 0.0 if got == 0.0 else got / env if env > 0.0 else np.inf


def times(x):
    return "infx" if x == np.inf else "%.3gx" % x


def against(env, name, got, rows=None, n=None):
    """The note that sets a difference against the envelope ``env`` of its
    file, and [(multiple, where)]: ``got`` over the whole file, or ``rows``
    per row of n, taken over n' <= n for every 50th n and the last."""
    if name not in env.get("columns", {}):
        return "no envelope", []
    if rows is not None and name in env.get("rows", {}):
        spread = env["rows"][name]
        if len(spread) == len(rows) and np.array_equal(env["rows"]["n"], n):
            ends = [k for k, nk in enumerate(n) if nk % 50 == 0 and nk > 0]
            diff = np.maximum.accumulate(rows)
            spread = np.maximum.accumulate(np.asarray(spread, dtype=float))
            found = [(multiple(diff[k], spread[k]), "n<=%g" % n[k])
                     for k in sorted(set(ends) | {len(n) - 1})]
            return "envelope " + ", ".join("%s %s" % (at, times(x)) for x, at in found), found
    x = multiple(got, env["columns"][name])
    return "%s envelope %.2e" % (times(x), env["columns"][name]), [(x, "")]


def compare(parent, change, env=None):
    """(ok, verdict, multiples) for one pair of files that differ in their
    bytes; with ``env``, the envelope of the file ({} for none), each
    difference is also set against it, and ``multiples`` lists each
    multiple with the column and rows it is taken over."""
    head_p, names, data_p = load(parent)
    head_c, names_c, data_c = load(change)
    if head_p != head_c or names != names_c or data_p.shape != data_c.shape:
        return False, "EXCEEDS  header or shape differs", []
    col = {name: k for k, name in enumerate(names)}
    rule = RULES.get(os.path.basename(parent))
    if rule is None:
        got = normwise(data_p, data_c)[0]
        note, found = ("", []) if env is None else against(env, "*", got)
        note = note and " (%s)" % note
        return True, "UNBOUND  max relative difference %.2e%s" % (got, note), found
    exact, bounds = rule
    ok = True
    notes, multiples = [], []
    for name in exact:
        same = np.array_equal(data_p[:, col[name]], data_c[:, col[name]])
        ok = ok and same
        if not same:
            notes.append("%s differs" % name)
    for names_b, bound, measure in bounds:
        for name in names_b:
            got, row = measure(data_p[:, col[name]], data_c[:, col[name]])
            ok = ok and got <= bound
            # the first identical column names the row
            at = "" if row is None or got == 0.0 else \
                " at %s=%g" % (exact[0], data_p[row, col[exact[0]]])
            note = ""
            if env is not None:
                rows = relative(data_p[:, col[name]], data_c[:, col[name]]) \
                    if measure is entrywise else None
                note, found = against(env, name, got, rows, data_p[:, 0])
                note = "; " + note
                multiples += [(x, " ".join((name, where)).strip()) for x, where in found]
            notes.append("%s %.2e%s (<= %.0e%s)" % (name, got, at, bound, note))
    return ok, ("WITHIN   " if ok else "EXCEEDS  ") + ", ".join(notes), multiples


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    envelope = None
    if argv[:1] == ["--envelope"] and len(argv) > 1:
        with open(argv[1]) as fh:
            envelope = json.load(fh)["files"]
        argv = argv[2:]
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 1
    parent, change = argv
    files_p, files_c = output_files(parent), output_files(change)
    failed = 0
    tally = {}
    largest = (0.0, "")
    for rel in sorted(files_p | files_c):
        if rel not in files_p or rel not in files_c:
            ok, verdict = False, "MISSING  only in %s" % (
                parent if rel in files_p else change)
        elif filecmp.cmp(os.path.join(parent, rel), os.path.join(change, rel),
                         shallow=False):
            ok, verdict = True, "SAME"
        elif os.path.basename(rel) in PLOTS:
            ok, verdict = True, "UNBOUND  bytes differ"
        else:
            ok, verdict, found = compare(os.path.join(parent, rel), os.path.join(change, rel),
                                         None if envelope is None else envelope.get(rel, {}))
            for x, where in found:
                if x > largest[0]:
                    largest = (x, " ".join((rel, where)).strip())
        failed += not ok
        kind = verdict.split()[0]
        tally[kind] = tally.get(kind, 0) + 1
        print("%-40s %s" % (rel, verdict))
    print("%d files: %s" % (sum(tally.values()), ", ".join(
        "%d %s" % (n, kind.lower()) for kind, n in sorted(tally.items()))))
    if envelope is not None:
        x, where = largest
        print("largest envelope multiple: %s%s" % (times(x), where and " at " + where))
    return 1 if failed or not tally else 0


if __name__ == "__main__":
    sys.exit(main())
