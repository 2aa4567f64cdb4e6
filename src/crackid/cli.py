"""Command-line entry point.

Subcommands: measure (synthesise a boundary measurement), identify (run the
breaking-line identification), gradient-check (validate the analytic
directional derivative against central finite differences; ``gradient_check``
is the one home of that check, which the tests call too), laws-check
(verify the smooth-law bounds). Every subcommand places its outputs through
a run manifest (``Manifest``), which creates ``--out``, records each output
and echoes the full parameter set; it is written last. Every table is one
``np.savetxt`` call, which ``np.loadtxt`` reads back bit for bit.

Exit codes: 0 ok, 2 configuration error (an output that cannot be written
included), 3 solver failure, 4 check failure.
"""

import argparse
import configparser
import dataclasses
import json
import os
import sys
import time

import numpy as np

from . import __version__, driver, shape, solvers, svgplot
from .errors import BoundViolated, ConfigError, CrackidError
from .geometry import HEIGHT, build_mesh
from .laws import smooth_law_bounds_check

ITERATIONS_FORMAT = "%d,%.17g,%.17g,%.17g,%d,%d,%d"
GRADIENTS_FORMAT = "%d,%.17g,%.17g,%.17g"
TABLE_FORMAT = "%.17g"
INTERFACE_HEADER = "# interface v1"

CONFIG_SECTIONS = {
    "material": {"young": "E_Y", "poisson": "nu_P", "rho": "rho_reg"},
    "laws": {"friction_bound": "F_b", "friction_delta": "delta",
             "toughness": "K_c", "cohesion_length": "kappa"},
    "penalty": {"eps": "eps"},
    "geometry": {"h_measure": "h_measure", "h_identify": "h_identify",
                 "coarse_spacing": "H", "true_interface": "true_interface",
                 "psi0": "psi0"},
    "algorithm": {"load_case": "load_case", "n_max": "n_max",
                  "max_outer": "max_outer", "snapshot_every": "snapshot_every"},
}


def load_config(path, overrides=None):
    """Parse the flat key = value config file into an ExperimentConfig.

    Each value takes the type of the ExperimentConfig field its key maps
    to (int, str, otherwise float); an unknown section or key, or a value
    of the wrong type, raises ConfigError.
    """
    if not os.path.isfile(path):
        raise ConfigError("config file not found: %s" % path)
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                       interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("cannot read %s: %s" % (path, exc)) from exc
    except configparser.Error as exc:
        raise ConfigError("cannot parse %s: %s" % (path, exc)) from exc
    if parser.defaults():
        raise ConfigError("unknown section [%s] in %s" % (parser.default_section, path))
    types = {f.name: f.type for f in dataclasses.fields(driver.ExperimentConfig)}
    kwargs = {}
    for section in parser.sections():
        keys = CONFIG_SECTIONS.get(section)
        if keys is None:
            raise ConfigError("unknown section [%s] in %s" % (section, path))
        for key, raw in parser.items(section):
            if key not in keys:
                raise ConfigError("unknown key [%s] %s in %s" % (section, key, path))
            raw = raw.strip()
            if raw.lower() in ("auto", "none", ""):
                continue
            field = keys[key]
            convert = types[field] if types[field] in (int, str) else float
            try:
                kwargs[field] = convert(raw)
            except ValueError as exc:
                raise ConfigError("invalid value of [%s] %s in %s: %s"
                                  % (section, key, path, exc)) from exc
    if overrides:
        kwargs.update(overrides)
    return driver.ExperimentConfig(**kwargs)


class Manifest:
    """The run directory and its provenance: it creates ``out_dir``, places
    and records every output (``output``) and is written as JSON after them
    all."""

    def __init__(self, subcommand, config_path, out_dir, config):
        os.makedirs(out_dir, exist_ok=True)
        self.out_dir = out_dir
        self.data = {
            "tool": "crackid",
            "version": __version__,
            "subcommand": subcommand,
            "config_path": os.path.abspath(config_path) if config_path else None,
            "out_dir": os.path.abspath(out_dir),
            "parameters": dataclasses.asdict(config),
            "timings_s": {},
            "outputs": [],
        }
        self._t0 = time.perf_counter()   # a step of the wall clock moves no phase
        self._phase_start = self._t0

    def phase(self, name):
        now = time.perf_counter()
        self.data["timings_s"][name] = round(now - self._phase_start, 3)
        self._phase_start = now

    def output(self, name):
        """Record the output ``name`` and return its path in the run directory."""
        self.data["outputs"].append(name)
        return os.path.join(self.out_dir, name)

    def write(self):
        self.data["timings_s"]["total"] = round(time.perf_counter() - self._t0, 3)
        with open(os.path.join(self.out_dir, "manifest.json"), "w") as fh:
            json.dump(self.data, fh, indent=2, sort_keys=True)
            fh.write("\n")


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------

def cmd_measure(args):
    config = load_config(args.config, _overrides(args))
    manifest = Manifest("measure", args.config, args.out, config)

    meas, z, aset, report, mesh = driver.synthesize_measurement(config)
    manifest.phase("solve")

    driver.write_measurement(manifest.output("measurement.txt"), meas)
    svgplot.deformed_configuration(manifest.output("deformed.svg"), mesh, z,
                                   aset.active, config.kappa)
    manifest.phase("outputs")

    print("measure: PDAS converged in %d iterations, %d contact nodes"
          % (report.iterations, np.count_nonzero(aset.active)))
    manifest.write()
    return 0


def cmd_identify(args):
    config = load_config(args.config, _overrides(args))
    try:
        meas = driver.read_measurement(args.measurement)
    except (OSError, ConfigError) as exc:
        raise ConfigError("cannot read measurement %s: %s" % (args.measurement, exc))
    if args.load_case not in (None, meas.load_case):
        raise ConfigError("--load-case %s differs from the measurement's load case %s"
                          % (args.load_case, meas.load_case))
    # the measurement's load case is the one the solves run; record that one
    config = dataclasses.replace(config, load_case=meas.load_case)
    manifest = Manifest("identify", args.config, args.out, config)
    manifest.data["measurement_path"] = os.path.abspath(args.measurement)

    log = driver.identify(config, meas, record_gradients=args.dump_gradients)
    manifest.phase("identify")

    rows = [[r[c] for c in log.CSV_COLUMNS] for r in log.rows]
    np.savetxt(manifest.output("iterations.csv"), np.reshape(rows, (-1, 7)),
               fmt=ITERATIONS_FORMAT, header=",".join(log.CSV_COLUMNS), comments="")

    for n, snap in sorted(log.snapshots.items()):
        np.savetxt(manifest.output("interface_n%03d.txt" % n),
                   np.column_stack([snap.s, snap.psi]), fmt=TABLE_FORMAT,
                   header=INTERFACE_HEADER, comments="")

    if log.rows:
        svgplot.ratio_curves(manifest.output("ratios.svg"), log.column("n"),
                             log.column("J_ratio"), log.column("shape_error_ratio"))
        svgplot.interface_overlay(manifest.output("interfaces.svg"), log.snapshots,
                                  config.true_graph())

    if args.dump_gradients:
        blocks = [np.column_stack([np.full(s.size, n), s, d3, lam2])
                  for n, s, d3, lam2 in log.gradients]
        np.savetxt(manifest.output("gradients.csv"), np.reshape(blocks, (-1, 4)),
                   fmt=GRADIENTS_FORMAT, header="n,s_H,D3,Lambda2", comments="")
    manifest.phase("outputs")

    if log.rows:
        print("identify: %d iterations, min J ratio %.4g, min shape-error ratio %.4g"
              % (len(log.rows) - 1, log.min_ratio("J_ratio"),
                 log.min_ratio("shape_error_ratio")))
    manifest.write()
    if log.aborted:
        print("identify: aborted -- %s" % log.aborted, file=sys.stderr)
        return 3
    return 0


def cmd_gradient_check(args):
    config = load_config(args.config, _overrides(args))
    h = config.h_identify
    steps = (1e-3 * h, 1e-4 * h)
    # a probe moves a node by up to steps[0]; its mesh needs build_mesh's 2h
    if min(config.psi0 - steps[0], HEIGHT - (config.psi0 + steps[0])) < 2.0 * h - 1e-12:
        raise ConfigError("psi0 = %r moved by the probe step %.3g leaves [2h, 0.5 - 2h]"
                          " = [%.4g, %.4g] at h_identify"
                          % (config.psi0, steps[0], 2.0 * h, HEIGHT - 2.0 * h))
    manifest = Manifest("gradient-check", args.config, args.out, config)

    meas, *_ = driver.synthesize_measurement(config)
    manifest.phase("state")
    checked = gradient_check(config, meas, steps)
    manifest.phase("check")

    rows = []
    print("node   s_H     analytic        fd(step %.1e)  fd(step %.1e)  rel-err" % steps)
    for k, (s, ana, fds) in enumerate(checked, start=1):
        if args.corrupt_sign:
            ana = -ana
        rel = abs(ana - fds[-1]) / max(abs(ana), abs(fds[-1]), 1e-30)
        rows.append((s, ana, *fds, rel))
        print("%4d  %5.2f  %14.6e  %14.6e  %14.6e  %8.2e" % (k, s, ana, *fds, rel))
    ok = all(r[-1] <= 0.05 for r in rows)

    np.savetxt(manifest.output("gradient_check.csv"), rows, fmt=TABLE_FORMAT, comments="",
               delimiter=",", header="s_H,analytic,fd_coarse,fd_fine,rel_err")
    manifest.write()
    print("gradient-check: %s" % ("PASS" if ok else "FAIL"))
    return 0 if ok else 4


def gradient_check(config, meas, steps):
    """The one home of the gradient check: the volumetric shape derivative
    of each interior coarse node's hat against central differences of the
    objective, one per step. Each probe re-meshes through this module's
    ``build_mesh`` and solves the state on the base mesh's band factor
    from the base state's active sets, so its coupling takes the Y = L^-1 U
    the factor kept (``fem.FactorizedSPD``). Its first solve refines from
    a guess: the Lagrange interpolant, at its offset, of the hat's states
    solved so far, offset 0 (the base state, passed as it is) first. That
    is a continuation method's predictor (Allgower and Georg, Numerical
    Continuation Methods, 1990): O(step^2) off at -coarse and below the
    solve's eps test at +-fine, so the probes at +coarse, -coarse, +fine
    and -fine take 3, 2, 0 and 0 substitutions on the default config. It
    ends in one ``driver.objective`` against the base mesh's measurement
    trace, whose observation rows every probe mesh shares. Returns one
    ``(s, analytic, [fd per step])`` per node.
    """
    laws, elast, g = config.cohesive(), config.elasticity(), config.traction()
    h, psi, eps = config.h_identify, config.initial_graph(), config.eps
    mesh = build_mesh(psi, h)
    u, report, op = solvers.solve_penalty_state(mesh, laws, elast, g, eps,
                                                max_outer=config.max_outer)
    zv = driver.interp_measurement(mesh, meas)
    v = solvers.solve_adjoint(op, u, zv)
    hats = np.eye(psi.s.size)[1:-1]
    anas = shape.directional_derivative_volumetric(mesh, psi, u, v, laws, elast,
                                                   eps, hats)
    rows = []
    for s, hat, ana in zip(psi.s[1:-1], hats, anas):
        offsets, states = [0.0], [u.values[mesh.free_dofs]]   # the hat's solved states
        fds = []
        for st in steps:
            js = []
            for sign in (1.0, -1.0):
                t = sign * st
                line = psi.with_psi(psi.psi + t * hat)
                m = build_mesh(line, h)
                up = solvers.solve_penalty_state(
                    m, laws, elast, g, eps, max_outer=config.max_outer,
                    start=report.configuration, base=op,
                    guess=_interpolant(offsets, states, t))[0]
                offsets.append(t)
                states.append(up.values[m.free_dofs])
                js.append(driver.objective(m, up, zv, elast.rho_reg, line))
            fds.append((js[0] - js[1]) / (2.0 * st))
        rows.append((s, ana, fds))
    return rows


def _interpolant(ts, xs, t):
    """The Lagrange polynomial through the points (ts[j], xs[j]) at t;
    xs[0] itself, with no arithmetic, for one point."""
    if len(xs) == 1:
        return xs[0]
    out = 0.0
    for tj, xj in zip(ts, xs):   # the offsets are distinct
        out = out + np.prod([(t - tk) / (tj - tk) for tk in ts if tk != tj]) * xj
    return out


def cmd_laws_check(args):
    config = load_config(args.config, _overrides(args))
    manifest = Manifest("laws-check", args.config, args.out, config)
    try:
        report = smooth_law_bounds_check(config.cohesive(), config.eps)
    except BoundViolated as exc:
        manifest.phase("check")
        print("laws-check: FAIL -- %s (s = %r)" % (exc.args[0], exc.s))
        manifest.write()
        return 4
    manifest.phase("check")
    print("laws-check: PASS over %d samples" % report.sample_count)
    print("  max |alpha_f'| = %.3e (bound %.3e)" % (report.max_friction_prime,
                                                    config.F_b))
    print("  max |alpha_f''| = %.3e (bound %.3e)" % (report.max_friction_second,
                                                     config.F_b / config.delta))
    print("  max |beta + [s]^-/eps| = %.3e (bound 1)" % report.max_beta_offset)
    manifest.write()
    return 0


# ----------------------------------------------------------------------
# Argument parsing
# ----------------------------------------------------------------------

def _overrides(args):
    out = {}
    if getattr(args, "eps", None) is not None:
        out["eps"] = args.eps
    if getattr(args, "load_case", None) is not None:
        out["load_case"] = args.load_case
    return out


def _add_common(p, measurement=False):
    p.add_argument("--config", required=True, help="experiment config file")
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--eps", type=float, default=None,
                   help="override the penalty parameter")
    p.add_argument("--load-case", dest="load_case",
                   choices=sorted(driver.LOAD_SLOPES), default=None,
                   help="override the load case")
    if measurement:
        p.add_argument("--measurement", required=True,
                       help="measurement file from the measure subcommand")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="crackid",
        description="Breaking-line identification in an elastic rectangle "
                    "from boundary displacement measurements.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measure", help="synthesise a boundary measurement")
    _add_common(p)
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("identify", help="run the identification loop")
    _add_common(p, measurement=True)
    p.add_argument("--dump-gradients", action="store_true",
                   help="write per-iteration gradient/velocity CSV")
    p.set_defaults(func=cmd_identify)

    p = sub.add_parser("gradient-check",
                       help="validate the shape derivative against finite differences")
    _add_common(p)
    p.add_argument("--corrupt-sign", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_gradient_check)

    p = sub.add_parser("laws-check", help="verify smooth-law bounds")
    _add_common(p)
    p.set_defaults(func=cmd_laws_check)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        message, code = "config error: %s" % exc, 2
    except CrackidError as exc:
        message, code = "solver error: %s" % exc, 3
    except OSError as exc:
        # every input is read under ConfigError: this is an output
        message, code = "config error: cannot write the outputs: %s" % exc, 2
    print(" ".join(message.splitlines()), file=sys.stderr)   # also a quoted file line
    return code


if __name__ == "__main__":
    sys.exit(main())
