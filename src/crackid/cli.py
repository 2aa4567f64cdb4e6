"""Command-line entry point.

Subcommands: measure (synthesise a boundary measurement), identify (run the
breaking-line identification), gradient-check (validate the analytic
directional derivative against central finite differences), laws-check
(verify the smooth-law bounds). Every subcommand echoes its full parameter
set into a run manifest written last.

Exit codes: 0 ok, 2 configuration error, 3 solver failure, 4 check failure.
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
from .geometry import build_mesh, write_interface
from .laws import PenaltyParams, smooth_law_bounds_check

CONFIG_SECTIONS = {
    "material": {"young": "E_Y", "poisson": "nu_P", "rho": "rho_reg"},
    "laws": {"friction_bound": "F_b", "friction_delta": "delta",
             "toughness": "K_c", "cohesion_length": "kappa",
             "cohesion_exponent": "m"},
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
    """Collects run provenance; written as JSON after all other outputs."""

    def __init__(self, subcommand, config_path, out_dir, config):
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
        self._t0 = time.time()
        self._phase_start = self._t0

    def phase(self, name):
        now = time.time()
        self.data["timings_s"][name] = round(now - self._phase_start, 3)
        self._phase_start = now

    def add_output(self, path):
        self.data["outputs"].append(os.path.basename(path))

    def write(self, out_dir):
        self.data["timings_s"]["total"] = round(time.time() - self._t0, 3)
        path = os.path.join(out_dir, "manifest.json")
        with open(path, "w") as fh:
            json.dump(self.data, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path


def _prepare_out(out_dir):
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError("cannot create the output directory: %s" % exc) from exc


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------

def cmd_measure(args):
    config = load_config(args.config, _overrides(args))
    _prepare_out(args.out)
    manifest = Manifest("measure", args.config, args.out, config)

    meas, z, aset, report, mesh = driver.synthesize_measurement(config)
    manifest.phase("solve")

    mpath = os.path.join(args.out, "measurement.txt")
    driver.write_measurement(mpath, meas)
    manifest.add_output(mpath)
    spath = os.path.join(args.out, "deformed.svg")
    svgplot.deformed_configuration(spath, mesh, z, aset.statuses)
    manifest.add_output(spath)
    manifest.phase("outputs")

    print("measure: PDAS converged in %d iterations, %d contact nodes"
          % (report.iterations, aset.contact_count))
    manifest.write(args.out)
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
    _prepare_out(args.out)
    manifest = Manifest("identify", args.config, args.out, config)
    manifest.data["measurement_path"] = os.path.abspath(args.measurement)

    log = driver.identify(config, meas, record_gradients=args.dump_gradients)
    manifest.phase("identify")

    cpath = os.path.join(args.out, "iterations.csv")
    with open(cpath, "w") as fh:
        fh.write(log.to_csv())
    manifest.add_output(cpath)

    for n, snap in sorted(log.snapshots.items()):
        ipath = os.path.join(args.out, "interface_n%03d.txt" % n)
        write_interface(ipath, snap)
        manifest.add_output(ipath)

    if log.rows:
        rpath = os.path.join(args.out, "ratios.svg")
        svgplot.ratio_curves(rpath, log.column("n"), log.column("J_ratio"),
                             log.column("shape_error_ratio"))
        manifest.add_output(rpath)
        opath = os.path.join(args.out, "interfaces.svg")
        svgplot.interface_overlay(opath, log.snapshots, config.true_graph())
        manifest.add_output(opath)

    if args.dump_gradients:
        gpath = os.path.join(args.out, "gradients.csv")
        with open(gpath, "w") as fh:
            fh.write("n,s_H,D3,Lambda2\n")
            for n, s, d3, lam2 in log.gradients:
                for sk, dk, lk in zip(s, d3, lam2):
                    fh.write("%d,%.17g,%.17g,%.17g\n" % (n, sk, dk, lk))
        manifest.add_output(gpath)
    manifest.phase("outputs")

    if log.rows:
        print("identify: %d iterations, min J ratio %.4g, min shape-error ratio %.4g"
              % (len(log.rows) - 1, log.min_ratio("J_ratio"),
                 log.min_ratio("shape_error_ratio")))
    manifest.write(args.out)
    if log.aborted:
        print("identify: aborted -- %s" % log.aborted, file=sys.stderr)
        return 3
    return 0


def cmd_gradient_check(args):
    config = load_config(args.config, _overrides(args))
    _prepare_out(args.out)
    manifest = Manifest("gradient-check", args.config, args.out, config)

    meas, *_ = driver.synthesize_measurement(config)
    laws = config.cohesive()
    elast = config.elasticity()
    g = config.traction()
    h = config.resolved_h_identify()
    psi = config.initial_graph()
    eps = config.eps

    mesh = build_mesh(psi, h)
    u, base, op = solvers.solve_penalty_state(mesh, laws, elast, g, eps,
                                              max_outer=config.max_outer)
    zv = driver.interp_measurement(mesh, meas)
    v = solvers.solve_adjoint(op, u, zv, eps)

    def objective_of(graph):
        # every probe perturbs the base line, so it starts from its sets;
        # its mesh has the base mesh's observation rows, so its z
        m = build_mesh(graph, h)
        u, _, _ = solvers.solve_penalty_state(m, laws, elast, g, eps,
                                              max_outer=config.max_outer,
                                              start=base.configuration)
        return driver.objective(m, u, zv, elast.rho_reg, graph)
    manifest.phase("state")

    steps = (1e-3 * h, 1e-4 * h)
    rows = []
    ok = True
    print("node   s_H     analytic        fd(step %.1e)  fd(step %.1e)  rel-err" % steps)
    for k in range(1, psi.s.size - 1):
        hat = np.zeros(psi.s.size)
        hat[k] = 1.0
        vel = shape.VelocityField(psi.s, hat, h)
        ana = shape.directional_derivative_volumetric(
            mesh, psi, u, v, laws, elast, eps, vel)
        if args.corrupt_sign:
            ana = -ana
        fds = []
        for st in steps:
            jp = objective_of(psi.with_psi(psi.psi + st * hat))
            jm = objective_of(psi.with_psi(psi.psi - st * hat))
            fds.append((jp - jm) / (2.0 * st))
        rel = abs(ana - fds[-1]) / max(abs(ana), abs(fds[-1]), 1e-30)
        ok = ok and rel <= 0.05
        rows.append((psi.s[k], ana, fds[0], fds[1], rel))
        print("%4d  %5.2f  %14.6e  %14.6e  %14.6e  %8.2e"
              % (k, psi.s[k], ana, fds[0], fds[1], rel))
    manifest.phase("check")

    cpath = os.path.join(args.out, "gradient_check.csv")
    with open(cpath, "w") as fh:
        fh.write("s_H,analytic,fd_coarse,fd_fine,rel_err\n")
        for r in rows:
            fh.write("%.17g,%.17g,%.17g,%.17g,%.17g\n" % r)
    manifest.add_output(cpath)
    manifest.write(args.out)
    print("gradient-check: %s" % ("PASS" if ok else "FAIL"))
    return 0 if ok else 4


def cmd_laws_check(args):
    config = load_config(args.config, _overrides(args))
    _prepare_out(args.out)
    manifest = Manifest("laws-check", args.config, args.out, config)
    try:
        report = smooth_law_bounds_check(config.cohesive(),
                                         PenaltyParams(config.eps))
    except BoundViolated as exc:
        print("laws-check: FAIL -- %s (s = %r)" % (exc.args[0], exc.s))
        manifest.write(args.out)
        return 4
    manifest.phase("check")
    print("laws-check: PASS over %d samples" % report.sample_count)
    print("  max |alpha_f'| = %.3e (bound %.3e)" % (report.max_friction_prime,
                                                    config.F_b))
    print("  max |alpha_f''| = %.3e (bound %.3e)" % (report.max_friction_second,
                                                     config.F_b / config.delta))
    print("  max |beta + [s]^-/eps| = %.3e (bound 1)" % report.max_beta_offset)
    manifest.write(args.out)
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
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except CrackidError as exc:
        print("solver error: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
