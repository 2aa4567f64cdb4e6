"""End-to-end experiment driver: measurement synthesis on the fine mesh,
identification loop on the offset mesh, objective and shape-error tracking.

The measurement side solves the contact variational inequality for the true
breaking line and stores its trace at the mesh topology's
``observation_points``, in the file format that this module alone writes
and reads; identification starts from the flat line psi = 0.25 and walks the
penalty/adjoint/descent loop for a fixed number of iterations, logging
objective and shape-error ratios. The two meshes use different column
counts (an unset h_identify resolves to h_measure * 8/7) so synthetic data
is never inverted on its own grid: the config refuses h_identify ==
h_measure, and ``identify`` refuses a measurement file whose recorded h
equals h_identify.
"""

import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import fem, shape, solvers
from .errors import ConfigError, CrackidError, InvalidPoisson, NumericalOverflow
from .geometry import (HEIGHT, WIDTH, InterfaceGraph, band_shape, build_mesh,
                       grid_counts, uniform_graph)
from .laws import CohesiveParams

MEASUREMENT_HEADER = "# measurement v1"

TRUE_INTERFACES = {
    # piecewise-linear kinked line min(0.3, x/3 + 0.1), represented exactly
    "kinked": InterfaceGraph(np.array([0.0, 0.6, 1.0]), np.array([0.1, 0.3, 0.3])),
    "flat": InterfaceGraph(np.array([0.0, 1.0]), np.array([0.25, 0.25])),
}

LOAD_SLOPES = {"contact": 7.0 / 4.0, "stretch": 5.0 / 4.0}

BAND_BUDGET = 2 ** 30   # bytes of a mesh's band and widest Y, 8 n (kd + 1 + r)


@dataclass(frozen=True)
class ExperimentConfig:
    """All settings of one identification experiment.

    This dataclass is the config file's only schema: ``cli.CONFIG_SECTIONS``
    maps each ``[section] key`` onto one field, and the field's annotation
    gives the value's type.
    """

    true_interface: str = "kinked"
    load_case: str = "contact"
    E_Y: float = 73000.0
    nu_P: float = 0.34
    F_b: float = 1.0e-5
    delta: float = 1.0e-3
    K_c: float = 1.0e-3
    kappa: float = 1.0e-2
    eps: float = 1.0e-8
    rho_reg: Optional[float] = None      # None: resolved to 1/mu_L
    h_measure: float = 1.0e-2
    h_identify: Optional[float] = None   # None: resolved to h_measure * 8/7
    H: float = 0.1
    psi0: float = 0.25
    n_max: int = 200
    max_outer: int = 50
    snapshot_every: int = 10

    def __post_init__(self):
        if self.true_interface not in TRUE_INTERFACES:
            raise ConfigError("unknown true interface %r" % self.true_interface)
        if self.load_case not in LOAD_SLOPES:
            raise ConfigError("unknown load case %r" % self.load_case)
        for name in ("E_Y", "eps", "rho_reg", "h_measure", "h_identify", "H"):
            value = getattr(self, name)
            if value is not None and not (np.isfinite(value) and value > 0.0):
                raise ConfigError("%s must be finite and > 0, got %r" % (name, value))
        if self.h_identify is None:
            object.__setattr__(self, "h_identify", self.h_measure * (1.0 + 1.0 / 7.0))
        # below this the jump mass w/eps (w about h) exceeds the stiffness
        # (about E) by more than 2^52: the state is contact to roundoff
        floor = 2.0 ** -52 * self.h_identify
        if not self.eps * self.E_Y >= floor:
            raise ConfigError("eps = %r is below 2^-52 h_identify / E_Y = %.3g, where the "
                              "penalty swamps the stiffness in double precision"
                              % (self.eps, floor / self.E_Y))
        try:
            object.__setattr__(self, "rho_reg", self.elasticity().rho_reg)
            self.cohesive()
        except (InvalidPoisson, ValueError) as exc:
            raise ConfigError(str(exc)) from exc
        if not np.isfinite(self.rho_reg):
            raise ConfigError("rho = 1/mu_L is not finite at young = %r" % self.E_Y)
        for name in ("h_measure", "h_identify"):
            h = getattr(self, name)
            size = np.inf   # below h = 1e-100 the counts overflow a float
            if h > 1e-100:
                # the band, and Y = L^-1 U of a first PDAS step, which
                # couples every interior pair on x1 and x2
                rows, n = band_shape(h)
                size = 8.0 * n * (rows + 2 * (grid_counts(h)[0] - 1))
            if size > BAND_BUDGET:
                raise ConfigError("%s = %r needs %.3g bytes for its band factor and "
                                  "coupling, above the %d MiB budget"
                                  % (name, h, size, BAND_BUDGET >> 20))
        n_coarse = 1.0 / self.H
        # 1/H in [2, identify columns]: an interior node, a bounded coarse graph
        columns = grid_counts(self.h_identify)[0]
        if not np.isfinite(n_coarse) or not 2 <= round(n_coarse) <= columns \
                or abs(n_coarse - round(n_coarse)) > 1e-9 * n_coarse:
            raise ConfigError("1/H must be an integer in [2, %d], the column count "
                              "at h_identify; got H = %r" % (columns, self.H))
        # build_mesh needs each interface 2h clear of the top and bottom
        margin = 2.0 * self.h_identify
        if not margin <= self.psi0 <= HEIGHT - margin:
            raise ConfigError("psi0 must lie in [2h, 0.5 - 2h] = [%.4g, %.4g] "
                              "at h_identify, got %r"
                              % (margin, HEIGHT - margin, self.psi0))
        true_psi = self.true_graph().psi
        if 2.0 * self.h_measure > min(np.min(true_psi), HEIGHT - np.max(true_psi)):
            raise ConfigError("h_measure = %r meshes the true interface closer "
                              "than 2h to the boundary" % self.h_measure)
        if self.n_max < 0:
            raise ConfigError("n_max must be >= 0")
        if self.max_outer < 1:
            raise ConfigError("max_outer must be >= 1, got %r" % self.max_outer)
        if self.snapshot_every < 1:
            raise ConfigError("snapshot_every must be >= 1, got %r"
                              % self.snapshot_every)
        if self.h_identify == self.h_measure:
            raise ConfigError(
                "h_identify must differ from h_measure (inverse-crime guard)")

    def elasticity(self):
        return fem.IsotropicElasticity.from_young(self.E_Y, self.nu_P,
                                                  rho_reg=self.rho_reg)

    def cohesive(self):
        return CohesiveParams(F_b=self.F_b, delta=self.delta, K_c=self.K_c,
                              kappa=self.kappa)

    def traction(self, load_case=None):
        """g = (0, (1 - a x1)(4 x2 - 1) mu_L) with a = 7/4 or 5/4."""
        a = LOAD_SLOPES[load_case or self.load_case]
        mu = self.elasticity().mu_L

        def g(x, y):
            return np.zeros_like(np.asarray(x, dtype=float)), \
                (1.0 - a * np.asarray(x, dtype=float)) * (4.0 * np.asarray(y, dtype=float) - 1.0) * mu

        return g

    def true_graph(self):
        return TRUE_INTERFACES[self.true_interface]

    def coarse_count(self):
        return int(round(1.0 / self.H)) + 1

    def initial_graph(self):
        return uniform_graph(np.full(self.coarse_count(), self.psi0))


# ----------------------------------------------------------------------
# Measurements
# ----------------------------------------------------------------------

@dataclass
class Measurement:
    """Observation-boundary displacement trace of the true solution."""

    h: float
    load_case: str
    points: np.ndarray   # (n, 2) sample coordinates on the obs boundary
    disp: np.ndarray     # (n, 2) displacements


def synthesize_measurement(config):
    """Solve the VI on the fine mesh of the true line and trace it.

    Returns (measurement, z field, active set, report, mesh).
    """
    mesh = build_mesh(config.true_graph(), config.h_measure)
    z, aset, report = solvers.solve_vi_pdas(
        mesh, config.cohesive(), config.elasticity(), config.traction(),
        max_outer=config.max_outer)
    meas = Measurement(h=config.h_measure, load_case=config.load_case,
                       points=mesh.observation_points,
                       disp=z.as_points()[mesh.observation_vertices])
    return meas, z, aset, report, mesh


def write_measurement(path, meas):
    np.savetxt(path, np.hstack([meas.points, meas.disp]), fmt="%.17g", comments="",
               header="%s\n# h = %.17g\n# load_case = %s"
               % (MEASUREMENT_HEADER, meas.h, meas.load_case))


def read_measurement(path):
    """Read a measurement v1 file; a malformed one raises ConfigError. The
    rows may come in any order; those within 1e-12 of x2 = 0 or 0.5 make up
    the observation edges, each reaching from x1 = 0 to 1 at distinct x1."""
    with open(path) as fh:
        try:
            header = fh.readline().strip()
            if header != MEASUREMENT_HEADER:
                raise ConfigError("not a measurement v1 file: %r" % header)
            (hk, h), (ck, load_case) = (fh.readline().split("=") for _ in range(2))
            if (hk.strip(), ck.strip()) != ("# h", "# load_case"):
                raise ConfigError("header keys must be '# h' and '# load_case'")
            h, load_case = float(h), load_case.strip()
            with warnings.catch_warnings():
                # a file without rows gets a warning from loadtxt, not an error
                warnings.simplefilter("error", UserWarning)
                data = np.loadtxt(fh, ndmin=2)
        except (ValueError, UserWarning) as exc:
            raise ConfigError("malformed measurement: %s" % exc) from exc
    if not (np.isfinite(h) and h > 0.0):
        raise ConfigError("measurement h must be finite and > 0, got %r" % h)
    if load_case not in LOAD_SLOPES:
        raise ConfigError("unknown measurement load case %r" % load_case)
    if data.shape[1] != 4:
        raise ConfigError("measurement rows need 4 columns (x1 x2 u1 u2), got %d"
                          % data.shape[1])
    if not np.all(np.isfinite(data)):
        raise ConfigError("measurement holds non-finite values")
    on_edge = [np.abs(data[:, 1] - y) < 1e-12 for y in (0.0, HEIGHT)]
    for y, on in zip((0.0, HEIGHT), on_edge):    # the observation edges
        x1 = np.sort(data[on, 0])
        # interp_measurement would extend an edge's end samples flat over a gap
        if not (x1.size and x1[0] <= 1e-12 and x1[-1] >= WIDTH - 1e-12):
            raise ConfigError("measurement samples on the edge x2 = %g do not reach "
                              "from x1 = 0 to x1 = %g" % (y, WIDTH))
        if not np.all(np.diff(x1) > 0.0):   # np.interp needs increasing abscissae
            raise ConfigError("measurement samples on the edge x2 = %g repeat an x1" % y)
    off = ~(on_edge[0] | on_edge[1]) | (data[:, 0] < 0.0) | (data[:, 0] > WIDTH)
    if np.any(off):
        k = int(np.argmax(off))
        raise ConfigError("measurement row %d (x1 = %r, x2 = %r) lies off the "
                          "observation edges x2 = 0 and x2 = %g, 0 <= x1 <= %g"
                          % (k + 1, data[k, 0], data[k, 1], HEIGHT, WIDTH))
    return Measurement(h=h, load_case=load_case,
                       points=data[:, 0:2], disp=data[:, 2:4])


def interp_measurement(mesh, meas):
    """Arclength-linear interpolation of the measurement onto the mesh's
    observation nodes; returns a full-length dof vector (zero elsewhere).
    Each edge takes the samples ``read_measurement`` puts on it, in x1
    order. It reads only the topology's ``observation_points``, so one
    result serves every mesh of one topology."""
    z = np.zeros(mesh.n_dofs)
    pts = mesh.observation_points
    for y in (0.0, HEIGHT):
        src = np.abs(meas.points[:, 1] - y) < 1e-12   # read_measurement's edge rule
        on = pts[:, 1] == y
        dst = mesh.observation_vertices[on]
        xs = meas.points[src, 0]
        order = np.argsort(xs)
        xd = pts[on, 0]
        for comp in (0, 1):
            z[2 * dst + comp] = np.interp(xd, xs[order],
                                          meas.disp[src, comp][order])
    return z


# ----------------------------------------------------------------------
# Objective and shape error
# ----------------------------------------------------------------------

def objective(mesh, u_eps, z_interp, rho_reg, psi):
    """Least-squares boundary misfit plus perimeter regularisation; one
    that is not finite raises ``NumericalOverflow``."""
    with np.errstate(over="ignore", invalid="ignore"):   # reported below
        J = fem.boundary_misfit(mesh, u_eps.values, z_interp) + rho_reg * psi.length()
    if not np.isfinite(J):
        raise NumericalOverflow("objective not finite (max |z| = %.3g, rho = %.3g)"
                                % (np.max(np.abs(z_interp)), rho_reg))
    return J


def shape_error(psi_a, psi_b):
    """Sup-norm proxy: max |psi_a - psi_b| over a uniform grid of step 1e-3."""
    x = np.arange(0.0, 1.0 + 0.5e-3, 1e-3)
    return float(np.max(np.abs(psi_a(x) - psi_b(x))))


# ----------------------------------------------------------------------
# Identification loop
# ----------------------------------------------------------------------

@dataclass
class IterationLog:
    """One dict per iteration in ``rows``, keyed by ``CSV_COLUMNS``."""

    rows: list = field(default_factory=list)
    snapshots: dict = field(default_factory=dict)
    gradients: list = field(default_factory=list)   # (n, s, d3, lam2) tuples
    aborted: Optional[str] = None

    CSV_COLUMNS = ("n", "J", "J_ratio", "shape_error_ratio",
                   "pdas_na", "penalty_iters", "clamped")

    def add(self, **row):
        self.rows.append(row)

    def column(self, name):
        return np.array([r[name] for r in self.rows])

    def min_ratio(self, name):
        return float(np.min(self.column(name)))


def identify(config, meas, record_gradients=False):
    """Run the breaking-line identification loop.

    Starts from the flat coarse graph, and per iteration: meshes the
    current line, solves the penalty state (seeded with the previous
    iterate's active sets; the column count, hence the interface node
    numbering, is fixed) and the adjoint, forms the boundary
    gradient and scaled descent velocity, and updates the grid function.
    The measurement's load case governs the forward solves. Stops after
    ``n_max`` updates (fixed-budget stopping rule) or at a vanishing
    gradient; solver failures abort early with the partial log preserved
    in ``log.aborted``. A measurement made on the identification grid
    raises ``ConfigError``.
    """
    laws = config.cohesive()
    elast = config.elasticity()
    g = config.traction(meas.load_case)
    h = config.h_identify
    if meas.h == h:
        raise ConfigError("measurement h = %r equals h_identify "
                          "(inverse-crime guard)" % meas.h)
    psi_true = config.true_graph()
    psi = config.initial_graph()
    log = IterationLog()

    J0 = None
    err0 = shape_error(psi, psi_true)
    clamped = 0
    start = None   # the previous iterate's converged active sets
    z_vec = None   # every iterate's mesh has the same observation rows

    for n in range(config.n_max + 1):
        try:
            mesh = build_mesh(psi, h)
            u, rep, op = solvers.solve_penalty_state(
                mesh, laws, elast, g, config.eps, max_outer=config.max_outer,
                start=start)
            if z_vec is None:
                z_vec = interp_measurement(mesh, meas)
            J = objective(mesh, u, z_vec, elast.rho_reg, psi)
        except CrackidError as exc:
            log.aborted = "iteration %d: %s" % (n, exc)
            break

        start = rep.configuration
        if J0 is None:
            J0 = J
        err = shape_error(psi, psi_true)
        log.add(n=n, J=J, J_ratio=J / J0,
                shape_error_ratio=err / err0 if err0 > 0 else 1.0,
                pdas_na=int(np.count_nonzero(start[0])),   # converged penetration set
                penalty_iters=rep.iterations, clamped=clamped)
        if n % config.snapshot_every == 0 or n == config.n_max:
            log.snapshots[n] = psi

        if n == config.n_max:
            break

        try:
            v = solvers.solve_adjoint(op, u, z_vec)
            grad = shape.boundary_gradient(mesh, psi, u, v, laws, elast,
                                           config.eps)
            lam2 = shape.descent_velocity(grad, h)
        except CrackidError as exc:
            log.aborted = "iteration %d: %s" % (n, exc)
            break

        if record_gradients:
            log.gradients.append((n, psi.s, grad.d3, lam2))
        if not lam2.any():
            break
        psi, clamped = shape.update_interface(psi, lam2, h)

    return log
