"""Nonlinear interface solvers on the broken mesh.

One active-set engine, ``_active_set_solve``, solves both nonlinear
interface problems; they share the bulk stiffness, the nodal interface
quadrature, the friction and cohesion iteration and the stopping rule (a
repeated active set whose stationarity residual passes the normwise
backward-error test of the factored solves, ``fem.BACKWARD_TOL``; a cycle
of active sets is named as such), and differ only in the normal law, which
the operator holds with its penalty eps:

* ``solve_vi_pdas``      -- exact contact, the variational inequality used
  to synthesise measurements: the contact set is merged shut and re-guessed
  from the multiplier estimate (a primal-dual active-set iteration); it
  returns that set and estimate (``ActiveSet``), and ``svgplot`` derives
  the interface colours from them;
* ``solve_penalty_state`` -- the penalty-regularised state equation: the
  penetration set carries a w/eps nodal jump mass (the penalty term is
  piecewise linear, so each semismooth Newton step is an exact solve).

``solve_adjoint`` solves the linear adjoint equation, whose matrix is the
final state Newton matrix, on the state's operator and so at its eps.
Every linear solve goes through one method, ``_InterfaceOperator.solve``,
on the operator's ``fem.CoupledSystem`` (``fem.subdomain_factor``): on K's
band factor, made once per mesh, one band per subdomain, or on a ``base``
operator's on a mesh of its topology (a probe's); its rows are the mesh's
free dofs in their one order. Each Newton matrix is that factor with a
low-rank coupling on the interface pairs, their rows read from
``mesh.free_row``: the w/eps jump mass of the closed pairs for a penalty,
and the contact-closed and sticking pairs merged shut. No sparse K + J is
built. Every solve couples anew; the factor keeps the last Y = L^-1 U it
formed, so a Newton step that changes only the load (slip signs, cohesion
indicator) forms no Y, nor does the adjoint of a state whose last step
merged nothing.

The operator is also the one home of the nodal interface forces: it
scatters them onto the plus and minus dofs (``interface_load``) and reads
them back from a residual (``traction``).

Friction runs as a stick/slip set iteration: sticking nodes have zero slip
enforced by dof merging and release when their trial traction exceeds the
bound, while slipping nodes carry the lagged traction F_b * sgn. The
cohesion indicator is lagged. Nonlinear interface terms are integrated with
the nodal (trapezoid) rule, which makes active sets nodewise and residuals
exactly representable.
"""

from dataclasses import dataclass, field

import numpy as np

from . import fem
from .errors import NoConvergence, NumericalOverflow
from .laws import beta_discrete, cohesion_discrete_prime, friction_discrete_prime

SIGN_DEADBAND = 1e-14  # keep the previous lagged sign below this magnitude


@dataclass
class SolveReport:
    iterations: int
    residual: float
    active_sizes: list = field(default_factory=list)
    damped_steps: int = 0   # always 0: no damped step remains; the benchmark reads it
    configuration: tuple = None   # converged (closed, sgn, ind), a seed


@dataclass
class ActiveSet:
    """The contact VI's converged contact set and multiplier estimate, per
    interface node; the plot colours the other nodes from the jump."""

    lam: np.ndarray        # multiplier (stress), <= 0 at convergence
    active: np.ndarray     # bool, the converged contact-active mask


class _InterfaceOperator:
    """Shared assembly context for one (mesh, laws, elast, g, eps) tuple,
    ``eps`` the penalty or None for exact contact, and the owner of the
    mesh's coupled system, on its own band factor or on that of ``base``,
    an operator on a mesh of the same topology."""

    def __init__(self, mesh, laws, elast, g, eps, base=None):
        self.mesh = mesh
        self.laws = laws
        self.elast = elast
        self.eps = eps
        self.free_mask = mesh.free_row >= 0
        self.w = mesh.interface_nodal_weights()
        # an overflow is reported below, once, as the solver error it is
        with np.errstate(over="ignore", invalid="ignore"):
            self.K = fem.assemble_stiffness(mesh, elast)
            self.F = fem.assemble_traction(mesh, g)
            self.Fnorm = np.linalg.norm(self.F[self.free_mask])
            self.load_scale = (self.w * laws.F_b, self.w * (laws.K_c / laws.kappa))
        if not (np.isfinite(self.Fnorm) and np.isfinite(self.K.data).all()
                and np.isfinite(self.load_scale).all()):
            raise NumericalOverflow(
                "stiffness or load overflows double precision (load norm %.3g, "
                "Young modulus %.3g, interface load scale %.3g)"
                % (self.Fnorm, elast.E_Y, np.max(self.load_scale)))
        self.interior = mesh.interface_interior()
        self.p1 = 2 * mesh.iface_plus
        self.p2 = 2 * mesh.iface_plus + 1
        self.m1 = 2 * mesh.iface_minus
        self.m2 = 2 * mesh.iface_minus + 1
        self.system = fem.subdomain_factor(mesh, self.K, base and base.system.factor)

    def jumps(self, values):
        return self.mesh.jump(values, 0), self.mesh.jump(values, 1)

    def interface_load(self, t1, t2):
        """Full-length vector of the nodal interface forces t1 (x1) and t2
        (x2): + on the plus copy, - on the minus copy of each node."""
        f = np.zeros(self.mesh.n_dofs)
        for plus, minus, t in ((self.p1, self.m1, t1), (self.p2, self.m2, t2)):
            f[plus] += t
            f[minus] -= t
        return f

    def traction(self, r, comp, nodes):
        """Nodal traction of component ``comp`` that the residual r leaves
        on the interface ``nodes``: (r[plus] - r[minus]) / (2 w)."""
        plus, minus = (self.p1, self.m1) if comp == 0 else (self.p2, self.m2)
        return (r[plus[nodes]] - r[minus[nodes]]) / (2.0 * self.w[nodes])

    def lagged_load(self, sgn, ind):
        """Interface traction vector for frozen friction sign / cohesion
        indicator: t1 = F_b*sgn, t2 = (K_c/kappa)*ind on [[phi]], scaled by
        w in ``load_scale``."""
        return self.interface_load(self.load_scale[0] * sgn, self.load_scale[1] * ind)

    def solve(self, rhs, closed, stick, start=None):
        """Solve the Newton matrix of the normal set ``closed`` and the
        sticking nodes ``stick`` for the full-length load ``rhs``, refining
        from ``start``, free-dof values, where given; the solution is zero
        on the Dirichlet dofs.

        The matrix is K, factored once per mesh, coupled on the closed
        pairs' x2 dofs and the sticking pairs' x1 dofs: with the w/eps jump
        mass for a penalty ``eps``, merged shut in contact (``eps`` None)
        and for a sticking pair.
        """
        normal = self.w[closed] / self.eps if self.eps is not None \
            else np.full(np.count_nonzero(closed), np.inf)
        row = self.mesh.free_row
        self.system.couple(
            row[np.concatenate([self.p2[closed], self.p1[stick]])],
            row[np.concatenate([self.m2[closed], self.m1[stick]])],
            np.concatenate([normal, np.full(np.count_nonzero(stick), np.inf)]))
        free = self.mesh.free_dofs
        x = np.zeros(rhs.size)
        x[free] = self.system.solve(rhs[free], start)
        return x

    def friction_update(self, r, j1, sgn, flips):
        """Stick/slip transfer. sgn = 0 marks sticking nodes (zero slip is
        enforced by merging); they release in the direction of the trial
        traction (recovered from the residual r) once it exceeds the bound
        F_b. Slipping nodes follow their actual slip sign; vanishing slip,
        or a second consecutive sign flip (a node whose equilibrium is
        sticking), sends them back to sticking."""
        new = sgn.copy()
        new_flips = flips.copy()
        idx = np.nonzero(self.interior & (sgn == 0.0))[0]
        t = self.traction(r, 0, idx)
        release = np.abs(t) > self.laws.F_b * (1.0 + 1e-12)
        new[idx[release]] = np.sign(t[release])
        new_flips[idx] = 0
        jdx = np.nonzero(self.interior & (sgn != 0.0))[0]
        tiny = np.abs(j1[jdx]) < SIGN_DEADBAND
        flipped = ~tiny & (np.sign(j1[jdx]) != sgn[jdx])
        new[jdx] = np.where(tiny, 0.0, np.sign(j1[jdx]))
        new_flips[jdx] = np.where(flipped, flips[jdx] + 1, 0)
        cycling = new_flips[jdx] >= 2
        new[jdx[cycling]] = 0.0
        new_flips[jdx[cycling]] = 0
        return new, new_flips

    def stationarity(self, values, stick, shut):
        """Relative residual of K u + f_int(u) - F on the free rows, with
        f_int the discrete friction and cohesion laws plus, for a penalty
        operator, the penalty law; Euclidean (``fem.norm``), relative to
        the load norm.
        Returns it with the product K u.

        Rows that carry constraint reactions are excused: the x2 rows of
        the ``shut`` (contact-merged) pairs drop out, and sticking nodes,
        whose zero slip admits a tangential reaction |t| <= F_b that the
        pointwise sgn law cannot express, count only the excess above it.
        """
        j1, j2 = self.jumps(values)
        t1 = self.w * friction_discrete_prime(j1, self.laws)
        t2 = self.w * cohesion_discrete_prime(j2, self.laws)
        if self.eps is not None:
            t2 = t2 + self.w * beta_discrete(j2, self.eps)
        k_u = self.K @ values
        r = k_u - self.F + self.interface_load(t1, t2)
        idx = np.nonzero(stick)[0]
        t = self.traction(r, 0, idx)
        excess = self.w[idx] * np.maximum(0.0, np.abs(t) - self.laws.F_b)
        r[self.p1[idx]] = excess
        r[self.m1[idx]] = -excess
        rows = self.free_mask.copy()
        rows[self.p2[shut]] = False
        rows[self.m2[shut]] = False
        scale = self.Fnorm if self.Fnorm > 0.0 else 1.0
        return float(fem.norm(r[rows]) / scale), k_u

    def cohesion_update(self, j2, ind):
        at_edge = np.abs(np.abs(j2) - self.laws.kappa) < SIGN_DEADBAND
        return np.where(at_edge, ind, (np.abs(j2) < self.laws.kappa).astype(float))


# ----------------------------------------------------------------------
# The active-set engine and its two normal laws
# ----------------------------------------------------------------------

def _active_set_solve(op, max_outer, start=None, guess=None):
    """One active-set iteration for both normal laws, the operator's.

    ``closed`` is the normal set. For exact contact (``op.eps`` None) its
    x2 pairs are merged shut; it starts fully closed and is re-guessed from
    lambda + (mu_L/h) [[u]]_2 < 0. With a penalty eps it is the
    penetration set {[[u]]_2 < 0}, carrying the w/eps jump mass. The loop
    stops when the normal set, signs and indicator repeat: the active-set
    Newton method has then converged, and a further step would solve the
    same matrix for the same load. The state is accepted if its
    stationarity residual r passes the test each factored solve passes,
    ||r|| <= ``fem.BACKWARD_TOL`` (||F|| + max|A| ||u||), with max|A| the
    system's ``max_abs`` for the final coupling and the norms
    ``fem.norm``'s (a normwise backward error, after Rigal and Gaches;
    Higham, Accuracy and Stability of Numerical Algorithms, 2002, ch. 7);
    otherwise, or without a repeat in ``max_outer`` steps, it raises
    ``NoConvergence``.

    On one factor, and after the first step, whose solve refines from
    ``guess`` (free-dof values) where given, a step is a function of the
    state (closed, sgn, ind, flips), so a state that comes back means the
    sets cycle for good: the first repeat raises ``NoConvergence`` with the
    period, the step the cycle starts at and how many nodes flip in each
    set.

    ``start`` seeds the normal set, the signs and the indicator with a
    converged ``(closed, sgn, ind)`` (``SolveReport.configuration``) of a
    mesh with the same interface nodes. The active-set Newton method
    converges superlinearly from a nearby set (Hintermueller, Ito and
    Kunisch, SIAM J. Optim. 13, 2002); a seed equal to the converged
    configuration makes the first step the last.

    Returns (values, lam, report), with ``lam`` the contact multiplier
    estimate and the converged normal set ``report.configuration[0]``.
    """
    contact = op.eps is None
    name = "PDAS" if contact else "penalty solver"
    interior = op.interior
    n_if = interior.size
    c = op.elast.mu_L / op.mesh.h
    if start is not None:
        closed, sgn, ind = start   # the loop never writes into these
    else:
        closed = interior.copy() if contact else np.zeros(n_if, dtype=bool)
        sgn = np.zeros(n_if)            # 0 = sticking
        ind = np.ones(n_if)
    flips = np.zeros(n_if, dtype=np.int64)
    lam = np.zeros(n_if)
    res = np.inf
    history = []
    seen = {}   # each state's step and sets, in step order

    for it in range(1, max_outer + 1):
        given = guess if it == 1 else None
        state = (op.system.fallback is None, given is None,
                 *(a.tobytes() for a in (closed, sgn, ind, flips)))
        if state in seen:
            first = seen[state][0]
            cycle = zip(*(sets for step, *sets in seen.values() if step >= first))
            flipping = [np.count_nonzero(np.ptp(np.array(s, dtype=float), axis=0))
                        for s in cycle]
            raise NoConvergence("%s cycles with period %d from step %d: %d normal, %d "
                                "friction and %d cohesion nodes flip"
                                % (name, it - first, first, *flipping))
        seen[state] = (it, closed, sgn, ind)
        shut = closed & contact   # no pair is shut under a penalty
        stick = interior & (sgn == 0.0)
        f = op.F - op.lagged_load(sgn, ind)
        values = op.solve(f, closed, stick, given)
        res, k_u = op.stationarity(values, stick, shut)

        # K alone: contact has no J, and a penalty step reads r on x1 rows
        # only, where J has no entry
        r = f - k_u
        jump1, jump2 = op.jumps(values)
        if contact:
            lam = np.zeros(n_if)
            lam[interior] = op.traction(r, 1, interior)
            new_closed = interior & (lam + c * jump2 < 0.0)
        else:
            new_closed = interior & (jump2 < 0.0)
        new_sgn, flips = op.friction_update(r, jump1, sgn, flips)
        new_ind = op.cohesion_update(jump2, ind)
        history.append(int(np.count_nonzero(new_closed)))
        if (np.array_equal(new_closed, closed) and np.array_equal(new_sgn, sgn)
                and np.array_equal(new_ind, ind)):
            break
        closed, sgn, ind = new_closed, new_sgn, new_ind
    else:
        raise NoConvergence("%s did not stabilise in %d iterations (residual %.3e)"
                            % (name, max_outer, res))

    # the repeat is the answer if it passes the solves' backward-error test
    r_norm = res * (op.Fnorm if op.Fnorm > 0.0 else 1.0)
    scale = op.Fnorm + op.system.max_abs * fem.norm(values)
    if not r_norm <= fem.BACKWARD_TOL * scale:   # a NaN residual fails too
        raise NoConvergence("%s stabilised at residual %.3e, backward error %.3e"
                            % (name, res, r_norm / scale))
    report = SolveReport(iterations=it, residual=res, active_sizes=history,
                         configuration=(closed, sgn, ind))
    return values, lam, report


def solve_vi_pdas(mesh, laws, elast, g, max_outer=50):
    """Solve the discrete contact VI by a primal-dual active-set iteration.

    Returns the solution, its ``ActiveSet`` and the ``SolveReport``; the
    report's residual leaves out the rows that carry contact reactions.
    """
    op = _InterfaceOperator(mesh, laws, elast, g, None)
    values, lam, report = _active_set_solve(op, max_outer)
    active = report.configuration[0]   # an inactive node carries no multiplier
    return fem.DofField(values), ActiveSet(np.where(active, lam, 0.0), active), report


# ----------------------------------------------------------------------
# Penalty state and adjoint
# ----------------------------------------------------------------------

def solve_penalty_state(mesh, laws, elast, g, eps, max_outer=50, start=None, base=None,
                        guess=None):
    """Solve the penalty-regularised state equation.

    Semismooth Newton on the penalty term, stopped by the engine's one
    rule: a repeated active set whose residual passes the backward-error
    test (``_active_set_solve``). ``start`` seeds the active sets with the
    ``configuration`` of an earlier report on a mesh with the same
    interface nodes (the previous identification iterate, or the base state
    of a finite-difference probe); ``base``, an operator on a mesh of the
    same topology, lends its band factor, and ``guess``, the mesh's
    free-dof values near the state (a probe's predictor,
    ``cli.gradient_check``), is where the first solve refines from
    (``fem.CoupledSystem.solve``). Returns the state, the ``SolveReport``
    and the operator, whose factor keeps the final Newton matrix's Y for
    ``solve_adjoint``.
    """
    op = _InterfaceOperator(mesh, laws, elast, g, eps, base)
    values, _, report = _active_set_solve(op, max_outer, start, guess)
    return fem.DofField(values), report, op


def solve_adjoint(op, u_eps, z_obs):
    """Solve the linear adjoint equation for the misfit against ``z_obs``.

    The system matrix is the state's Newton matrix, at the state's penalty
    eps, on the penetration set of ``u_eps`` (beta' of the state jump,
    exact for the discrete law),
    unmerged: with the discrete laws the friction/cohesion second
    derivatives vanish so no tangential coupling remains. ``op`` couples it
    on the mesh's factor, taking the Y of the state's last step when that
    step merged nothing.
    ``z_obs`` is a full-length dof vector holding the measurement trace on
    the observation nodes. Returns the adjoint field.
    """
    mesh = op.mesh
    rhs = fem.assemble_boundary_mass(mesh) @ (u_eps.values
                                              - np.asarray(z_obs).reshape(-1))
    closed = op.interior & (mesh.jump(u_eps.values, 1) < 0.0)
    return fem.DofField(op.solve(rhs, closed, np.zeros_like(closed)))
