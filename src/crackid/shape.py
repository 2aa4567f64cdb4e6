"""Shape-derivative machinery for the breaking-line identification.

Two routes to the same directional derivative of the misfit objective:

* ``boundary_gradient`` evaluates the Hadamard boundary densities on the
  fine interface edges (energy jump, friction/cohesion products and their
  normal gradients, curvature and perimeter terms), reading gradients and
  stresses on the two triangles beside each edge only, and aggregates them
  to the line's coarse nodes psi.s; ``descent_velocity`` turns them into
  the descent velocity and ``update_interface`` applies it. A velocity is
  vertical, an array of its nodal values lam2 on psi.s.
* ``directional_derivative_volumetric`` evaluates the distributed-form
  derivative with a volumetric tent extension of each of many velocities,
  the state's fields formed once and each volume integrand on its own
  support. Velocity gradients are taken from the P1 interpolant of the
  nodal extension, so the result is the exact derivative of the
  discretised objective under the column-preserving remesh protocol; it
  is the oracle the boundary form is validated against.
"""

from dataclasses import dataclass

import numpy as np

from . import fem
from .errors import MissingAdjacentTriangle, NumericalOverflow
from .geometry import HEIGHT, InterfaceGraph, coarse_curvature
from .laws import beta_discrete, beta_discrete_prime, cohesion_discrete_prime, \
    friction_discrete_prime


@dataclass
class BoundaryGradient:
    """Hadamard gradient densities aggregated to the line's coarse nodes."""

    d3: np.ndarray           # aggregated D3 per coarse node
    d1_left: float           # nu . D1 at the left Dirichlet endpoint
    d1_right: float


def velocity_extension(points, psi, lam2):
    """The volumetric tent extension, at ``points``, of the vertical
    velocity with the nodal values ``lam2`` on the coarse grid ``psi.s``:
    (0, lam2(x1) w(x2)), lam2 interpolated linearly, with w = x2/psi below
    the interface and (0.5 - x2)/(0.5 - psi) above. It vanishes on the top
    and bottom boundary, so n . Lambda = 0 on the whole outer boundary."""
    pts = np.asarray(points, dtype=float)
    x, y = pts[:, 0], pts[:, 1]
    p = psi(x)
    lam = np.interp(x, psi.s, lam2)
    w = np.where(y <= p, y / p, (HEIGHT - y) / (HEIGHT - p))
    out = np.zeros_like(pts)
    out[:, 1] = lam * w
    return out


def _jumps(mesh, u_eps, v_eps):
    """The nodal interface jumps of u and v, components 0 and 1 of each."""
    return [mesh.jump(w.values, c) for w in (u_eps, v_eps) for c in (0, 1)]


def _pair_densities(mesh, u_eps, v_eps, laws, elast, eps):
    """Fine pair-edge densities of the boundary gradient: the energy jump
    less the normal-gradient terms, the friction and cohesion products
    p_f and p_c, and the endpoint values nu . D1 at x1 = 0 and 1.

    Gradients, stresses and energies are formed on the two triangles
    adjacent to each pair edge only (``mesh.pair_tri_plus``/``_minus``).
    """
    sides = []
    for tris in (mesh.pair_tri_plus, mesh.pair_tri_minus):
        gu = fem.field_gradients(mesh, u_eps.values, tris)
        gv = fem.field_gradients(mesh, v_eps.values, tris)
        su = elast.stress(fem.strain_from_grad(gu))
        sv = elast.stress(fem.strain_from_grad(gv))
        energy = np.einsum("eab,eab->e", su, fem.strain_from_grad(gv))
        sides.append((gu, gv, su, sv, energy))
    (gu_p, gv_p, su_p, sv_p, energy_p), (gu_m, gv_m, su_m, sv_m, energy_m) = sides
    energy_jump = energy_p - energy_m

    gu_j = gu_p - gu_m
    gv_j = gv_p - gv_m
    nu, tau = mesh.normals, mesh.tangents

    ju1m, ju2m, jv1m, jv2m = (0.5 * (j[:-1] + j[1:]) for j in _jumps(mesh, u_eps, v_eps))
    fric = friction_discrete_prime(ju1m, laws)
    coh_beta = cohesion_discrete_prime(ju2m, laws) + beta_discrete(ju2m, eps)
    beta_p = beta_discrete_prime(ju2m, eps)

    p_f = fric * jv1m
    p_c = coh_beta * jv2m
    grad_pf = np.einsum("eab,ea->eb", gv_j, tau) * fric[:, None]
    grad_pc = (np.einsum("eab,ea->eb", gv_j, nu) * coh_beta[:, None]
               + np.einsum("eab,ea->eb", gu_j, nu) * (beta_p * jv2m)[:, None])
    grad_pf_nu = np.einsum("eb,eb->e", grad_pf, nu)
    grad_pc_nu = np.einsum("eb,eb->e", grad_pc, nu)

    # endpoint density D1 = [[grad(u)^T sigma(v) + grad(v)^T sigma(u)]] tau (2 x1 - 1)
    def d1_at(edge, x1):
        M = (gu_p[edge].T @ sv_p[edge] + gv_p[edge].T @ su_p[edge]
             - gu_m[edge].T @ sv_m[edge] - gv_m[edge].T @ su_m[edge])
        vec = (M @ tau[edge]) * (2.0 * x1 - 1.0)
        return float(vec @ nu[edge])

    field_core = energy_jump - grad_pf_nu - grad_pc_nu
    return field_core, p_f, p_c, d1_at(0, 0.0), d1_at(-1, 1.0)


def _aggregate(mesh, s, *fields):
    """Hat-weighted edge-length averages of fine pair-edge ``fields`` at the
    coarse nodes ``s``: row k of the weights is the hat of node k at each
    edge midpoint times the edge length, built once for all fields."""
    xm = 0.5 * (mesh.interface_x[:-1] + mesh.interface_x[1:])
    lo, hi = s[:-1, None], s[1:, None]
    hat = np.zeros((s.size, xm.size))
    hat[1:] = np.where((xm >= lo) & (xm <= hi), (xm - lo) / (hi - lo), 0.0)
    hat[:-1] = np.where((xm > lo) & (xm < hi), (hi - xm) / (hi - lo), hat[:-1])
    weights = hat * mesh.pair_lengths
    totals = [w.sum() for w in weights]
    return [np.array([(w @ field) / tot if tot > 0 else 0.0
                      for w, tot in zip(weights, totals)]) for field in fields]


def boundary_gradient(mesh, psi, u_eps, v_eps, laws, elast, eps):
    """Assemble the interface gradient densities from state and adjoint.

    Per fine pair edge the adjacent-triangle constant gradients give the
    energy jump and the normal-gradient terms (flat-frame form, gradients
    of the frame itself set to zero); friction/cohesion products use the
    midpoint jump values (``_pair_densities``). Fine values are aggregated
    to the coarse nodes by hat-weighted edge-length averaging, and the
    curvature term is added on the coarse grid where the velocity lives.
    A gradient that is not finite raises ``NumericalOverflow``.
    """
    if np.any(mesh.pair_tri_plus < 0) or np.any(mesh.pair_tri_minus < 0):
        raise MissingAdjacentTriangle("interface pair lacks an adjacent triangle")
    field_core, p_f, p_c, d1_left, d1_right = _pair_densities(
        mesh, u_eps, v_eps, laws, elast, eps)

    core, pf, pc = _aggregate(mesh, psi.s, field_core, p_f, p_c)
    with np.errstate(over="ignore", invalid="ignore"):   # reported below
        d3 = core + coarse_curvature(psi) * (elast.rho_reg - pf - pc)
    if not np.isfinite([*d3, d1_left, d1_right]).all():
        raise NumericalOverflow("shape gradient not finite (rho = %.3g)" % elast.rho_reg)

    return BoundaryGradient(d3=d3, d1_left=d1_left, d1_right=d1_right)


def descent_velocity(grad, h):
    """The scaled descent velocity from the boundary gradient: its nodal
    values lam2 on the line's coarse nodes.

    Interior: lam2 = -k D3. Endpoints: lam2 = (k/sqrt(h)) (2 x1 - 1) nu.D1
    with the empirical 1/sqrt(h) Dirichlet weight, on top of the
    (2 x1 - 1) factor that D1 itself carries.

    Scaling: k = 0.1 h / sup of the raw field over the interior nodes, and
    the endpoint components saturate at the same 0.1 h bound: the
    pointwise corner value of D1 sits next to a boundary singularity and
    its mesh-dependent magnitude would otherwise throttle the interior
    descent. If the interior field vanishes, the sup is taken over all
    nodes. Either way the scaled field satisfies max |lam2| = 0.1 h
    exactly, so it is zero only where the raw gradient vanishes.
    """
    raw = np.zeros(grad.d3.size)
    raw[1:-1] = -grad.d3[1:-1]
    raw[0] = -grad.d1_left / np.sqrt(h)
    raw[-1] = grad.d1_right / np.sqrt(h)
    cap = 0.1 * h
    mx = float(np.max(np.abs(raw[1:-1])))
    if mx < 1e-30:
        mx = float(np.max(np.abs(raw)))
    if mx < 1e-30:
        return np.zeros_like(raw)
    return np.clip(cap / mx * raw, -cap, cap)


def update_interface(psi, lam2, h):
    """Move the line's coarse nodes by the nodal velocity ``lam2``,
    clamped to [2h, 0.5 - 2h].

    Returns the new graph and the number of clamped nodes.
    """
    raw = psi.psi + lam2
    new = np.clip(raw, 2.0 * h, HEIGHT - 2.0 * h)
    clamped = int(np.count_nonzero(new != raw))
    return InterfaceGraph(psi.s.copy(), new), clamped


def directional_derivative_volumetric(mesh, psi, u_eps, v_eps, laws, elast,
                                      eps, vels):
    """Directional derivatives of the objective, a list with one for each
    velocity of ``vels``, each the nodal values on ``psi.s`` of a vertical
    velocity, extended by its tent (``velocity_extension``).

    Evaluates the distributed form: the volume term with div(Lambda) and
    the transported strains E(grad Lambda, .) at element midpoints, the
    interface term -(p_f + p_c) div_tau Lambda with the nodal trapezoid
    rule matching the interface quadrature of the state equation, and the
    perimeter term rho d|Sigma|/ds from the coarse polyline. The
    observation/Neumann boundary terms vanish identically because the
    tent extension is zero there (asserted).

    The gradients and stresses of u and v, sigma(u):eps(v) and the
    interface products are formed once. A velocity's volume integrand is
    formed on its support only, the triangles with a nonzero corner of the
    extension (a coarse hat's two intervals), and scattered into zeros:
    off the support the whole-mesh integrand is +-0, which leaves a
    nonzero sum unchanged, so the pairwise sum over all triangles keeps
    the bits of the whole-mesh evaluation.
    """
    gu = fem.field_gradients(mesh, u_eps.values)
    gv = fem.field_gradients(mesh, v_eps.values)
    ev = fem.strain_from_grad(gv)
    su = elast.stress(fem.strain_from_grad(gu))
    sv = elast.stress(ev)
    su_ev = np.einsum("eab,eab->e", su, ev)

    def E(M, G):
        # derivative of the transported strain: sym(grad(u) @ grad(Lambda))
        # in the (du_a/dx_b) gradient convention
        GM = np.einsum("eab,ebc->eac", G, M)
        return 0.5 * (GM + np.swapaxes(GM, 1, 2))

    # interface term, trapezoid rule consistent with the nodal state quadrature
    ju1, ju2, jv1, jv2 = _jumps(mesh, u_eps, v_eps)
    p_node = (friction_discrete_prime(ju1, laws) * jv1
              + (cohesion_discrete_prime(ju2, laws) + beta_discrete(ju2, eps)) * jv2)
    p_edge = 0.5 * (p_node[:-1] + p_node[1:])
    dx = np.diff(mesh.interface_x)
    dy = np.diff(mesh.vertices[mesh.iface_minus, 1])

    # perimeter term: exact derivative of the coarse polyline length
    dpsi = np.diff(psi.psi)
    seg = np.hypot(np.diff(psi.s), dpsi)

    bnd = mesh.observation_vertices
    out = []
    for lam2 in vels:
        nodal = velocity_extension(mesh.vertices, psi, lam2)
        if np.max(np.abs(nodal[bnd])) > 1e-14 * (1.0 + np.max(np.abs(lam2))):
            raise ValueError("velocity extension does not vanish on the outer boundary")

        t = np.flatnonzero(np.any(nodal[mesh.triangles, 1] != 0.0, axis=1))
        gL = np.einsum("eia,eib->eab", nodal[mesh.triangles[t]], mesh.tri_grads[t])
        divL = gL[:, 0, 0] + gL[:, 1, 1]
        vol = np.zeros(mesh.tri_area.size)
        vol[t] = divL * su_ev[t] \
            - np.einsum("eab,eab->e", su[t], E(gL, gv[t])) \
            - np.einsum("eab,eab->e", sv[t], E(gL, gu[t]))
        term_vol = -float(np.sum(mesh.tri_area * vol))

        dlam = np.diff(nodal[mesh.iface_minus, 1])
        div_tau = dy * dlam / (dx * dx + dy * dy)  # tau . dLambda/darc, P1 trace
        term_sigma = -float(np.sum(mesh.pair_lengths * div_tau * p_edge))

        term_perim = elast.rho_reg * float(np.sum(dpsi * np.diff(lam2) / seg))

        out.append(term_vol + term_sigma + term_perim)
    return out
