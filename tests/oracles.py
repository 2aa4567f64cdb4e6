"""Independent dense oracles for the solver tests.

Everything here is deliberately written as plain loops over elements,
edges and nodes with dense linear algebra, sharing no assembly code with
the package. Only usable on tiny meshes.
"""

import numpy as np

GAUSS2 = (0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0))


def dense_stiffness(mesh, elast):
    n = mesh.n_dofs
    K = np.zeros((n, n))
    mu, lam = elast.mu_L, elast.lambda_L
    D = np.array([[lam + 2 * mu, lam, 0.0], [lam, lam + 2 * mu, 0.0],
                  [0.0, 0.0, mu]])
    for tri in mesh.triangles:
        X = mesh.vertices[tri]
        A = 0.5 * ((X[1, 0] - X[0, 0]) * (X[2, 1] - X[0, 1])
                   - (X[2, 0] - X[0, 0]) * (X[1, 1] - X[0, 1]))
        b = np.array([X[1, 1] - X[2, 1], X[2, 1] - X[0, 1], X[0, 1] - X[1, 1]])
        c = np.array([X[2, 0] - X[1, 0], X[0, 0] - X[2, 0], X[1, 0] - X[0, 0]])
        B = np.zeros((3, 6))
        for i in range(3):
            B[0, 2 * i] = b[i]
            B[1, 2 * i + 1] = c[i]
            B[2, 2 * i] = c[i]
            B[2, 2 * i + 1] = b[i]
        B /= 2.0 * A
        ke = A * B.T @ D @ B
        dofs = [2 * tri[0], 2 * tri[0] + 1, 2 * tri[1], 2 * tri[1] + 1,
                2 * tri[2], 2 * tri[2] + 1]
        for a in range(6):
            for bb in range(6):
                K[dofs[a], dofs[bb]] += ke[a, bb]
    return K


def dense_traction(mesh, g):
    f = np.zeros(mesh.n_dofs)
    for (va, vb) in mesh.neumann_edges:
        a, b = mesh.vertices[va], mesh.vertices[vb]
        L = np.hypot(*(b - a))
        for t in GAUSS2:
            p = a + t * (b - a)
            gx, gy = g(np.array([p[0]]), np.array([p[1]]))
            f[2 * va] += 0.5 * L * float(gx[0]) * (1 - t)
            f[2 * vb] += 0.5 * L * float(gx[0]) * t
            f[2 * va + 1] += 0.5 * L * float(gy[0]) * (1 - t)
            f[2 * vb + 1] += 0.5 * L * float(gy[0]) * t
    return f


def nodal_weights(mesh):
    w = np.zeros(mesh.iface_minus.size)
    for e, (pa, pb) in enumerate(mesh.pair_minus):
        L = np.hypot(*(mesh.vertices[pb] - mesh.vertices[pa]))
        w[e] += 0.5 * L
        w[e + 1] += 0.5 * L
    return w


def interface_traction_vector(mesh, laws, u, eps=None):
    """Dense residual contribution of the nonlinear interface laws."""
    f = np.zeros(mesh.n_dofs)
    w = nodal_weights(mesh)
    for n in range(mesh.iface_minus.size):
        p, m = mesh.iface_plus[n], mesh.iface_minus[n]
        j1 = u[2 * p] - u[2 * m]
        j2 = u[2 * p + 1] - u[2 * m + 1]
        t1 = laws.F_b * np.sign(j1)
        t2 = (laws.K_c / laws.kappa) * (abs(j2) < laws.kappa)
        if eps is not None:
            t2 += min(0.0, j2) / eps
        f[2 * p] += w[n] * t1
        f[2 * m] -= w[n] * t1
        f[2 * p + 1] += w[n] * t2
        f[2 * m + 1] -= w[n] * t2
    return f


def free_dofs(mesh):
    fixed = set()
    for v in mesh.dirichlet_vertices:
        fixed.add(2 * v)
        fixed.add(2 * v + 1)
    return np.array([d for d in range(mesh.n_dofs) if d not in fixed])


def dense_penalty_solve(mesh, laws, elast, g, eps, max_iter=100, tol=1e-13):
    """Fixed-point iteration on the lagged laws and penetration set."""
    K = dense_stiffness(mesh, elast)
    F = dense_traction(mesh, g)
    w = nodal_weights(mesh)
    free = free_dofs(mesh)
    u = np.zeros(mesh.n_dofs)
    x = mesh.vertices[mesh.iface_minus, 0]
    interior = (x > 0.0) & (x < 1.0)
    for _ in range(max_iter):
        Kp = K.copy()
        for n in np.nonzero(interior)[0]:
            p2, m2 = 2 * mesh.iface_plus[n] + 1, 2 * mesh.iface_minus[n] + 1
            j2 = u[p2] - u[m2]
            if j2 < 0.0:
                cw = w[n] / eps
                Kp[p2, p2] += cw
                Kp[m2, m2] += cw
                Kp[p2, m2] -= cw
                Kp[m2, p2] -= cw
        f_lag = np.zeros(mesh.n_dofs)
        for n in np.nonzero(interior)[0]:
            p, m = mesh.iface_plus[n], mesh.iface_minus[n]
            j1 = u[2 * p] - u[2 * m]
            j2 = u[2 * p + 1] - u[2 * m + 1]
            t1 = laws.F_b * np.sign(j1)
            t2 = (laws.K_c / laws.kappa) * (abs(j2) < laws.kappa)
            f_lag[2 * p] += w[n] * t1
            f_lag[2 * m] -= w[n] * t1
            f_lag[2 * p + 1] += w[n] * t2
            f_lag[2 * m + 1] -= w[n] * t2
        u_new = np.zeros(mesh.n_dofs)
        u_new[free] = np.linalg.solve(Kp[np.ix_(free, free)], (F - f_lag)[free])
        if np.max(np.abs(u_new - u)) < tol * max(1.0, np.max(np.abs(u_new))):
            return u_new
        u = u_new
    return u


def dense_adjoint_solve(mesh, laws, elast, u, z, eps):
    K = dense_stiffness(mesh, elast)
    w = nodal_weights(mesh)
    x = mesh.vertices[mesh.iface_minus, 0]
    interior = (x > 0.0) & (x < 1.0)
    for n in np.nonzero(interior)[0]:
        p2, m2 = 2 * mesh.iface_plus[n] + 1, 2 * mesh.iface_minus[n] + 1
        if u[p2] - u[m2] < 0.0:
            cw = w[n] / eps
            K[p2, p2] += cw
            K[m2, m2] += cw
            K[p2, m2] -= cw
            K[m2, p2] -= cw
    rhs = np.zeros(mesh.n_dofs)
    d = (u - z).reshape(-1, 2)
    for (va, vb) in mesh.observation_edges:
        a, b = mesh.vertices[va], mesh.vertices[vb]
        L = np.hypot(*(b - a))
        for comp in (0, 1):
            rhs[2 * va + comp] += L / 3.0 * d[va, comp] + L / 6.0 * d[vb, comp]
            rhs[2 * vb + comp] += L / 3.0 * d[vb, comp] + L / 6.0 * d[va, comp]
    free = free_dofs(mesh)
    v = np.zeros(mesh.n_dofs)
    v[free] = np.linalg.solve(K[np.ix_(free, free)], rhs[free])
    return v


def hadamard_estimate(grad, vel):
    """Coarse-node quadrature of the boundary form int (nu . Lambda) D3 dS
    restricted to interior nodes (endpoint motion is driven by D1)."""
    s = grad.s
    w = np.zeros(s.size)
    w[1:-1] = 0.5 * (s[2:] - s[:-2])
    return float(np.sum(vel.lam2 * grad.d3 * w))
