"""Independent dense oracles for the solver tests.

Everything here is deliberately written as plain loops over elements,
edges and nodes with dense linear algebra, sharing no assembly code with
the package. Only usable on tiny meshes. The vectorised references at the
end keep the formulas that faster package code must match bit for bit;
``record_calls`` counts the package's work by wrapping a function, and
``gradient_check_from_the_base_state`` keeps the gradient check whose
probes all start from the base state.
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


def dirichlet_vertices(mesh):
    """The clamped vertices found from the coordinates: x1 = 0 or x1 = 1."""
    return np.flatnonzero(np.isin(mesh.vertices[:, 0], (0.0, 1.0)))


def column_count(mesh):
    """The mesh's columns: one fewer than the interface nodes."""
    return mesh.iface_minus.size - 1


def free_dofs(mesh):
    fixed = set()
    for v in dirichlet_vertices(mesh):
        fixed.add(2 * v)
        fixed.add(2 * v + 1)
    return np.array([d for d in range(mesh.n_dofs) if d not in fixed])


def dirichlet_lift(matrix, rhs, free, values):
    """Inhomogeneous Dirichlet data moved into the right-hand side.

    Returns (rhs - A g, g) with g equal to ``values`` on the fixed dofs
    (``free`` is False) and zero on the free ones; the solution is the
    homogeneous solve of the lifted right-hand side plus g.
    """
    lift = np.where(free, 0.0, np.asarray(values, dtype=float))
    return rhs - matrix @ lift, lift


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
    for (va, vb) in mesh.neumann_edges:
        a, b = mesh.vertices[va], mesh.vertices[vb]
        L = np.hypot(*(b - a))
        for comp in (0, 1):
            rhs[2 * va + comp] += L / 3.0 * d[va, comp] + L / 6.0 * d[vb, comp]
            rhs[2 * vb + comp] += L / 3.0 * d[vb, comp] + L / 6.0 * d[va, comp]
    free = free_dofs(mesh)
    v = np.zeros(mesh.n_dofs)
    v[free] = np.linalg.solve(K[np.ix_(free, free)], rhs[free])
    return v


def hadamard_estimate(s, grad, lam2):
    """Coarse-node quadrature of the boundary form int (nu . Lambda) D3 dS
    over the coarse nodes ``s``, restricted to interior nodes (endpoint
    motion is driven by D1), for the nodal velocity ``lam2``."""
    w = np.zeros(s.size)
    w[1:-1] = 0.5 * (s[2:] - s[:-2])
    return float(np.sum(lam2 * grad.d3 * w))


def constant_graph(height, n_nodes=11):
    """Flat line at ``height`` on the uniform coarse grid of ``n_nodes``."""
    from crackid.geometry import uniform_graph
    return uniform_graph(np.full(n_nodes, float(height)))


def h1_seminorm(mesh, values):
    """Broken H1 seminorm of a dof vector over both subdomains."""
    from crackid.fem import field_gradients
    g = field_gradients(mesh, values)
    return float(np.sqrt(np.sum(mesh.tri_area * np.sum(g * g, axis=(1, 2)))))


def recover_multiplier(mesh, u_eps, eps):
    """Contact multiplier estimate beta_eps([[u]]_2) per interface node of
    ``mesh``, on which ``u_eps`` lives."""
    from crackid.laws import beta_discrete
    return beta_discrete(mesh.jump(u_eps.values, 1), eps)


def loop_mesh(graph, h, n_cols=None, n_rows_below=None, n_rows_above=None):
    """Every array field of a broken mesh and of its topology, built with
    plain loops; the topology's coordinate tables are read off the
    vertices.

    Same vertex numbering and triangle orientation as ``build_mesh``:
    vertices row by row (x1 fastest), the lower block first, each cell
    (a, b, c, d) counter-clockwise from its lower-left corner cut into
    (a, b, c) and (a, c, d).
    """
    if n_cols is None:
        n_cols = max(2, round(1.0 / h))
    if n_rows_below is None:
        n_rows_below = max(1, round(0.25 / h))
    if n_rows_above is None:
        n_rows_above = max(1, round(0.25 / h))
    nx = n_cols + 1
    xs = np.linspace(0.0, 1.0, nx)
    psi_cols = graph(xs)

    def block(y_bottom, y_top, n_rows):
        fr = np.linspace(0.0, 1.0, n_rows + 1)
        yy = y_bottom[None, :] + fr[:, None] * (y_top - y_bottom)[None, :]
        return np.column_stack([np.tile(xs, n_rows + 1), yy.reshape(-1)])

    verts_lo = block(np.zeros(nx), psi_cols, n_rows_below)
    vertices = np.vstack([verts_lo, block(psi_cols, np.full(nx, 0.5), n_rows_above)])
    off_hi = verts_lo.shape[0]

    def idx_lo(i, j):
        return i * nx + j

    def idx_hi(i, j):
        return off_hi + i * nx + j

    def block_triangles(idx, n_rows):
        tris = []
        for i in range(n_rows):
            for j in range(n_cols):
                a, b = idx(i, j), idx(i, j + 1)
                c, d = idx(i + 1, j + 1), idx(i + 1, j)
                tris.append((a, b, c))
                tris.append((a, c, d))
        return tris

    tris_lo = block_triangles(idx_lo, n_rows_below)
    tris_hi = block_triangles(idx_hi, n_rows_above)
    triangles = np.array(tris_lo + tris_hi, dtype=np.int64)

    p = vertices[triangles]
    area = 0.5 * ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                  - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))
    grads = np.empty((len(triangles), 3, 2))
    for e in range(len(triangles)):
        for i in range(3):
            # rot90 of the edge opposite corner i, over twice the area
            q, r = p[e, (i + 1) % 3], p[e, (i + 2) % 3]
            grads[e, i, 0] = -(r[1] - q[1]) / (2.0 * area[e])
            grads[e, i, 1] = (r[0] - q[0]) / (2.0 * area[e])

    iface_minus = np.array([idx_lo(n_rows_below, j) for j in range(nx)], dtype=np.int64)
    iface_plus = np.array([idx_hi(0, j) for j in range(nx)], dtype=np.int64)
    edge_vec = vertices[iface_minus[1:]] - vertices[iface_minus[:-1]]
    lengths = np.hypot(edge_vec[:, 0], edge_vec[:, 1])
    tangents = edge_vec / lengths[:, None]
    base_lo = (n_rows_below - 1) * 2 * n_cols
    bottom = [(idx_lo(0, j), idx_lo(0, j + 1)) for j in range(n_cols)]
    top = [(idx_hi(n_rows_above, j), idx_hi(n_rows_above, j + 1)) for j in range(n_cols)]
    observation = ([idx_lo(0, j) for j in range(nx)]
                   + [idx_hi(n_rows_above, j) for j in range(nx)])
    edges = bottom + top
    # unclamped dofs block by block, the lower first, each column by column
    free, block_end = [], []
    for idx, n_rows in ((idx_lo, n_rows_below), (idx_hi, n_rows_above)):
        for j in range(1, n_cols):
            for i in range(n_rows + 1):
                free += [2 * idx(i, j), 2 * idx(i, j) + 1]
        block_end.append(len(free))
    free_row = np.full(2 * len(vertices), -1, dtype=np.int64)
    for k, d in enumerate(free):
        free_row[d] = k
    return dict(
        vertices=vertices, triangles=triangles,
        neumann_edges=np.array(edges, dtype=np.int64),
        observation_vertices=np.array(observation, dtype=np.int64),
        interface_x=np.array([vertices[v, 0] for v in iface_minus]),
        observation_points=np.array([vertices[v] for v in observation]),
        neumann_points=np.array([[vertices[v] for v in ends] for ends in zip(*edges)]),
        neumann_lengths=np.array([np.hypot(*(vertices[b] - vertices[a])) for a, b in edges]),
        iface_minus=iface_minus, iface_plus=iface_plus,
        pair_minus=np.column_stack([iface_minus[:-1], iface_minus[1:]]),
        pair_plus=np.column_stack([iface_plus[:-1], iface_plus[1:]]),
        pair_tri_minus=np.array([base_lo + 2 * j + 1 for j in range(n_cols)], dtype=np.int64),
        pair_tri_plus=np.array([len(tris_lo) + 2 * j for j in range(n_cols)], dtype=np.int64),
        free_dofs=np.array(free, dtype=np.int64), free_row=free_row,
        block_end=np.array(block_end, dtype=np.int64),
        normals=np.column_stack([-tangents[:, 1], tangents[:, 0]]),
        tangents=tangents, pair_lengths=lengths,
        tri_area=area, tri_grads=grads)


def einsum_element_stiffness(area, grads, dmat):
    """Per-element 6x6 blocks (nt, 6, 6) by the two einsums (B^T D) B."""
    nt = area.shape[0]
    B = np.zeros((nt, 3, 6))
    B[:, 0, 0::2] = grads[:, :, 0]
    B[:, 1, 1::2] = grads[:, :, 1]
    B[:, 2, 0::2] = grads[:, :, 1]
    B[:, 2, 1::2] = grads[:, :, 0]
    BtD = np.einsum("eji,jk->eik", B, dmat)
    return np.einsum("eik,ekl->eil", BtD, B) * area[:, None, None]


def tril_band(matrix):
    """Lower band storage of a sparse symmetric matrix, scattered from the
    COO form of its lower triangle; as high as its widest stored entry."""
    import scipy.sparse as sp

    low = sp.tril(matrix, format="coo")
    offset = low.row - low.col
    band = np.zeros((offset.max(initial=0) + 1, matrix.shape[0]))
    band[offset, low.col] = low.data
    return band


def observation_nodes(mesh):
    """Observation vertex ids found from the coordinates: the Neumann edges'
    vertices sorted by (x2, x1)."""
    ids = np.unique(mesh.neumann_edges)
    pts = mesh.vertices[ids]
    return ids[np.lexsort((pts[:, 0], pts[:, 1]))]


def block_end_scan(lower):
    """Where the diagonal blocks of a Cholesky factor in lower band storage
    end, found from its nonzeros: after row i when no entry of the rows up
    to i reaches below it."""
    n = lower.shape[1]
    depth = lower.shape[0] - 1 - np.argmax(lower[::-1] != 0.0, axis=0)
    reach = np.maximum.accumulate(np.arange(n) + depth)
    reach[-1] = n - 1
    return np.flatnonzero(reach == np.arange(n)) + 1


def column_order(mesh):
    """The free dofs column by column across both blocks (x1, then x2, then
    component), each minus copy next to its plus copy: the order in which
    K plus a jump coupling stays banded. In the mesh's own block order such
    a matrix joins the blocks, and its band spans half of it."""
    nx = column_count(mesh) + 1
    return np.array(sorted(mesh.free_dofs, key=lambda d: (d // 2 % nx, d)),
                    dtype=np.int64)


def full_band_solve(matrix, rhs):
    """Solve with the band Cholesky of a sparse SPD matrix in the order it
    comes in: the ``tril_band`` scatter, ``cholesky_banded`` and
    ``cho_solve_banded``."""
    from scipy.linalg import cho_solve_banded, cholesky_banded

    lower = cholesky_banded(tril_band(matrix), lower=True, check_finite=False)
    return cho_solve_banded((lower, True), rhs, check_finite=False)


def assemble_interface_linear(mesh, weights, component="normal", lumped=False):
    """Jump-mass matrix over the interface pairs.

    For matched P1 traces the quadratic form is
      sum_pairs w_e * int_e [[u]]_c [[v]]_c dS,
    with the 1D edge mass matrix (consistent by default, trapezoid-lumped
    when ``lumped``). ``component`` selects the jump component: "normal"
    couples the x2 dofs, "tangent" the x1 dofs.
    """
    import scipy.sparse as sp

    comp = {"normal": 1, "tangent": 0}[component]
    w = np.broadcast_to(np.asarray(weights, dtype=float), mesh.pair_lengths.shape)
    L = mesh.pair_lengths
    if lumped:
        m11 = m22 = 0.5 * L * w
        m12 = np.zeros_like(L)
    else:
        m11 = m22 = L * w / 3.0
        m12 = L * w / 6.0
    pa = 2 * mesh.pair_plus[:, 0] + comp
    pb = 2 * mesh.pair_plus[:, 1] + comp
    ma = 2 * mesh.pair_minus[:, 0] + comp
    mb = 2 * mesh.pair_minus[:, 1] + comp
    rows, cols, vals = [], [], []

    def add(r, c, v):
        rows.append(r)
        cols.append(c)
        vals.append(v)

    # signed pattern (+plus, -minus) x (+plus, -minus)
    add(pa, pa, m11); add(pb, pb, m22); add(pa, pb, m12); add(pb, pa, m12)
    add(ma, ma, m11); add(mb, mb, m22); add(ma, mb, m12); add(mb, ma, m12)
    add(pa, ma, -m11); add(pb, mb, -m22); add(pa, mb, -m12); add(pb, ma, -m12)
    add(ma, pa, -m11); add(mb, pb, -m22); add(ma, pb, -m12); add(mb, pa, -m12)
    mat = sp.coo_matrix((np.concatenate(vals),
                         (np.concatenate(rows), np.concatenate(cols))),
                        shape=(mesh.n_dofs, mesh.n_dofs))
    return mat.tocsr()


def interface_nodal_jump_matrix(mesh, node_weights, nodes):
    """Nodal (lumped) normal-jump quadratic form sum_n w_n [[u]]_2(n) [[v]]_2(n)
    over the interface node indices ``nodes``, as a sparse matrix; weights
    are per interface node."""
    import scipy.sparse as sp

    idx = np.asarray(nodes, dtype=np.int64)
    w = np.asarray(node_weights, dtype=float)[idx]
    p = 2 * mesh.iface_plus[idx] + 1
    m = 2 * mesh.iface_minus[idx] + 1
    rows = np.concatenate([p, m, p, m])
    cols = np.concatenate([p, m, m, p])
    vals = np.concatenate([w, w, -w, -w])
    return sp.coo_matrix((vals, (rows, cols)),
                         shape=(mesh.n_dofs, mesh.n_dofs)).tocsr()


def merge_map(n, free, slaves, masters):
    """R of the Galerkin merge on the ``free`` dofs of n: R maps each kept
    free dof to itself and each of the ``slaves`` to its master. Returns
    (R, kept), the kept dofs in the order of ``free``, one per column."""
    import scipy.sparse as sp

    rep = np.arange(n)
    rep[slaves] = masters
    keep = np.ones(n, dtype=bool)
    keep[slaves] = False
    kept = free[keep[free]]
    col = np.full(n, -1)
    col[kept] = np.arange(kept.size)
    return sp.coo_matrix((np.ones(free.size), (free, col[rep[free]])),
                         shape=(n, kept.size)).tocsr(), kept


def merged_solve(matrix, rhs, free, slaves, masters):
    """Solve ``matrix`` on the ``free`` dofs with the ``slaves`` merged shut
    onto their ``masters``: R^T A R y = R^T b (``merge_map``), through
    ``tril_band`` and the band Cholesky in the order of ``free``, banded
    in ``column_order``. Returns the full-length R y, zero off ``free``."""
    R, _ = merge_map(matrix.shape[0], free, slaves, masters)
    return R @ full_band_solve(R.T @ matrix @ R, R.T @ rhs)


def loop_aggregate(mesh, s, field):
    """Hat-weighted edge-length average of a fine pair-edge field at the
    coarse nodes ``s``, the hat of each node rebuilt on its own."""
    xm = 0.5 * (mesh.interface_x[:-1] + mesh.interface_x[1:])
    L = mesh.pair_lengths
    out = np.zeros(s.size)
    for k in range(s.size):
        hat = np.zeros_like(xm)
        if k > 0:
            m = (xm >= s[k - 1]) & (xm <= s[k])
            hat[m] = (xm[m] - s[k - 1]) / (s[k] - s[k - 1])
        if k < s.size - 1:
            m = (xm > s[k]) & (xm < s[k + 1])
            hat[m] = (s[k + 1] - xm[m]) / (s[k + 1] - s[k])
        w = hat * L
        tot = w.sum()
        out[k] = (w @ field) / tot if tot > 0 else 0.0
    return out


def whole_mesh_volumetric_derivative(mesh, psi, u_eps, v_eps, laws, elast,
                                     eps, lam2):
    """``shape.directional_derivative_volumetric`` for the one velocity
    ``lam2``, every field and the volume integrand formed on every triangle
    of the mesh: the value the one-pass function must give bit for bit."""
    from crackid import fem
    from crackid.laws import (beta_discrete, cohesion_discrete_prime,
                              friction_discrete_prime)
    from crackid.shape import velocity_extension

    nodal = velocity_extension(mesh.vertices, psi, lam2)

    bnd = mesh.observation_vertices
    if np.max(np.abs(nodal[bnd])) > 1e-14 * (1.0 + np.max(np.abs(lam2))):
        raise ValueError("velocity extension does not vanish on the outer boundary")

    gL = np.einsum("eia,eib->eab", nodal[mesh.triangles], mesh.tri_grads)
    divL = gL[:, 0, 0] + gL[:, 1, 1]

    gu = fem.field_gradients(mesh, u_eps.values)
    gv = fem.field_gradients(mesh, v_eps.values)
    eu = fem.strain_from_grad(gu)
    ev = fem.strain_from_grad(gv)
    su = elast.stress(eu)
    sv = elast.stress(ev)

    def E(M, G):
        GM = np.einsum("eab,ebc->eac", G, M)
        return 0.5 * (GM + np.swapaxes(GM, 1, 2))

    vol = divL * np.einsum("eab,eab->e", su, ev) \
        - np.einsum("eab,eab->e", su, E(gL, gv)) \
        - np.einsum("eab,eab->e", sv, E(gL, gu))
    term_vol = -float(np.sum(mesh.tri_area * vol))

    ju1 = mesh.jump(u_eps.values, 0)
    ju2 = mesh.jump(u_eps.values, 1)
    jv1 = mesh.jump(v_eps.values, 0)
    jv2 = mesh.jump(v_eps.values, 1)
    p_node = (friction_discrete_prime(ju1, laws) * jv1
              + (cohesion_discrete_prime(ju2, laws) + beta_discrete(ju2, eps)) * jv2)

    lam_if = nodal[mesh.iface_minus, 1]
    dx = np.diff(mesh.interface_x)
    dy = np.diff(mesh.vertices[mesh.iface_minus, 1])
    dlam = np.diff(lam_if)
    div_tau = dy * dlam / (dx * dx + dy * dy)
    p_edge = 0.5 * (p_node[:-1] + p_node[1:])
    term_sigma = -float(np.sum(mesh.pair_lengths * div_tau * p_edge))

    dpsi = np.diff(psi.psi)
    seg = np.hypot(np.diff(psi.s), dpsi)
    term_perim = elast.rho_reg * float(np.sum(dpsi * np.diff(lam2) / seg))

    return term_vol + term_sigma + term_perim


def full_mesh_pair_densities(mesh, u_eps, v_eps, laws, elast, eps):
    """``shape._pair_densities`` with gradients, stresses and energies
    formed on every triangle of the mesh, then read on the pair triangles."""
    from crackid import fem
    from crackid.laws import (beta_discrete, beta_discrete_prime,
                              cohesion_discrete_prime, friction_discrete_prime)

    def grad(values):
        nodal = np.asarray(values).reshape(-1, 2)[mesh.triangles]
        return np.einsum("eia,eib->eab", nodal, mesh.tri_grads)

    gu, gv = grad(u_eps.values), grad(v_eps.values)
    su = elast.stress(fem.strain_from_grad(gu))
    sv = elast.stress(fem.strain_from_grad(gv))
    tp, tm = mesh.pair_tri_plus, mesh.pair_tri_minus
    energy = np.einsum("eab,eab->e", su, fem.strain_from_grad(gv))
    energy_jump = energy[tp] - energy[tm]
    gu_j = gu[tp] - gu[tm]
    gv_j = gv[tp] - gv[tm]
    nu, tau = mesh.normals, mesh.tangents
    ju1m, ju2m, jv1m, jv2m = (0.5 * (j[:-1] + j[1:])
                              for j in (mesh.jump(w.values, c)
                                        for w in (u_eps, v_eps) for c in (0, 1)))
    fric = friction_discrete_prime(ju1m, laws)
    coh_beta = cohesion_discrete_prime(ju2m, laws) + beta_discrete(ju2m, eps)
    beta_p = beta_discrete_prime(ju2m, eps)
    grad_pf = np.einsum("eab,ea->eb", gv_j, tau) * fric[:, None]
    grad_pc = (np.einsum("eab,ea->eb", gv_j, nu) * coh_beta[:, None]
               + np.einsum("eab,ea->eb", gu_j, nu) * (beta_p * jv2m)[:, None])
    grad_pf_nu = np.einsum("eb,eb->e", grad_pf, nu)
    grad_pc_nu = np.einsum("eb,eb->e", grad_pc, nu)

    def d1_at(edge, x1):
        M = (gu[tp[edge]].T @ sv[tp[edge]] + gv[tp[edge]].T @ su[tp[edge]]
             - gu[tm[edge]].T @ sv[tm[edge]] - gv[tm[edge]].T @ su[tm[edge]])
        vec = (M @ tau[edge]) * (2.0 * x1 - 1.0)
        return float(vec @ nu[edge])

    return (energy_jump - grad_pf_nu - grad_pc_nu, fric * jv1m,
            coh_beta * jv2m, d1_at(0, 0.0), d1_at(-1, 1.0))


def element_dofs(mesh):
    """(nt, 6) dofs of each triangle, local dof 2 a + c at corner a."""
    t = mesh.triangles
    return np.column_stack([2 * t[:, 0], 2 * t[:, 0] + 1, 2 * t[:, 1],
                            2 * t[:, 1] + 1, 2 * t[:, 2], 2 * t[:, 2] + 1])


def coo_stiffness(mesh, ke_blocks):
    """Sum per-element 6x6 blocks, shaped (nt, 6, 6), with scipy's own
    COO -> CSR conversion, which keeps the entries that sum to zero."""
    import scipy.sparse as sp

    dofs = element_dofs(mesh)
    rows = np.repeat(dofs, 6, axis=1).reshape(-1)
    cols = np.tile(dofs, (1, 6)).reshape(-1)
    return sp.coo_matrix((ke_blocks.reshape(-1), (rows, cols)),
                         shape=(mesh.n_dofs, mesh.n_dofs)).tocsr()


def flat_order_stiffness(mesh, ke):
    """The data of the stiffness in the CSR pattern of scipy's COO -> CSR
    conversion, summed one term at a time: each entry starts at +0.0 and
    adds the terms of the element-last blocks ``ke`` (6, 6, nt) that land
    on it in their raveled order, term (i*6 + j)*nt + e."""
    ref = coo_stiffness(mesh, np.moveaxis(ke, -1, 0))
    where = {}
    for row in range(ref.shape[0]):
        for k in range(ref.indptr[row], ref.indptr[row + 1]):
            where[row, int(ref.indices[k])] = k
    dofs = element_dofs(mesh).T.tolist()
    data = [0.0] * ref.nnz
    terms = iter(ke.reshape(-1).tolist())
    for i in range(6):
        for j in range(6):
            for a, b in zip(dofs[i], dofs[j]):
                data[where[a, b]] += next(terms)
    return np.array(data)


def corner_triangle_geometry(vertices, triangles):
    """Areas and P1 shape gradients from the gathered (nt, 3, 2) corners,
    edge by edge: the formula that ``geometry.triangle_geometry`` must
    match bit for bit."""
    p = vertices[triangles]
    v1 = p[:, 1] - p[:, 0]
    v2 = p[:, 2] - p[:, 0]
    area = 0.5 * (v1[:, 0] * v2[:, 1] - v2[:, 0] * v1[:, 1])
    grads = np.empty((triangles.shape[0], 3, 2))
    for i, e in enumerate((p[:, 2] - p[:, 1], p[:, 0] - p[:, 2], p[:, 1] - p[:, 0])):
        grads[:, i, 0] = -e[:, 1]
        grads[:, i, 1] = e[:, 0]
    grads /= (2.0 * area)[:, None, None]
    return area, grads


def expression_element_stiffness(area, grads, dmat):
    """Element blocks (6, 6, nt), each 3x3 node block one expression with
    its temporaries: the formula that ``fem.element_stiffness`` must match
    bit for bit."""
    gx = np.ascontiguousarray(grads[:, :, 0].T)[:, None]
    gy = np.ascontiguousarray(grads[:, :, 1].T)[:, None]
    gx_t, gy_t = gx.transpose(1, 0, 2), gy.transpose(1, 0, 2)
    out = np.empty((6, 6, area.shape[0]))
    out[0::2, 0::2] = ((gx * dmat[0, 0]) * gx_t + (gy * dmat[2, 2]) * gy_t) * area
    out[0::2, 1::2] = ((gx * dmat[0, 1]) * gy_t + (gy * dmat[2, 2]) * gx_t) * area
    out[1::2, 0::2] = ((gy * dmat[1, 0]) * gx_t + (gx * dmat[2, 2]) * gy_t) * area
    out[1::2, 1::2] = ((gy * dmat[1, 1]) * gy_t + (gx * dmat[2, 2]) * gx_t) * area
    return out


def vertex_traction(mesh, g):
    """The Neumann load read from the mesh's own vertices, every call:
    what ``fem.assemble_traction``'s cached vector must equal bit for bit."""
    f = np.zeros(mesh.n_dofs)
    edges = mesh.neumann_edges
    a = mesh.vertices[edges[:, 0]]
    b = mesh.vertices[edges[:, 1]]
    L = np.hypot(*(b - a).T)
    for t in GAUSS2:
        pts = a + t * (b - a)
        gx, gy = g(pts[:, 0], pts[:, 1])
        for comp, gv in ((0, gx), (1, gy)):
            gv = np.broadcast_to(np.asarray(gv, dtype=float), L.shape)
            np.add.at(f, 2 * edges[:, 0] + comp, 0.5 * L * gv * (1.0 - t))
            np.add.at(f, 2 * edges[:, 1] + comp, 0.5 * L * gv * t)
    return f


def vertex_boundary_mass(mesh):
    """The boundary mass read from the mesh's own vertices, every call:
    what ``fem.assemble_boundary_mass``'s cached matrix must equal bit for
    bit."""
    import scipy.sparse as sp

    edges = mesh.neumann_edges
    a = mesh.vertices[edges[:, 0]]
    b = mesh.vertices[edges[:, 1]]
    L = np.hypot(*(b - a).T)
    rows, cols, vals = [], [], []
    for comp in (0, 1):
        da = 2 * edges[:, 0] + comp
        db = 2 * edges[:, 1] + comp
        rows += [da, db, da, db]
        cols += [da, db, db, da]
        vals += [L / 3.0, L / 3.0, L / 6.0, L / 6.0]
    return sp.coo_matrix((np.concatenate(vals),
                          (np.concatenate(rows), np.concatenate(cols))),
                         shape=(mesh.n_dofs, mesh.n_dofs)).tocsr()


def record_calls(monkeypatch, owner, name, entry=None, calls=None):
    """Patch ``owner.name`` to call through and then append ``entry`` of
    the call's arguments to ``calls``, or the first argument (a method's
    self) without ``entry``. Returns ``calls``, a new list by default."""
    calls = [] if calls is None else calls
    fn = getattr(owner, name)

    def recorded(*args, **kwargs):
        out = fn(*args, **kwargs)
        calls.append(args[0] if entry is None else entry(*args, **kwargs))
        return out

    monkeypatch.setattr(owner, name, recorded)
    return calls


def gradient_check_from_the_base_state(config, meas, steps):
    """``cli.gradient_check`` with every probe starting from the base
    state on the base's band factor, not from the interpolant of its hat's
    solved states. Returns its rows and the probes' objectives, four a hat
    in the order +coarse, -coarse, +fine, -fine."""
    from crackid import driver, shape, solvers
    from crackid.geometry import build_mesh

    laws, elast, g = config.cohesive(), config.elasticity(), config.traction()
    h, psi, eps = config.h_identify, config.initial_graph(), config.eps
    mesh = build_mesh(psi, h)
    u, report, op = solvers.solve_penalty_state(mesh, laws, elast, g, eps,
                                                max_outer=config.max_outer)
    zv = driver.interp_measurement(mesh, meas)
    v = solvers.solve_adjoint(op, u, zv, report.configuration)
    hats = np.eye(psi.s.size)[1:-1]
    anas = shape.directional_derivative_volumetric(mesh, psi, u, v, laws, elast,
                                                   eps, hats)
    rows, js = [], []
    for s, hat, ana in zip(psi.s[1:-1], hats, anas):
        fds = []
        for st in steps:
            pair = []
            for sign in (1.0, -1.0):
                line = psi.with_psi(psi.psi + sign * st * hat)
                m = build_mesh(line, h)
                up = solvers.solve_penalty_state(
                    m, laws, elast, g, eps, max_outer=config.max_outer,
                    start=report.configuration, base=op,
                    guess=u.values)[0]
                pair.append(driver.objective(m, up, zv, elast.rho_reg, line))
            fds.append((pair[0] - pair[1]) / (2.0 * st))
            js += pair
        rows.append((s, ana, fds))
    return rows, js
