"""Interface graph and broken-mesh construction."""

import copy
import dataclasses
import pickle

import numpy as np
import pytest

from crackid import geometry
from crackid.driver import TRUE_INTERFACES, ExperimentConfig
from crackid.errors import InterfaceTooClose
from crackid.geometry import (HEIGHT, InterfaceGraph, build_mesh, coarse_curvature,
                              triangle_geometry, uniform_graph)

import oracles
from oracles import constant_graph

KINKED = InterfaceGraph(np.array([0.0, 0.6, 1.0]), np.array([0.1, 0.3, 0.3]))


class TestInterfaceGraph:
    def test_validation(self):
        with pytest.raises(ValueError):
            InterfaceGraph(np.array([0.0, 0.5, 0.4, 1.0]), np.full(4, 0.2))
        with pytest.raises(ValueError):
            InterfaceGraph(np.array([0.1, 1.0]), np.full(2, 0.2))
        with pytest.raises(ValueError):
            InterfaceGraph(np.array([0.0, 1.0]), np.array([0.2, 0.6]))
        with pytest.raises(ValueError):
            InterfaceGraph(np.array([0.0, 1.0]), np.array([0.2, np.nan]))
        with pytest.raises(ValueError):
            InterfaceGraph(np.array([0.0, np.nan, 1.0]), np.full(3, 0.2))

    def test_kinked_matches_formula(self):
        x = np.linspace(0.0, 1.0, 501)
        assert np.allclose(KINKED(x), np.minimum(0.3, x / 3.0 + 0.1), atol=1e-15)

    def test_length_of_kinked(self):
        expect = 0.6 * np.sqrt(1.0 + 1.0 / 9.0) + 0.4
        assert KINKED.length() == pytest.approx(expect, rel=1e-14)

    def test_file_roundtrip_bitwise(self, coarse_identify):
        # each interface snapshot of an identify run reads back bit for bit
        log, out = coarse_identify["log"], coarse_identify["out"]
        assert sorted(log.snapshots) == [0, 1, 2, 3]
        assert np.any(log.snapshots[3].psi != log.snapshots[0].psi)
        for n, snap in log.snapshots.items():
            path = out / ("interface_n%03d.txt" % n)
            assert path.read_text().splitlines()[0] == "# interface v1"
            back = np.loadtxt(path, ndmin=2)
            assert back[:, 0].tobytes() == snap.s.tobytes()
            assert back[:, 1].tobytes() == snap.psi.tobytes()


class TestBuildMesh:
    def test_flat_structured(self):
        # constant graph on a coarse grid: interface nodes at every column
        mesh = build_mesh(constant_graph(0.25), 0.1)
        xs = np.linspace(0.0, 1.0, 11)
        assert np.allclose(mesh.interface_x, xs)
        assert np.allclose(mesh.vertices[mesh.iface_minus, 1], 0.25)
        assert np.allclose(mesh.vertices[mesh.iface_plus, 1], 0.25)
        # duplicated: distinct ids, coincident coordinates
        assert not np.any(mesh.iface_minus == mesh.iface_plus)

    def test_pair_coincidence_and_lengths(self):
        mesh = build_mesh(KINKED, 0.02)
        a = mesh.vertices[mesh.pair_plus.reshape(-1)]
        b = mesh.vertices[mesh.pair_minus.reshape(-1)]
        assert np.max(np.abs(a - b)) < 1e-12 * mesh.h
        lp = np.hypot(*(mesh.vertices[mesh.pair_plus[:, 1]]
                        - mesh.vertices[mesh.pair_plus[:, 0]]).T)
        lm = np.hypot(*(mesh.vertices[mesh.pair_minus[:, 1]]
                        - mesh.vertices[mesh.pair_minus[:, 0]]).T)
        assert np.allclose(lp, lm, rtol=1e-14)

    def test_kinked_geometry(self):
        mesh = build_mesh(KINKED, 0.01)
        assert mesh.vertices[mesh.iface_minus[0], 1] == pytest.approx(0.1)
        assert mesh.vertices[mesh.iface_minus[-1], 1] == pytest.approx(0.3)
        # kink at x1 = 0.6: slopes change from 1/3 to 0 there
        x = mesh.interface_x
        y = mesh.vertices[mesh.iface_minus, 1]
        slopes = np.diff(y) / np.diff(x)
        assert np.allclose(slopes[x[:-1] < 0.59], 1.0 / 3.0, atol=1e-12)
        assert np.allclose(slopes[x[:-1] > 0.61], 0.0, atol=1e-12)

    def test_area_partition(self):
        for g, h in ((KINKED, 0.01), (constant_graph(0.125), 0.05)):
            mesh = build_mesh(g, h)
            assert abs(mesh.tri_area.sum() - 0.5) < 1e-10 * 0.5
            assert np.all(mesh.tri_area > 0.0)

    def test_margin_violation(self):
        with pytest.raises(InterfaceTooClose):
            build_mesh(constant_graph(0.01), 0.01)

    def test_margin_boundary_passes(self):
        build_mesh(constant_graph(0.25), 0.125)  # margin exactly 2h

    def test_deterministic_bitwise(self):
        m1 = build_mesh(KINKED, 0.02)
        m2 = build_mesh(KINKED, 0.02)
        assert np.array_equal(m1.vertices, m2.vertices)
        assert np.array_equal(m1.triangles, m2.triangles)
        assert np.array_equal(m1.normals, m2.normals)

    def test_two_components_after_interface_removal(self):
        from scipy.sparse import coo_matrix
        from scipy.sparse.csgraph import connected_components
        mesh = build_mesh(KINKED, 0.05)
        t = mesh.triangles
        e = np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
        n = mesh.n_vertices
        adj = coo_matrix((np.ones(e.shape[0]), (e[:, 0], e[:, 1])), shape=(n, n))
        ncomp, labels = connected_components(adj, directed=False)
        assert ncomp == 2
        assert np.all(labels[mesh.iface_minus] == labels[mesh.iface_minus[0]])
        assert np.all(labels[mesh.iface_plus] == labels[mesh.iface_plus[0]])
        assert labels[mesh.iface_minus[0]] != labels[mesh.iface_plus[0]]

    def test_both_subdomains_touch_dirichlet(self):
        mesh = build_mesh(KINKED, 0.05)
        dir_set = set(oracles.dirichlet_vertices(mesh).tolist())
        # the lower block numbers its vertices first: a triangle lies below
        # the line when its corners' ids do
        below = mesh.triangles < mesh.iface_plus[0]
        assert np.all(below.all(axis=1) | ~below.any(axis=1))
        minus_verts = set(mesh.triangles[below.all(axis=1)].reshape(-1).tolist())
        plus_verts = set(mesh.triangles[~below.any(axis=1)].reshape(-1).tolist())
        assert dir_set & minus_verts
        assert dir_set & plus_verts

    def test_boundary_edge_partition(self):
        mesh = build_mesh(constant_graph(0.25), 0.1)
        # every outer boundary edge appears exactly once across the tags
        n_bottom = oracles.column_count(mesh)
        assert mesh.neumann_edges.shape[0] == 2 * n_bottom
        # two Dirichlet vertices, left and right, on every vertex row
        assert oracles.dirichlet_vertices(mesh).size == 2 * mesh.n_vertices // (n_bottom + 1)
        assert np.array_equal(np.sort(mesh.observation_vertices),
                              np.unique(mesh.neumann_edges))

    def test_explicit_subdivision_override(self):
        mesh = build_mesh(constant_graph(0.25, n_nodes=3), 0.125,
                          n_cols=2, n_rows_below=1, n_rows_above=1)
        assert mesh.n_vertices == 12
        assert mesh.triangles.shape[0] == 8
        assert abs(mesh.tri_area.sum() - 0.5) < 1e-14


ORACLE_MESHES = {
    "kinked": (KINKED, 0.02, {}),
    "perturbed": (uniform_graph(0.25 + 0.01 * np.sin(np.linspace(0.0, 7.0, 11))),
                  1.0 / 35.0, {}),
    "flat": (constant_graph(0.25), 0.05, {}),
    "pinned": (constant_graph(0.25, n_nodes=3), 0.125,
               dict(n_cols=2, n_rows_below=1, n_rows_above=1)),
}


class TestCachedTopology:
    @pytest.mark.parametrize("name", sorted(ORACLE_MESHES))
    def test_fields_match_loop_oracle(self, name):
        graph, h, pinned = ORACLE_MESHES[name]
        expect = oracles.loop_mesh(graph, h, **pinned)
        # cold, then from the cache
        geometry._topology.cache_clear()
        for _ in range(2):
            mesh = build_mesh(graph, h, **pinned)
            arrays = {f: v for f, v in {**vars(mesh), **vars(mesh.topology)}.items()
                      if isinstance(v, np.ndarray)}
            assert sorted(arrays) == sorted(expect)
            for field, value in arrays.items():
                assert value.dtype == expect[field].dtype, field
                assert np.array_equal(value, expect[field]), field

    @pytest.mark.parametrize("name", sorted(ORACLE_MESHES))
    def test_free_dofs_lower_block_first_column_by_column(self, name):
        graph, h, pinned = ORACLE_MESHES[name]
        mesh = build_mesh(graph, h, **pinned)
        free = mesh.free_dofs
        clamped = np.concatenate([2 * oracles.dirichlet_vertices(mesh),
                                  2 * oracles.dirichlet_vertices(mesh) + 1])
        assert np.array_equal(np.sort(free), np.setdiff1d(np.arange(mesh.n_dofs), clamped))
        # every lower-block dof comes before any upper-block one
        upper = free // 2 >= mesh.iface_plus[0]
        assert np.array_equal(upper, np.sort(upper))
        # in each block: column by column, then x2 (rows run bottom to top
        # in vertex order), then component
        for block in (~upper, upper):
            column = free[block] // 2 % (oracles.column_count(mesh) + 1)
            assert np.all(np.diff(column * mesh.n_dofs + free[block]) > 0)
        assert np.array_equal(free, oracles.loop_mesh(graph, h, **pinned)["free_dofs"])
        assert np.array_equal(mesh.free_row[free], np.arange(free.size))
        assert np.all(mesh.free_row[clamped] == -1)

    def test_triangle_geometry_is_the_corner_formula_bitwise(self):
        # the whole-array passes keep the edge-by-edge formula's bits, the
        # signs of the zero edge components of axis-aligned cells included
        for mesh in observation_meshes():
            area, grads = triangle_geometry(mesh.vertices, mesh.triangles)
            ref_area, ref_grads = oracles.corner_triangle_geometry(mesh.vertices,
                                                                   mesh.triangles)
            assert area.tobytes() == ref_area.tobytes()
            assert grads.tobytes() == ref_grads.tobytes()
            assert mesh.tri_grads.tobytes() == ref_grads.tobytes()

    def test_tables_shared_and_read_only(self):
        m1 = build_mesh(KINKED, 0.05)
        m2 = build_mesh(KINKED.with_psi(KINKED.psi + 0.01), 0.05)
        assert m1.topology is m2.topology and m1.triangles is m2.triangles
        assert m1.observation_vertices is m2.observation_vertices
        assert m1.block_end is m2.block_end
        for field in vars(m1.topology):
            with pytest.raises(ValueError):
                getattr(m1, field)[0] = 0

    def test_mesh_reads_every_table_through_its_topology(self):
        # two meshes of one topology: no table is a mesh field, and each
        # reads as the topology's own array, which no mesh can rebind; a
        # copy and a pickle round trip read the same tables
        m1 = build_mesh(KINKED, 0.05)
        m2 = build_mesh(KINKED.with_psi(KINKED.psi + 0.01), 0.05)
        names = [f.name for f in dataclasses.fields(geometry._Topology)]
        assert not set(names) & {f.name for f in dataclasses.fields(geometry.BrokenMesh)}
        assert m1.topology is m2.topology
        for mesh in (m1, m2, copy.copy(m1)):
            for name in names:
                assert getattr(mesh, name) is getattr(m1.topology, name), name
                assert name not in vars(mesh), name
        back = pickle.loads(pickle.dumps(m1))
        for name in names:
            assert np.array_equal(getattr(back, name), getattr(m1, name)), name
        with pytest.raises(AttributeError):
            m1.free_row = m1.free_row.copy()


def observation_meshes():
    """The oracle meshes, the identify mesh, and 30 seeded random admissible
    lines on five mesh sizes."""
    meshes = [build_mesh(graph, h, **pinned)
              for graph, h, pinned in ORACLE_MESHES.values()]
    cfg = ExperimentConfig()
    meshes.append(build_mesh(cfg.initial_graph(), cfg.h_identify))
    rng = np.random.default_rng(29)
    for h in (0.1, 0.05, 1.0 / 35.0, 0.02, 0.01 * 8.0 / 7.0):
        for _ in range(6):
            psi = rng.uniform(2.0 * h, HEIGHT - 2.0 * h, rng.integers(2, 22))
            meshes.append(build_mesh(uniform_graph(psi), h))
    return meshes


class TestObservationVertices:
    def test_table_is_the_coordinate_sort(self):
        # the bottom row, then the top row, each in x1 order: what sorting
        # the Neumann edges' vertices by (x2, x1) finds
        for mesh in observation_meshes():
            ids = mesh.observation_vertices
            assert np.array_equal(ids, oracles.observation_nodes(mesh))
            bottom, top = np.split(mesh.vertices[ids], 2)
            assert np.all(bottom[:, 1] == 0.0) and np.all(top[:, 1] == HEIGHT)
            assert np.all(np.diff(bottom[:, 0]) > 0.0)
            assert np.array_equal(bottom[:, 0], top[:, 0])


class TestInterfaceFrame:
    def test_flat_edge(self):
        mesh = build_mesh(constant_graph(0.25), 0.1)
        nu, tau, L = mesh.normals, mesh.tangents, mesh.pair_lengths
        assert np.allclose(nu, [0.0, 1.0])
        assert np.allclose(tau, [1.0, 0.0])
        assert np.allclose(L, 0.1)

    def test_sloped_edge(self):
        mesh = build_mesh(KINKED, 0.01)
        nu, tau = mesh.normals, mesh.tangents
        w = np.sqrt(10.0 / 9.0)
        sloped = mesh.interface_x[:-1] < 0.59
        assert np.allclose(nu[sloped], np.array([-1.0 / 3.0, 1.0]) / w)
        assert np.allclose(tau[sloped], np.array([1.0, 1.0 / 3.0]) / w)

    def test_orthonormal(self):
        mesh = build_mesh(KINKED, 0.02)
        nu, tau = mesh.normals, mesh.tangents
        assert np.max(np.abs(np.sum(nu * tau, axis=1))) < 1e-14
        assert np.allclose(np.hypot(nu[:, 0], nu[:, 1]), 1.0, atol=1e-14)
        assert np.all(tau[:, 0] > 0.0)

    def test_normal_points_into_plus_side(self):
        mesh = build_mesh(KINKED, 0.05)
        # centroid of the plus triangle lies on the nu side of the edge
        for e in range(mesh.pair_lengths.size):
            c = mesh.vertices[mesh.triangles[mesh.pair_tri_plus[e]]].mean(axis=0)
            a = mesh.vertices[mesh.pair_minus[e, 0]]
            assert (c - a) @ mesh.normals[e] > 0.0


class TestCoarseCurvature:
    def test_flat_is_zero(self):
        assert np.allclose(coarse_curvature(constant_graph(0.25)), 0.0)
        # two nodes: the interior slices are empty, both ends get 0
        assert np.array_equal(coarse_curvature(TRUE_INTERFACES["flat"]), [0.0, 0.0])

    def test_circle_arc(self):
        # arc of radius 2 spanning x in [0,1], concave up, center above
        R = 2.0
        s = np.linspace(0.0, 1.0, 11)
        c = 0.45
        psi = c - np.sqrt(R**2 - (s - 0.5) ** 2) + np.sqrt(R**2 - 0.25)
        kap = coarse_curvature(InterfaceGraph(s, psi))
        assert np.all(np.abs(kap[1:-1] - 0.5) < 0.02)
        assert kap[0] == 0.0 and kap[-1] == 0.0

    def test_kink_localisation(self):
        s = np.linspace(0.0, 1.0, 11)
        g = InterfaceGraph(s, np.minimum(0.3, s / 3.0 + 0.1))
        kap = coarse_curvature(g)
        inner = np.abs(kap[1:-1])
        k_kink = int(np.argmax(inner)) + 1
        assert s[k_kink] == pytest.approx(0.6)
        mask = np.ones(11, dtype=bool)
        mask[[0, k_kink, 10]] = False
        assert np.allclose(kap[mask], 0.0, atol=1e-12)
