"""The numba and numpy kernel implementations must agree exactly."""

import numpy as np

from helmdd import _kernels
from helmdd.mesh import build_fine_mesh, layout_from_blocks


def _dense_from_triplets(r, c, v, n):
    A = np.zeros((n, n), dtype=complex)
    np.add.at(A, (r, c), v)
    return A


def test_element_triplets_paths_agree():
    mesh = build_fine_mesh(1, "explicit", m=7)
    rng = np.random.default_rng(0)
    shifts = rng.standard_normal(len(mesh.elements)) \
        + 1j * rng.standard_normal(len(mesh.elements))
    a = _kernels.element_system_triplets(mesh.nodes, mesh.elements, shifts)
    b = _kernels.element_system_triplets_np(mesh.nodes, mesh.elements, shifts)
    A = _dense_from_triplets(*a, mesh.n)
    B = _dense_from_triplets(*b, mesh.n)
    assert np.abs(A - B).max() < 1e-14


def test_edge_triplets_paths_agree():
    mesh = build_fine_mesh(1, "explicit", m=6)
    rng = np.random.default_rng(1)
    coeffs = rng.uniform(0.5, 2.0, len(mesh.boundary_edge_nodes))
    a = _kernels.edge_mass_triplets(mesh.nodes, mesh.boundary_edge_nodes, coeffs)
    b = _kernels.edge_mass_triplets_np(mesh.nodes, mesh.boundary_edge_nodes, coeffs)
    A = _dense_from_triplets(a[0], a[1], a[2].astype(complex), mesh.n)
    B = _dense_from_triplets(b[0], b[1], b[2].astype(complex), mesh.n)
    assert np.abs(A - B).max() < 1e-15


def test_hat_triplets_paths_agree():
    mesh = build_fine_mesh(1, "explicit", m=9)
    layout = layout_from_blocks(mesh, 3)
    bx = mesh.xs[layout.breaks_x]
    by = mesh.ys[layout.breaks_y]
    a = _kernels.coarse_hat_triplets(mesh.nodes, bx, by)
    b = _kernels.coarse_hat_triplets_np(mesh.nodes, bx, by)
    nc = (layout.M + 1) ** 2
    A = _dense_from_triplets(a[0], a[1], a[2].astype(complex), max(nc, mesh.n))
    B = _dense_from_triplets(b[0], b[1], b[2].astype(complex), max(nc, mesh.n))
    assert np.abs(A - B).max() < 1e-15

