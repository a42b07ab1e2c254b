"""P1 element, edge-mass and coarse-hat kernels, vectorised with numpy."""

import numpy as np


# perfbench/env.py is the only reader; it records the kernel backend.
def using_numba():
    return False


def element_blocks(nodes, elements):
    """COO rows and columns of the 3 x 3 blocks of P1 triangles (9 entries
    per element), and their exact stiffness blocks S_e and exact (consistent)
    mass blocks M_e, each (E, 3, 3), from analytic integration, so no
    quadrature error enters."""
    p0 = nodes[elements[:, 0]]
    p1 = nodes[elements[:, 1]]
    p2 = nodes[elements[:, 2]]
    b = np.stack([p1[:, 1] - p2[:, 1], p2[:, 1] - p0[:, 1], p0[:, 1] - p1[:, 1]], axis=1)
    c = np.stack([p2[:, 0] - p1[:, 0], p0[:, 0] - p2[:, 0], p1[:, 0] - p0[:, 0]], axis=1)
    area = 0.5 * ((p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1])
                  - (p2[:, 0] - p0[:, 0]) * (p1[:, 1] - p0[:, 1]))
    stiff = (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :]) / (4.0 * area)[:, None, None]
    mass = np.full((1, 3, 3), 1.0) + np.eye(3)[None, :, :]
    mass = mass * (area / 12.0)[:, None, None]
    rows = np.repeat(elements, 3, axis=1).ravel()
    cols = np.tile(elements, (1, 3)).ravel()
    return rows, cols, stiff, mass


def element_system_values(stiff, mass, shifts):
    """Values of S_e - shift_e * M_e, in the order of element_blocks' triplets."""
    return (stiff.astype(np.complex128) - shifts[:, None, None] * mass).ravel()


def element_system_triplets(nodes, elements, shifts):
    """COO triplets of sum_e (S_e - shift_e * M_e) for P1 triangles
    (element_blocks); returns (rows, cols, vals)."""
    rows, cols, stiff, mass = element_blocks(nodes, elements)
    return rows, cols, element_system_values(stiff, mass, shifts)


def edge_mass_triplets(nodes, edges, coeffs):
    """COO triplets of sum_e coeff_e * (edge mass block) over node pairs."""
    p0 = nodes[edges[:, 0]]
    p1 = nodes[edges[:, 1]]
    length = np.hypot(p1[:, 0] - p0[:, 0], p1[:, 1] - p0[:, 1])
    w = coeffs * length
    vals = np.stack([w / 3.0, w / 6.0, w / 6.0, w / 3.0], axis=1).ravel()
    rows = edges[:, [0, 0, 1, 1]].ravel()
    cols = edges[:, [0, 1, 0, 1]].ravel()
    return rows, cols, vals


def coarse_hat_triplets(points, bx, by):
    """Values of the coarse P1 hats (SW-NE split rectangles) at given points.

    bx, by are the coarse gridline coordinates.  Returns (rows, cols, vals)
    with 3 entries per point: rows index coarse nodes (cj*(Mx+1)+ci), cols
    index the points.
    """
    mx = len(bx) - 1
    my = len(by) - 1
    ci = np.clip(np.searchsorted(bx, points[:, 0], side="right") - 1, 0, mx - 1)
    cj = np.clip(np.searchsorted(by, points[:, 1], side="right") - 1, 0, my - 1)
    xi = (points[:, 0] - bx[ci]) / (bx[ci + 1] - bx[ci])
    eta = (points[:, 1] - by[cj]) / (by[cj + 1] - by[cj])
    sw = cj * (mx + 1) + ci
    se = sw + 1
    nw = sw + mx + 1
    ne = nw + 1
    lower = eta <= xi
    rows = np.where(lower[:, None], np.stack([sw, se, ne], 1), np.stack([sw, ne, nw], 1))
    vals = np.where(lower[:, None],
                    np.stack([1.0 - xi, xi - eta, eta], 1),
                    np.stack([1.0 - eta, xi, eta - xi], 1))
    cols = np.repeat(np.arange(len(points)), 3)
    return rows.ravel(), cols, vals.ravel()
