"""P1 element, edge-mass and coarse-hat kernels, vectorised with numpy.

The element kernel forms its values on contiguous arrays of length E (one
entry per element), never with numpy's innermost loop on an axis of length 3,
then copies them into the complex triplet values."""

import numpy as np

# the column of entry 3i+j of an element's 3 x 3 block is its vertex j
_BLOCK_COLS = [0, 1, 2, 0, 1, 2, 0, 1, 2]


# perfbench/env.py is the only reader; it records the kernel backend.
def using_numba():
    return False


def index_dtype(n):
    """Dtype of COO triplet indices into n rows and columns: int32 while
    n < 2**31 - 1, else int64.  scipy keeps int32 indices as they are; it
    checks int64 ones and copies them down to int32 when they fit."""
    return np.int32 if n < 2**31 - 1 else np.int64


def element_blocks(nodes, elements, weights):
    """COO triplets of the 3 x 3 blocks S_e + i w_e M_e of P1 triangles: the
    exact stiffness block S_e and the exact (consistent) mass block M_e times
    the element weight w_e, from analytic integration, so no quadrature error
    enters.

    Returns (rows, cols, vals).  The triplets are element-major: entry
    9e + 3i + j is row elements[e, i], column elements[e, j], with real part
    S_e[i, j] and imaginary part w_e M_e[i, j].  rows and cols have the dtype
    of elements; weights is one per element, or a scalar."""
    vertices = elements.T.copy()  # (3, E): vertex i of every element in row i
    x = nodes[:, 0].take(vertices)
    y = nodes[:, 1].take(vertices)
    b = (y[1] - y[2], y[2] - y[0], y[0] - y[1])
    c = (x[2] - x[1], x[0] - x[2], x[1] - x[0])
    area = 0.5 * ((x[1] - x[0]) * (y[2] - y[0]) - (x[2] - x[0]) * (y[1] - y[0]))
    den = 4.0 * area
    stiff = np.empty((9, len(elements)))  # row 3i + j: entry (i, j) of every S_e
    for i in range(3):
        for j in range(i, 3):
            s = stiff[3 * i + j]
            np.multiply(b[i], b[j], out=s)
            s += c[i] * c[j]
            s /= den
            if j > i:
                stiff[3 * j + i] = s
    vals = np.empty(9 * len(elements), np.complex128)
    parts = vals.view(np.float64).reshape(-1, 9, 2)  # (E, entry, real/imag)
    parts[:, :, 0] = stiff.T
    off = np.multiply(weights, area / 12.0)
    parts[:, :, 1] = off[:, None]
    parts[:, ::4, 1] = 2.0 * off[:, None]  # the diagonal entries 0, 4 and 8
    rows = np.repeat(elements.ravel(), 3)
    cols = elements.take(_BLOCK_COLS, axis=1).ravel()
    return rows, cols, vals


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
