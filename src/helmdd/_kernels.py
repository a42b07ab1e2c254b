"""Hot numeric kernels with numba-jitted and pure-numpy implementations.

The jitted versions are used by default; set ``HELMDD_DISABLE_NUMBA=1`` in the
environment (before import) to select the numpy fallbacks, e.g. on platforms
where numba is unavailable.  ``benchmarks/bench_kernels.py`` compares the two
paths.
"""

import os

import numpy as np

_DISABLE = os.environ.get("HELMDD_DISABLE_NUMBA", "").lower() in ("1", "true", "yes")

try:
    if _DISABLE:
        raise ImportError("numba disabled via HELMDD_DISABLE_NUMBA")
    from numba import njit

    HAVE_NUMBA = True
except ImportError:
    HAVE_NUMBA = False


def using_numba():
    """True when the jitted kernel implementations are active."""
    return HAVE_NUMBA


# ---------------------------------------------------------------------------
# pure-numpy implementations


def element_system_triplets_np(nodes, elements, shifts):
    """COO triplets of sum_e (S_e - shift_e * M_e) for P1 triangles.

    S is the exact stiffness block, M the exact (consistent) mass block;
    both from analytic integration, so no quadrature error enters.
    Returns (rows, cols, vals) with 9 entries per element.
    """
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
    vals = stiff.astype(np.complex128) - shifts[:, None, None] * mass
    rows = np.repeat(elements, 3, axis=1).ravel()
    cols = np.tile(elements, (1, 3)).ravel()
    return rows, cols, vals.ravel()


def edge_mass_triplets_np(nodes, edges, coeffs):
    """COO triplets of sum_e coeff_e * (edge mass block) over node pairs."""
    p0 = nodes[edges[:, 0]]
    p1 = nodes[edges[:, 1]]
    length = np.hypot(p1[:, 0] - p0[:, 0], p1[:, 1] - p0[:, 1])
    w = coeffs * length
    vals = np.stack([w / 3.0, w / 6.0, w / 6.0, w / 3.0], axis=1).ravel()
    rows = edges[:, [0, 0, 1, 1]].ravel()
    cols = edges[:, [0, 1, 0, 1]].ravel()
    return rows, cols, vals


def coarse_hat_triplets_np(points, bx, by):
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


# ---------------------------------------------------------------------------
# numba implementations

if HAVE_NUMBA:

    @njit(cache=True)
    def _element_system_triplets_nb(nodes, elements, shifts):
        ne = elements.shape[0]
        rows = np.empty(9 * ne, np.int64)
        cols = np.empty(9 * ne, np.int64)
        vals = np.empty(9 * ne, np.complex128)
        b = np.empty(3, np.float64)
        c = np.empty(3, np.float64)
        for e in range(ne):
            n0 = elements[e, 0]
            n1 = elements[e, 1]
            n2 = elements[e, 2]
            x0 = nodes[n0, 0]; y0 = nodes[n0, 1]
            x1 = nodes[n1, 0]; y1 = nodes[n1, 1]
            x2 = nodes[n2, 0]; y2 = nodes[n2, 1]
            b[0] = y1 - y2; b[1] = y2 - y0; b[2] = y0 - y1
            c[0] = x2 - x1; c[1] = x0 - x2; c[2] = x1 - x0
            area = 0.5 * ((x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0))
            s = shifts[e]
            base = 9 * e
            for i in range(3):
                ri = elements[e, i]
                for j in range(3):
                    stiff = (b[i] * b[j] + c[i] * c[j]) / (4.0 * area)
                    mass = area / 12.0 * (2.0 if i == j else 1.0)
                    t = base + 3 * i + j
                    rows[t] = ri
                    cols[t] = elements[e, j]
                    vals[t] = stiff - s * mass
        return rows, cols, vals

    @njit(cache=True)
    def _edge_mass_triplets_nb(nodes, edges, coeffs):
        nb = edges.shape[0]
        rows = np.empty(4 * nb, np.int64)
        cols = np.empty(4 * nb, np.int64)
        vals = np.empty(4 * nb, np.float64)
        for e in range(nb):
            n0 = edges[e, 0]
            n1 = edges[e, 1]
            dx = nodes[n1, 0] - nodes[n0, 0]
            dy = nodes[n1, 1] - nodes[n0, 1]
            w = coeffs[e] * np.sqrt(dx * dx + dy * dy)
            t = 4 * e
            rows[t] = n0; cols[t] = n0; vals[t] = w / 3.0
            rows[t + 1] = n0; cols[t + 1] = n1; vals[t + 1] = w / 6.0
            rows[t + 2] = n1; cols[t + 2] = n0; vals[t + 2] = w / 6.0
            rows[t + 3] = n1; cols[t + 3] = n1; vals[t + 3] = w / 3.0
        return rows, cols, vals

    @njit(cache=True)
    def _locate(breaks, x, ncell):
        lo = 0
        hi = len(breaks)
        while lo < hi:
            mid = (lo + hi) // 2
            if breaks[mid] <= x:
                lo = mid + 1
            else:
                hi = mid
        ci = lo - 1
        if ci < 0:
            ci = 0
        if ci > ncell - 1:
            ci = ncell - 1
        return ci

    @njit(cache=True)
    def _coarse_hat_triplets_nb(points, bx, by):
        npts = points.shape[0]
        mx = len(bx) - 1
        my = len(by) - 1
        rows = np.empty(3 * npts, np.int64)
        cols = np.empty(3 * npts, np.int64)
        vals = np.empty(3 * npts, np.float64)
        for p in range(npts):
            x = points[p, 0]
            y = points[p, 1]
            ci = _locate(bx, x, mx)
            cj = _locate(by, y, my)
            xi = (x - bx[ci]) / (bx[ci + 1] - bx[ci])
            eta = (y - by[cj]) / (by[cj + 1] - by[cj])
            sw = cj * (mx + 1) + ci
            t = 3 * p
            if eta <= xi:
                rows[t] = sw; vals[t] = 1.0 - xi
                rows[t + 1] = sw + 1; vals[t + 1] = xi - eta
                rows[t + 2] = sw + mx + 2; vals[t + 2] = eta
            else:
                rows[t] = sw; vals[t] = 1.0 - eta
                rows[t + 1] = sw + mx + 2; vals[t + 1] = xi
                rows[t + 2] = sw + mx + 1; vals[t + 2] = eta - xi
            cols[t] = p
            cols[t + 1] = p
            cols[t + 2] = p
        return rows, cols, vals

    element_system_triplets = _element_system_triplets_nb
    edge_mass_triplets = _edge_mass_triplets_nb
    coarse_hat_triplets = _coarse_hat_triplets_nb
else:
    element_system_triplets = element_system_triplets_np
    edge_mass_triplets = edge_mass_triplets_np
    coarse_hat_triplets = coarse_hat_triplets_np
