"""Benchmark the numba kernels against the pure-numpy fallbacks.

Usage: python benchmarks/bench_kernels.py [m]

Times the element-triplet assembly, boundary-edge assembly and coarse-hat
evaluation on an m x m mesh (default 512),
reporting best-of-5 wall times for both implementations.  The numpy path is
what you get at import time with HELMDD_DISABLE_NUMBA=1.
"""

import sys
import time

import numpy as np

from helmdd import _kernels
from helmdd.mesh import build_fine_mesh, layout_from_blocks


def best_of(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def main():
    m = int(sys.argv[1]) if len(sys.argv) > 1 else 512
    mesh = build_fine_mesh(1, "explicit", m=m)
    layout = layout_from_blocks(mesh, max(2, m // 16))
    rng = np.random.default_rng(0)
    ne = len(mesh.elements)
    shifts = rng.standard_normal(ne) + 1j * rng.standard_normal(ne)
    edge_coeffs = rng.uniform(0.5, 2.0, len(mesh.boundary_edge_nodes))
    bx = mesh.xs[layout.breaks_x]
    by = mesh.ys[layout.breaks_y]

    pairs = [
        ("element triplets",
         lambda: _kernels.element_system_triplets(mesh.nodes, mesh.elements, shifts),
         lambda: _kernels.element_system_triplets_np(mesh.nodes, mesh.elements, shifts)),
        ("edge mass triplets",
         lambda: _kernels.edge_mass_triplets(mesh.nodes, mesh.boundary_edge_nodes, edge_coeffs),
         lambda: _kernels.edge_mass_triplets_np(mesh.nodes, mesh.boundary_edge_nodes, edge_coeffs)),
        ("coarse hat evaluation",
         lambda: _kernels.coarse_hat_triplets(mesh.nodes, bx, by),
         lambda: _kernels.coarse_hat_triplets_np(mesh.nodes, bx, by)),
    ]

    print(f"mesh m={m} (n={mesh.n}, elements={ne}); numba active: "
          f"{_kernels.using_numba()}")
    if not _kernels.using_numba():
        print("note: active kernels ARE the numpy fallbacks "
              "(HELMDD_DISABLE_NUMBA set or numba missing); timing them twice")
    print(f"{'kernel':26s} {'active (ms)':>12s} {'numpy (ms)':>12s} {'speedup':>9s}")
    for name, active, fallback in pairs:
        active()  # warm/jit outside the timer
        ta = best_of(active)
        tn = best_of(fallback)
        print(f"{name:26s} {ta * 1e3:12.2f} {tn * 1e3:12.2f} {tn / ta:8.2f}x")


if __name__ == "__main__":
    main()
