import io

import numpy as np
import pytest

from helmdd import harness
from helmdd.assembly import AssemblyCoefficients, assemble_system
from helmdd.decomposition import (build_block_decomposition, build_coarse_interpolation,
                                  build_decomposition, dump_decomposition)
from helmdd.mesh import build_fine_mesh, build_wavespeed, layout_from_blocks

from oracles import dense_coarse_interp, slow_subdomains


def make(m, M):
    mesh = build_fine_mesh(1, "explicit", m=m)
    layout = layout_from_blocks(mesh, M)
    return mesh, layout


def node(mesh, ix, iy):
    """Id of grid node (ix, iy): FineMesh numbers the nodes row by row."""
    return iy * (mesh.m + 1) + ix


def owners(dec, j):
    """Ids of the subdomains owning node j, and their weights there."""
    subs, wts = [], []
    for s in dec.subdomains:
        hit = np.flatnonzero(s.own_nodes == j)
        if len(hit):
            subs.append(s.id)
            wts.append(s.own_weights[hit[0]])
    return np.array(subs, dtype=int), np.array(wts)


def test_generous_overlap_160_10():
    mesh, layout = make(160, 10)
    dec = build_decomposition(mesh, layout)
    assert dec.overlap_layers == 7
    # subdomains two coarse cells apart share no interior node
    a = dec.subdomains[0]           # cell (0, 0)
    b = dec.subdomains[2]           # cell (2, 0)
    assert len(np.intersect1d(a.interior_nodes, b.interior_nodes)) == 0
    # neighbours do overlap
    c = dec.subdomains[1]
    assert len(np.intersect1d(a.interior_nodes, c.interior_nodes)) > 0


def test_single_subdomain_degenerate_to_whole_domain():
    mesh, layout = make(6, 1)
    dec = build_decomposition(mesh, layout)
    assert len(dec.subdomains) == 1
    s = dec.subdomains[0]
    assert np.array_equal(s.interior_nodes, np.arange(mesh.n))
    assert np.array_equal(s.closed_nodes, np.arange(mesh.n))
    nodes, w = s.own_nodes, s.own_weights
    assert np.array_equal(nodes, np.arange(mesh.n))
    assert np.all(w == 1.0)


@pytest.mark.parametrize("m,M", [(16, 4), (23, 5), (32, 8)])
def test_nonadjacent_subdomains_disjoint(m, M):
    mesh, layout = make(m, M)
    dec = build_decomposition(mesh, layout)
    for a in dec.subdomains:
        for b in dec.subdomains:
            ci, cj = a.core_cell
            di, dj = b.core_cell
            if max(abs(ci - di), abs(cj - dj)) >= 2:
                assert len(np.intersect1d(a.interior_nodes, b.interior_nodes)) == 0


@pytest.mark.parametrize("m,M", [(12, 3), (16, 4), (21, 4), (23, 5)])
def test_bounded_overlap_at_most_four_subdomains(m, M):
    mesh, layout = make(m, M)
    dec = build_decomposition(mesh, layout)
    counts = np.zeros(mesh.n, dtype=int)
    for s in dec.subdomains:
        counts[s.closed_nodes] += 1
    assert counts.max() <= 4
    assert counts.min() >= 1


@pytest.mark.parametrize("m,M", [(12, 3), (16, 4), (21, 4)])
def test_interior_sets_cover_all_nodes(m, M):
    mesh, layout = make(m, M)
    dec = build_decomposition(mesh, layout)
    assert dec.overlap_layers >= 1
    covered = np.unique(np.concatenate([s.interior_nodes for s in dec.subdomains]))
    assert np.array_equal(covered, np.arange(mesh.n))


def test_degenerate_overlap_warns():
    mesh, layout = make(4, 2)
    with pytest.warns(UserWarning):
        dec = build_decomposition(mesh, layout)
    assert dec.degenerate_overlap


def test_ras_weights_values_and_partition_of_unity():
    m, M = 12, 3
    mesh, layout = make(m, M)
    dec = build_decomposition(mesh, layout)
    g = 4  # coarse cell width in fine cells
    # strict interior of a coarse cell: single owner, weight 1
    subs, wt = owners(dec, node(mesh, 1, 1))
    assert len(subs) == 1 and wt[0] == 1.0
    # interior coarse edge node (not corner): two owners at 1/2
    subs, wt = owners(dec, node(mesh, g, 1))
    assert sorted(subs) == [0, 1] and np.all(wt == 0.5)
    # interior coarse corner: four owners at 1/4
    subs, wt = owners(dec, node(mesh, g, g))
    assert sorted(subs) == [0, 1, 3, 4] and np.all(wt == 0.25)
    # partition of unity at every node, boundary included
    total = np.zeros(mesh.n)
    for j in range(mesh.n):
        _, wt = owners(dec, j)
        total[j] = wt.sum()
    assert np.allclose(total, 1.0, atol=1e-15)


def test_ras_weights_match_slow_reference():
    mesh, layout = make(14, 4)
    covers = [(mesh, build_decomposition(mesh, layout), layout.breaks_x, layout.breaks_y)]
    # a block region off the origin with nbx != nby; nodes outside it have no owner
    mesh = build_fine_mesh(1, "explicit", m=20)
    covers.append((mesh, build_block_decomposition(mesh, (4, 16, 6, 20), 3, 2),
                   (4, 8, 12, 16), (6, 13, 20)))
    for mesh, dec, bx, by in covers:
        m, mx, my = mesh.m, len(bx) - 1, len(by) - 1
        for j in range(mesh.n):
            ix, iy = j % (m + 1), j // (m + 1)
            cells = []
            for ci in range(mx):
                for cj in range(my):
                    if bx[ci] <= ix <= bx[ci + 1] and by[cj] <= iy <= by[cj + 1]:
                        cells.append(cj * mx + ci)
            subs, wt = owners(dec, j)
            assert sorted(subs.tolist()) == sorted(cells)
            assert np.allclose(wt, 1.0 / max(len(cells), 1))


def _solve_workload_cover(cfg):
    pb = harness.build_problem(cfg)
    layout = pb.decomp.layout
    return pb.mesh, pb.decomp, layout.breaks_x, layout.breaks_y


def _degenerate_cover():
    mesh, layout = make(7, 4)  # coarse cells 1 or 2 fine cells wide
    with pytest.warns(UserWarning, match="no overlap"):
        dec = build_decomposition(mesh, layout)
    assert dec.degenerate_overlap
    return mesh, dec, layout.breaks_x, layout.breaks_y


def _off_origin_cover():
    mesh = build_fine_mesh(1, "explicit", m=20)
    return (mesh, build_block_decomposition(mesh, (4, 16, 6, 20), 3, 2),
            (4, 8, 12, 16), (6, 13, 20))


@pytest.mark.parametrize("cover", [
    pytest.param(lambda: _solve_workload_cover(harness.ExperimentConfig(
        k=30, mesh_rule="pollution_free", precond="HRAS", alpha=1.0)), id="hras-pf-k30"),
    pytest.param(lambda: _solve_workload_cover(harness.ExperimentConfig(
        k=100, mesh_rule="points_per_wavelength", precond="ImpHRAS", alpha=0.5)),
        id="imphras-ppw-k100"),
    pytest.param(lambda: _solve_workload_cover(harness.ExperimentConfig(
        k=30, preset="table5_multilevel", mesh_rule="points_per_wavelength",
        precond="ImpRAS1", alpha=0.4, beta=1.2)), id="nested-local-ppw-k30"),
    pytest.param(_off_origin_cover, id="off-origin-3x2"),
    pytest.param(_degenerate_cover, id="degenerate"),
])
def test_subdomains_equal_rectangle_by_rectangle_oracle(cover):
    mesh, dec, bx, by = cover()
    want = slow_subdomains(mesh.m, bx, by)
    assert len(dec.subdomains) == len(want)
    for sub, fields in zip(dec.subdomains, want):
        for name, value in fields.items():
            got = getattr(sub, name)
            if isinstance(value, np.ndarray):
                assert got.dtype == value.dtype and np.array_equal(got, value), name
            else:
                assert got == value, name


def test_minor_extraction_matches_dense():
    mesh, layout = make(4, 2)
    ws = build_wavespeed(mesh, "constant")
    coeff = AssemblyCoefficients(omega=3.0, wavespeed=ws, shift_mode="additive_eps",
                                 shift_value=1.0)
    A = assemble_system(mesh, coeff)
    with pytest.warns(UserWarning):
        dec = build_decomposition(mesh, layout)
    s = dec.subdomains[0]
    minor = A[s.interior_nodes, :][:, s.interior_nodes].toarray()
    Ad = A.toarray()
    assert np.array_equal(minor, Ad[np.ix_(s.interior_nodes, s.interior_nodes)])


def test_coarse_interpolation_structure():
    mesh, layout = make(12, 3)
    R0 = build_coarse_interpolation(mesh, layout)
    assert R0.shape == ((layout.M + 1) ** 2, mesh.n)
    col_sums = np.asarray(R0.sum(axis=0)).ravel()
    assert np.allclose(col_sums, 1.0, atol=1e-14)
    vals = R0.tocoo().data
    assert np.all((vals >= -1e-15) & (vals <= 1.0 + 1e-15))
    # at fine nodes coinciding with coarse nodes the column is a single 1
    nnz_per_col = np.diff(R0.tocsc().indptr)
    assert nnz_per_col.max() <= 4
    for p, (bx, by) in enumerate((x, y) for y in layout.breaks_y for x in layout.breaks_x):
        j = node(mesh, bx, by)
        col = R0[:, j].toarray().ravel()
        assert col[p] == 1.0 and np.count_nonzero(col) == 1


def test_coarse_interpolation_matches_oracle_m4_M2():
    mesh, layout = make(4, 2)
    R0 = build_coarse_interpolation(mesh, layout).toarray()
    assert R0.shape == (9, 25)
    assert np.abs(R0 - dense_coarse_interp(mesh, layout)).max() < 1e-14


def test_coarse_interpolation_row_support():
    mesh, layout = make(12, 4)
    R0 = build_coarse_interpolation(mesh, layout).tocsr()
    bx = layout.breaks_x
    by = layout.breaks_y
    for p in range(R0.shape[0]):
        pi, pj = p % (layout.M + 1), p // (layout.M + 1)
        x_lo = bx[max(pi - 1, 0)]
        x_hi = bx[min(pi + 1, layout.M)]
        y_lo = by[max(pj - 1, 0)]
        y_hi = by[min(pj + 1, layout.M)]
        cols = R0.indices[R0.indptr[p]:R0.indptr[p + 1]]
        ix, iy = cols % 13, cols // 13
        assert np.all((ix >= x_lo) & (ix <= x_hi) & (iy >= y_lo) & (iy <= y_hi))


def test_block_decomposition_region():
    mesh = build_fine_mesh(1, "explicit", m=20)
    region = (4, 16, 6, 20)
    dec = build_block_decomposition(mesh, region, 3, 3)
    assert len(dec.subdomains) == 9
    all_nodes = np.unique(np.concatenate([s.closed_nodes for s in dec.subdomains]))
    ix, iy = all_nodes % 21, all_nodes // 21
    assert ix.min() == 4 and ix.max() == 16 and iy.min() == 6 and iy.max() == 20
    # region boundary plays the global boundary for interior sets
    s0 = dec.subdomains[0]
    ints = s0.interior_nodes
    ix, iy = ints % 21, ints // 21
    assert ix.min() == 4 and iy.min() == 6  # region edge retained
    # partition of unity over region nodes
    total = np.zeros(mesh.n)
    for j in all_nodes:
        _, wt = owners(dec, j)
        total[j] = wt.sum()
    assert np.allclose(total[all_nodes], 1.0)


def test_dump_format():
    mesh, layout = make(8, 2)
    dec = build_decomposition(mesh, layout)
    buf = io.StringIO()
    dump_decomposition(dec, buf)
    lines = buf.getvalue().splitlines()
    assert len(lines) == 4
    first = lines[0].split()
    assert first[0] == "0" and first[1] == str(dec.overlap_layers)
    assert len(first) == 6
