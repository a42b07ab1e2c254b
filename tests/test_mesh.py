import io

import numpy as np
import pytest

from helmdd.mesh import (DegenerateLayoutError, FineMesh, build_coarse_layout, build_fine_mesh,
                         build_wavespeed, cells_for_rule, dump_mesh, layout_from_blocks,
                         snap_breakpoints, snapped_square_indices)


def test_rule_examples_from_tables():
    m = build_fine_mesh(100, "points_per_wavelength")
    assert m.m == 160 and m.n == 25921
    assert cells_for_rule(100, "pollution_free") == 1000
    assert (cells_for_rule(100, "pollution_free") + 1) ** 2 == 1002001
    assert cells_for_rule(60, "points_per_wavelength") == 96
    assert (96 + 1) ** 2 == 9409


def test_rule_closed_forms_across_k():
    for k in range(20, 301, 20):
        assert cells_for_rule(k, "pollution_free") == int(np.ceil(round(k ** 1.5, 9)))
        assert cells_for_rule(k, "points_per_wavelength") == int(np.ceil(5 * k / np.pi))


def test_smallest_mesh():
    m = build_fine_mesh(1, "explicit", m=1)
    assert m.n == 4
    assert len(m.elements) == 2
    assert set(m.boundary_edge_nodes.ravel()) == {0, 1, 2, 3}


def test_rule_validation():
    with pytest.raises(ValueError):
        build_fine_mesh(-1, "pollution_free")
    with pytest.raises(ValueError):
        build_fine_mesh(10, "explicit", m=0)
    with pytest.raises(ValueError):
        build_fine_mesh(10, "no_such_rule")


@pytest.mark.parametrize("m", [1, 2, 3, 7, 12])
def test_element_areas_and_boundary(m):
    mesh = build_fine_mesh(1, "explicit", m=m)
    p0, p1, p2 = (mesh.nodes[mesh.elements[:, i]] for i in range(3))
    areas = 0.5 * ((p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1])
                   - (p2[:, 0] - p0[:, 0]) * (p1[:, 1] - p0[:, 1]))
    assert np.allclose(areas, 1.0 / (2 * m * m), rtol=0, atol=1e-15)
    assert abs(areas.sum() - 1.0) < 1e-12
    boundary_nodes = np.unique(mesh.boundary_edge_nodes)
    assert len(boundary_nodes) == 4 * m
    xy = mesh.nodes[boundary_nodes]
    on_edge = (xy == 0.0) | (xy == 1.0)
    assert np.all(on_edge.any(axis=1))


def test_node_element_incidence():
    m = 5
    mesh = build_fine_mesh(1, "explicit", m=m)
    counts = np.zeros(mesh.n, dtype=int)
    np.add.at(counts, mesh.elements.ravel(), 1)
    for ix in range(m + 1):
        for iy in range(m + 1):
            c = counts[iy * (m + 1) + ix]
            corner = (ix in (0, m)) and (iy in (0, m))
            edge = (ix in (0, m)) or (iy in (0, m))
            if corner:
                assert c in (1, 2)
            elif edge:
                assert c == 3
            else:
                assert c == 6


def test_boundary_edge_adjacency():
    mesh = build_fine_mesh(1, "explicit", m=3)
    for (a, b), e in zip(mesh.boundary_edge_nodes, mesh.boundary_edge_elements):
        tri = set(mesh.elements[e])
        assert a in tri and b in tri


def test_coarse_layout_uniform_case():
    mesh = build_fine_mesh(100, "points_per_wavelength")
    lay = build_coarse_layout(mesh, 100, 0.5)
    assert lay.M == 10
    assert set(lay.widths_x) == {16} and set(lay.widths_y) == {16}


def test_coarse_layout_snapped_case():
    mesh = build_fine_mesh(40, "pollution_free")
    assert mesh.m == 253
    lay = build_coarse_layout(mesh, 40, 1.0)
    assert lay.M == 40
    assert set(lay.widths_x) <= {6, 7}
    # cells tile the square: widths sum to m, all positive
    assert lay.widths_x.sum() == 253 and np.all(lay.widths_x > 0)
    # without anchors every break is the gridline nearest p*m/M, halves up
    for m, M in ((253, 40), (7, 3), (10, 4), (5, 2), (9, 6), (165, 30), (12, 12)):
        want = [int(np.floor(p * m / M + 0.5)) for p in range(M + 1)]
        assert snap_breakpoints(m, M).tolist() == want, (m, M)


def test_coarse_layout_single_cell():
    mesh = build_fine_mesh(1, "explicit", m=6)
    lay = layout_from_blocks(mesh, 1)
    assert lay.M == 1
    assert list(lay.breaks_x) == [0, 6]


def test_coarse_nodes_coincide_with_fine_nodes():
    mesh = build_fine_mesh(1, "explicit", m=7)
    lay = layout_from_blocks(mesh, 3)
    cm = lay.as_mesh()
    fine_set = {tuple(p) for p in mesh.nodes}
    assert all(tuple(p) in fine_set for p in cm.nodes)
    assert len(cm.elements) == 2 * lay.M ** 2


def test_coarse_mesh_keeps_fine_gridlines_and_integer_widths():
    # the coarse mesh's gridlines are bitwise the fine ones at the breaks, and
    # it keeps the layout's widths in fine cells; a layout of the coarse mesh
    # composes its breaks with the coarse ones
    mesh = build_fine_mesh(1, "explicit", m=165)
    assert np.array_equal(mesh.widths_x, np.ones(165, dtype=np.int64))
    lay = layout_from_blocks(mesh, 30)
    cm = lay.as_mesh()
    assert np.array_equal(cm.xs, mesh.xs[lay.breaks_x])
    assert np.array_equal(cm.ys, mesh.ys[lay.breaks_y])
    assert np.array_equal(cm.widths_x, lay.widths_x)
    assert np.array_equal(cm.widths_y, lay.widths_y)
    inner = layout_from_blocks(cm, 7)
    ccm = inner.as_mesh()
    assert np.array_equal(ccm.xs, cm.xs[inner.breaks_x])
    assert np.array_equal(ccm.widths_x, np.diff(lay.breaks_x[inner.breaks_x]))
    with pytest.raises(ValueError, match="breaks"):
        FineMesh(2, breaks_x=[0, 2, 1])


def test_layout_errors():
    mesh = build_fine_mesh(1, "explicit", m=4)
    with pytest.raises(ValueError):
        build_coarse_layout(mesh, 8, 1.0)  # coarse finer than fine
    with pytest.raises(DegenerateLayoutError):
        snap_breakpoints(2, 4)


def test_anchored_layout():
    mesh = build_fine_mesh(1, "explicit", m=90)
    lo, hi, _, _ = snapped_square_indices(mesh)
    lay = layout_from_blocks(mesh, 20, anchors_x=(lo, hi), anchors_y=(lo, hi))
    assert lo in lay.breaks_x and hi in lay.breaks_x
    assert np.all(np.diff(lay.breaks_x) > 0)


def test_wavespeed_constant():
    mesh = build_fine_mesh(1, "explicit", m=4)
    ws = build_wavespeed(mesh, "constant")
    assert np.all(ws.values == 1.0)


def test_wavespeed_centered_square():
    mesh = build_fine_mesh(1, "explicit", m=96)
    ws = build_wavespeed(mesh, "centered-square", c_star=1.5)
    cen = mesh.element_centroids()
    inside = (cen[:, 0] > 1 / 3) & (cen[:, 0] < 2 / 3) & (cen[:, 1] > 1 / 3) & (cen[:, 1] < 2 / 3)
    assert np.array_equal(ws.values, np.where(inside, 1.5, 1.0))
    assert ws.square == (1 / 3, 2 / 3, 1 / 3, 2 / 3)


def test_wavespeed_interface_resolved():
    # every element lies entirely inside or outside the snapped square
    mesh = build_fine_mesh(1, "explicit", m=10)
    ws = build_wavespeed(mesh, "centered-square", c_star=0.5)
    x0, x1, y0, y1 = ws.square
    for tri, v in zip(mesh.elements, ws.values):
        p = mesh.nodes[tri]
        eps = 1e-12
        fully_in = np.all((p[:, 0] > x0 - eps) & (p[:, 0] < x1 + eps)
                          & (p[:, 1] > y0 - eps) & (p[:, 1] < y1 + eps))
        if v != 1.0:
            assert fully_in


def test_wavespeed_shifted_square():
    mesh = build_fine_mesh(1, "explicit", m=96)
    ell = 5
    ws = build_wavespeed(mesh, "shifted-square", c_star=1.5, offset=ell)
    lo, hi = 32, 64
    assert ws.square == pytest.approx(((lo - ell) / 96, (hi - ell) / 96,
                                       (lo + ell) / 96, (hi + ell) / 96))


def test_wavespeed_errors():
    mesh = build_fine_mesh(1, "explicit", m=9)
    with pytest.raises(ValueError):
        build_wavespeed(mesh, "centered-square", c_star=0.0)
    with pytest.raises(ValueError):
        build_wavespeed(mesh, "shifted-square", c_star=1.5, offset=100)
    with pytest.raises(ValueError):
        build_wavespeed(mesh, "centered-square", c_star=1.5, offset=1)


def test_wavespeed_sample_on_other_mesh():
    mesh = build_fine_mesh(1, "explicit", m=96)
    ws = build_wavespeed(mesh, "centered-square", c_star=2.0)
    coarse = build_fine_mesh(1, "explicit", m=6)
    ws2 = ws.sample_on(coarse)
    cen = coarse.element_centroids()
    inside = (cen[:, 0] > 1 / 3) & (cen[:, 0] < 2 / 3) & (cen[:, 1] > 1 / 3) & (cen[:, 1] < 2 / 3)
    assert np.array_equal(ws2.values, np.where(inside, 2.0, 1.0))


def test_mesh_dump_format():
    mesh = build_fine_mesh(1, "explicit", m=2)
    buf = io.StringIO()
    dump_mesh(mesh, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "nodes"
    assert lines[1 + mesh.n] == "elements"
    idx, x, y = lines[1].split()
    assert idx == "0" and float(x) == 0.0 and float(y) == 0.0
    e0 = lines[2 + mesh.n].split()
    assert e0[0] == "0" and len(e0) == 4
