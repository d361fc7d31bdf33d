import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from swemix.errors import InvalidArgumentError
from swemix.mesh import (
    EAST,
    NORTH,
    PERIODIC,
    SOUTH,
    WALL,
    WEST,
    build_structured,
    gll_node_coords,
)
from swemix.basis import nodal_basis

BOUNDS = (0.0, 1.0, 0.0, 1.0)


def _slots(mesh):
    """The number of (element, side) slots that hold each face id."""
    return np.bincount(mesh.elem_faces.ravel(), minlength=mesh.num_faces)


def _interior(mesh):
    return np.count_nonzero(_slots(mesh) == 2)


def _interior_pairs(mesh):
    """The (element, side) slots of each interior face, keyed by face id."""
    pairs = {}
    for e, side in itertools.product(range(mesh.num_elements), range(4)):
        pairs.setdefault(int(mesh.elem_faces[e, side]), []).append((e, side))
    return {f: slots for f, slots in pairs.items() if len(slots) == 2}


def test_single_element_wall_counts():
    m = build_structured(1, 1, BOUNDS, WALL, WALL)
    assert m.num_elements == 1
    assert m.num_faces == 4
    assert _interior(m) == 0
    assert m.num_faces - _interior(m) == 4


def test_periodic_2x2_counts():
    # hand enumeration: full periodicity gives 2 * nx * ny faces, all interior
    m = build_structured(2, 2, BOUNDS, PERIODIC, PERIODIC)
    assert m.num_elements == 4
    assert m.num_faces == 8
    assert _interior(m) == 8


def test_4x3_wall_counts_by_enumeration():
    m = build_structured(4, 3, (0.0, 2.0, 0.0, 1.0), WALL, WALL)
    assert m.num_elements == 12
    assert _interior(m) == 3 * 3 + 4 * 2
    assert m.num_faces - _interior(m) == 2 * 3 + 2 * 4


def test_invalid_arguments():
    with pytest.raises(InvalidArgumentError):
        build_structured(0, 2, BOUNDS)
    with pytest.raises(InvalidArgumentError):
        build_structured(2, -1, BOUNDS)
    with pytest.raises(InvalidArgumentError):
        build_structured(2, 2, (0.0, 0.0, 0.0, 1.0))
    with pytest.raises(InvalidArgumentError):
        build_structured(2, 2, BOUNDS, "open", WALL)


def test_face_neighbors_single_element():
    # every side of the one element is a distinct boundary face
    m = build_structured(1, 1, BOUNDS, WALL, WALL)
    assert sorted(m.elem_faces[0]) == [0, 1, 2, 3]
    assert np.array_equal(_slots(m), np.ones(4, dtype=int))


def test_face_neighbors_periodic_wrap():
    m = build_structured(2, 1, BOUNDS, PERIODIC, WALL)
    # two vertical faces: the interior line and the wrap, both join 0 and 1
    vertical = [slots for slots in _interior_pairs(m).values() if {s for _, s in slots} == {EAST, WEST}]
    assert len(vertical) == 2
    assert {tuple(sorted(slots)) for slots in vertical} == {((0, EAST), (1, WEST)), ((0, WEST), (1, EAST))}
    assert m.elem_faces[0, EAST] == m.elem_faces[1, WEST]
    assert m.elem_faces[1, EAST] == m.elem_faces[0, WEST]


def _geometric_adjacency(mesh):
    """Recompute interior adjacency from element corner coordinates."""
    lx = mesh.xmax - mesh.xmin
    ly = mesh.ymax - mesh.ymin
    pairs = set()
    n = mesh.num_elements
    for a in range(n):
        for b in range(a + 1, n):
            dx = mesh.elem_x0[b] - mesh.elem_x0[a]
            dy = mesh.elem_y0[b] - mesh.elem_y0[a]
            if mesh.bc_x == PERIODIC:
                dx = (dx + lx / 2) % lx - lx / 2
            if mesh.bc_y == PERIODIC:
                dy = (dy + ly / 2) % ly - ly / 2
            if abs(abs(dx) - mesh.hx) < 1e-12 and abs(dy) < 1e-12:
                pairs.add((a, b))
            if abs(abs(dy) - mesh.hy) < 1e-12 and abs(dx) < 1e-12:
                pairs.add((a, b))
    return pairs


@pytest.mark.parametrize("bcx,bcy", [(WALL, WALL), (PERIODIC, PERIODIC), (PERIODIC, WALL)])
def test_interior_faces_match_geometric_adjacency(bcx, bcy):
    mesh = build_structured(4, 3, (0.0, 2.0, 0.0, 1.5), bcx, bcy)
    expected = _geometric_adjacency(mesh)
    got = set()
    for (a, _), (b, _) in _interior_pairs(mesh).values():
        got.add((min(a, b), max(a, b)))
    assert got == expected


@given(
    st.integers(1, 5),
    st.integers(1, 5),
    st.sampled_from([WALL, PERIODIC]),
    st.sampled_from([WALL, PERIODIC]),
)
@settings(max_examples=40)
def test_mesh_invariants(nx, ny, bcx, bcy):
    mesh = build_structured(nx, ny, (0.0, 2.0, -1.0, 1.0), bcx, bcy)
    # handshake: every element has 4 sides, each face has one or two
    interior = _interior(mesh)
    assert 4 * mesh.num_elements == 2 * interior + (mesh.num_faces - interior)
    assert set(_slots(mesh).tolist()) <= {1, 2}
    # per-axis counts
    nx_faces = (nx if bcx == PERIODIC else nx + 1) * ny
    ny_faces = (ny if bcy == PERIODIC else ny + 1) * nx
    assert mesh.num_faces == nx_faces + ny_faces
    # the faces normal to x are numbered first, each family a (lines, cells) grid
    assert mesh.face_families == ((0, nx_faces // ny, ny), (nx_faces, ny_faces // nx, nx))
    sides = mesh.elem_faces
    assert sides[:, [EAST, WEST]].max() < nx_faces <= sides[:, [SOUTH, NORTH]].min()
    if bcx == PERIODIC and bcy == PERIODIC:
        assert interior == mesh.num_faces
    # area
    assert abs(mesh.num_elements * mesh.hx * mesh.hy - 4.0) < 1e-12 * 4.0
    # every interior face joins two distinct (element, side) slots
    for slots in _interior_pairs(mesh).values():
        assert slots[0] != slots[1]


def test_orientation_right_element_normal_is_negation():
    from swemix.mesh import SIDE_NORMALS

    mesh = build_structured(3, 3, BOUNDS, WALL, WALL)
    for (_, side_a), (_, side_b) in _interior_pairs(mesh).values():
        assert np.allclose(SIDE_NORMALS[side_a] + SIDE_NORMALS[side_b], 0.0, atol=1e-14)


def test_deterministic_rebuilds_are_byte_identical():
    a = build_structured(5, 4, (0.0, 3.0, 0.0, 2.0), PERIODIC, WALL)
    b = build_structured(5, 4, (0.0, 3.0, 0.0, 2.0), PERIODIC, WALL)
    for name in ("elem_faces", "elem_x0", "elem_y0"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


@pytest.mark.parametrize("bcx,bcy", itertools.product([WALL, PERIODIC], repeat=2))
def test_tables_match_loop_builder(bcx, bcy):
    bounds = (0.0, 2.0, -1.0, 1.5)
    for nx, ny in itertools.product(range(1, 7), repeat=2):
        mesh = build_structured(nx, ny, bounds, bcx, bcy)
        tables = oracles.mesh_tables_loop(nx, ny, bounds, bcx, bcy)
        assert mesh.num_faces == len(tables["face_left"]), (nx, ny)
        for name in ("elem_faces", "elem_x0", "elem_y0"):
            got, want = getattr(mesh, name), tables[name]
            assert (got.dtype, got.shape) == (want.dtype, want.shape), (nx, ny, name)
            assert got.tobytes() == want.tobytes(), (nx, ny, name)


@pytest.mark.parametrize("nx,ny", [(1, 1), (3, 2), (4, 5)])
def test_periodic_cells_own_west_and_south_faces(nx, ny):
    # the numbering hdg._mode_solve reshapes the trace by: on a doubly
    # periodic mesh, (nx, ny) vertical faces by x-line, then (ny, nx)
    # horizontal ones by y-line
    mesh = build_structured(nx, ny, BOUNDS, PERIODIC, PERIODIC)
    iy, ix = np.divmod(np.arange(mesh.num_elements), nx)
    assert np.array_equal(mesh.elem_faces[:, WEST], ix * ny + iy)
    assert np.array_equal(mesh.elem_faces[:, SOUTH], mesh.num_elements + iy * nx + ix)


def test_gll_node_coords_layout():
    mesh = build_structured(2, 1, (0.0, 2.0, 0.0, 1.0), WALL, WALL)
    basis = nodal_basis(2)
    xy = gll_node_coords(mesh, basis)
    assert xy.shape == (2, 3, 3, 2)
    # element 1 starts at x = 1; axis 1 is y, axis 2 is x
    assert xy[1, 0, 0, 0] == 1.0
    assert np.allclose(xy[0, :, 0, 0], 0.0)
    assert np.allclose(xy[0, 0, :, 1], 0.0)
    assert np.allclose(xy[0, -1, :, 1], 1.0)
