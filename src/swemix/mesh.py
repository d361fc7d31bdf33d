"""Structured quadrilateral meshes of a rectangle with wall or periodic sides.

Elements are uniform axis-aligned rectangles, numbered row-major
(``e = iy * nx + ix``).  Each element has four local sides numbered
south = 0, east = 1, north = 2, west = 3.  The face skeleton stores every
geometric face once; with a periodic axis the two wrapped copies are the
same face.  Face nodes are ordered by increasing global coordinate along
the face, which coincides with both incident elements' local orderings on
a structured mesh.

Face enumeration is a fixed deterministic sweep: vertical faces first
(by y-row, then x-line), then horizontal faces (by y-line, then x-column).
The face normal is stored as seen from the left element (outward); the
right element's outward normal is its negation.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError

SOUTH, EAST, NORTH, WEST = 0, 1, 2, 3
SIDE_NORMALS = np.array([[0.0, -1.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])

WALL = "wall"
PERIODIC = "periodic"
_BOUNDARY_KINDS = (WALL, PERIODIC)


@dataclass(frozen=True)
class Mesh:
    nx: int
    ny: int
    xmin: float
    xmax: float
    ymin: float
    ymax: float
    bc_x: str
    bc_y: str
    hx: float
    hy: float
    elem_x0: np.ndarray  # (nelem,) lower-left corner x
    elem_y0: np.ndarray
    elem_faces: np.ndarray  # (nelem, 4) face id per local side
    face_left: np.ndarray  # (nface, 2) = (element, side)
    face_right: np.ndarray  # (nface, 2) = (element, side) or (-1, -1) wall
    face_normal: np.ndarray  # (nface, 2) outward from the left element

    @property
    def num_elements(self):
        return self.nx * self.ny

    @property
    def num_faces(self):
        return self.face_left.shape[0]

    @property
    def num_interior_faces(self):
        return int(np.count_nonzero(self.face_right[:, 0] >= 0))

    @property
    def num_boundary_faces(self):
        return self.num_faces - self.num_interior_faces


def build_structured(nx, ny, bounds, bc_x=WALL, bc_y=WALL):
    """Build an nx-by-ny mesh of the rectangle ``bounds = (xmin, xmax, ymin, ymax)``."""
    xmin, xmax, ymin, ymax = map(float, bounds)
    if nx < 1 or ny < 1:
        raise InvalidArgumentError(f"element counts must be positive, got nx={nx}, ny={ny}")
    if xmax <= xmin or ymax <= ymin:
        raise InvalidArgumentError(f"degenerate bounds {bounds}")
    if bc_x not in _BOUNDARY_KINDS or bc_y not in _BOUNDARY_KINDS:
        raise InvalidArgumentError(f"boundary kinds must be in {_BOUNDARY_KINDS}")

    hx = (xmax - xmin) / nx
    hy = (ymax - ymin) / ny
    nelem = nx * ny
    ix, iy = np.meshgrid(np.arange(nx), np.arange(ny))
    elem_x0 = (xmin + ix.reshape(-1) * hx).astype(float)
    elem_y0 = (ymin + iy.reshape(-1) * hy).astype(float)

    elem_faces = np.full((nelem, 4), -1, dtype=int)
    left, right, normals = [], [], []

    def add_face(l_elem, l_side, r_elem, r_side, normal):
        fid = len(left)
        left.append((l_elem, l_side))
        right.append((r_elem, r_side))
        normals.append(normal)
        elem_faces[l_elem, l_side] = fid
        if r_elem >= 0:
            elem_faces[r_elem, r_side] = fid

    # Vertical faces (normals along x).
    for jy in range(ny):
        if bc_x == PERIODIC:
            for k in range(nx):
                e_left = jy * nx + (k - 1) % nx
                e_right = jy * nx + k
                add_face(e_left, EAST, e_right, WEST, (1.0, 0.0))
        else:
            for k in range(nx + 1):
                if k == 0:
                    add_face(jy * nx + 0, WEST, -1, -1, (-1.0, 0.0))
                elif k == nx:
                    add_face(jy * nx + nx - 1, EAST, -1, -1, (1.0, 0.0))
                else:
                    add_face(jy * nx + k - 1, EAST, jy * nx + k, WEST, (1.0, 0.0))

    # Horizontal faces (normals along y).
    if bc_y == PERIODIC:
        for k in range(ny):
            for ix_ in range(nx):
                e_below = ((k - 1) % ny) * nx + ix_
                e_above = k * nx + ix_
                add_face(e_below, NORTH, e_above, SOUTH, (0.0, 1.0))
    else:
        for k in range(ny + 1):
            for ix_ in range(nx):
                if k == 0:
                    add_face(ix_, SOUTH, -1, -1, (0.0, -1.0))
                elif k == ny:
                    add_face((ny - 1) * nx + ix_, NORTH, -1, -1, (0.0, 1.0))
                else:
                    add_face((k - 1) * nx + ix_, NORTH, k * nx + ix_, SOUTH, (0.0, 1.0))

    return Mesh(
        nx=nx,
        ny=ny,
        xmin=xmin,
        xmax=xmax,
        ymin=ymin,
        ymax=ymax,
        bc_x=bc_x,
        bc_y=bc_y,
        hx=hx,
        hy=hy,
        elem_x0=elem_x0,
        elem_y0=elem_y0,
        elem_faces=elem_faces,
        face_left=np.array(left, dtype=int),
        face_right=np.array(right, dtype=int),
        face_normal=np.array(normals, dtype=float),
    )


def gll_node_coords(mesh, basis):
    """Physical coordinates of all element GLL nodes, shape (nelem, p+1, p+1, 2).

    Axis 1 is the y node index, axis 2 the x node index, matching the
    state-array layout used throughout.
    """
    ref = 0.5 * (basis.nodes + 1.0)
    x = mesh.elem_x0[:, None, None] + mesh.hx * ref[None, None, :]
    y = mesh.elem_y0[:, None, None] + mesh.hy * ref[None, :, None]
    coords = np.empty((mesh.num_elements, basis.n, basis.n, 2))
    coords[..., 0] = x
    coords[..., 1] = y
    return coords
