"""Structured quadrilateral meshes of a rectangle with wall or periodic sides.

Elements are uniform axis-aligned rectangles, numbered row-major
(``e = iy * nx + ix``).  Each element has four local sides numbered
south = 0, east = 1, north = 2, west = 3.  The face skeleton stores every
geometric face once; with a periodic axis the two wrapped copies are the
same face.  Face nodes are ordered by increasing global coordinate along
the face, which coincides with both incident elements' local orderings on
a structured mesh.

Faces are numbered by one rule, applied to each axis in turn: along a
line of n cells, face k lies between cells k-1 and k.  On a periodic axis
there are n faces and cell -1 is cell n-1; on a wall axis there are n+1,
and the two end faces have only a left element (the right is (-1, -1)).
Vertical faces come first (by y-row, then x-line), then horizontal faces
(by y-line, then x-column).  So on a doubly periodic mesh each cell owns
its west and south faces, ``elem_faces[e, WEST] == e`` and
``elem_faces[e, SOUTH] == nelem + e``: the (2, ny, nx) layout that the
FFT trace solve in :mod:`swemix.hdg` reshapes the trace into.  The face
normal is stored as seen from the left element (outward); the right
element's outward normal is its negation.
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


def _axis_faces(cells, periodic, low, high):
    """The faces normal to axis 1 of the (rows, n) cell grid ``cells``, row by row.

    Face k of a row lies between cells k-1 and k; on a wall the row also
    has a face before cell 0 and one after cell n-1.  Returns the left
    (element, side) and right (element, side) of each face, (rows, faces, 2)
    with (-1, -1) on a wall, and the sign of the normal seen from the left
    element.
    """
    if periodic:
        below, above = np.roll(cells, 1, axis=1), cells
    else:
        below = np.pad(cells, ((0, 0), (1, 0)), constant_values=-1)
        above = np.pad(cells, ((0, 0), (0, 1)), constant_values=-1)
    # The cell below owns the face unless it is outside the low wall.
    owned = below >= 0
    left = np.stack([np.where(owned, below, above), np.where(owned, high, low)], axis=-1)
    inner = (owned & (above >= 0))[..., None]
    right = np.where(inner, np.stack([above, np.full_like(above, low)], axis=-1), -1)
    return left, right, np.where(owned, 1.0, -1.0)


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
    cells = np.arange(nelem).reshape(ny, nx)
    iy, ix = np.divmod(cells.reshape(-1), nx)

    v_left, v_right, v_sign = _axis_faces(cells, bc_x == PERIODIC, WEST, EAST)
    h_left, h_right, h_sign = (
        a.swapaxes(0, 1) for a in _axis_faces(cells.T, bc_y == PERIODIC, SOUTH, NORTH)
    )
    face_left = np.concatenate([v_left.reshape(-1, 2), h_left.reshape(-1, 2)])
    face_right = np.concatenate([v_right.reshape(-1, 2), h_right.reshape(-1, 2)])
    nvert = v_sign.size
    face_normal = np.zeros((len(face_left), 2))
    face_normal[:nvert, 0] = v_sign.reshape(-1)
    face_normal[nvert:, 1] = h_sign.reshape(-1)

    fid = np.arange(len(face_left))
    inner = face_right[:, 0] >= 0
    elem_faces = np.empty((nelem, 4), dtype=int)
    elem_faces[face_left[:, 0], face_left[:, 1]] = fid
    elem_faces[face_right[inner, 0], face_right[inner, 1]] = fid[inner]

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
        elem_x0=xmin + ix * hx,
        elem_y0=ymin + iy * hy,
        elem_faces=elem_faces,
        face_left=face_left,
        face_right=face_right,
        face_normal=face_normal,
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
