"""Structured quadrilateral meshes of a rectangle with wall or periodic sides.

Elements are uniform axis-aligned rectangles, numbered row-major
(``e = iy * nx + ix``).  Each element has four local sides numbered
south = 0, east = 1, north = 2, west = 3.  The face skeleton stores every
geometric face once; with a periodic axis the two wrapped copies are the
same face.  Face nodes are ordered by increasing global coordinate along
the face, which coincides with both incident elements' local orderings on
a structured mesh.

Faces are numbered by one rule, applied to each axis in turn: along a
line of n cells, face line k lies between cells k-1 and k.  On a periodic
axis there are n face lines and cell -1 is cell n-1; on a wall axis there
are n+1, and the faces of the two end lines belong to one element only.
The faces normal to x come first, then those normal to y, each family a
(face lines, cells) grid: line by line across its axis, and in cell order
along the other (:attr:`Mesh.face_families`).  ``elem_faces`` maps each
element side to its face: cell (ix, iy) owns the west face ix * ny + iy.
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

    @property
    def num_elements(self):
        return self.nx * self.ny

    @property
    def num_faces(self):
        first, lines, cells = self.face_families[1]
        return first + lines * cells

    @property
    def face_families(self):
        """The faces normal to x, then those normal to y, each as ``(first,
        lines, cells)``: face ids ``first`` on, a (lines, cells) grid."""
        nfx = _line_faces(self.nx, self.bc_x)
        return (0, nfx, self.ny), (nfx * self.ny, _line_faces(self.ny, self.bc_y), self.nx)


def _line_faces(cells, bc):
    """The faces along a line of cells: one fewer on a periodic axis, whose
    end faces are one."""
    return cells if bc == PERIODIC else cells + 1


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
    iy, ix = np.divmod(np.arange(nx * ny), nx)
    # Cell k of a line owns face line k; its high face is on line k+1,
    # wrapped on a periodic axis.
    nfx, nfy = _line_faces(nx, bc_x), _line_faces(ny, bc_y)
    west = ix * ny + iy
    south = nfx * ny + iy * nx + ix
    east = (ix + 1) % nfx * ny + iy
    north = nfx * ny + (iy + 1) % nfy * nx + ix

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
        elem_faces=np.stack([south, east, north, west], axis=1),
    )


def gll_node_coords(mesh, basis):
    """Physical coordinates of all element GLL nodes, shape (nelem, p+1, p+1, 2).

    Axis 1 is the y node index, axis 2 the x node index, matching the
    state-array layout used throughout.  The array is stored x plane then
    y plane, so ``[..., 0]`` and ``[..., 1]`` are contiguous: the closed
    forms of :mod:`swemix.cases` compare them by value on every call.
    """
    ref = 0.5 * (basis.nodes + 1.0)
    coords = np.empty((2, mesh.num_elements, basis.n, basis.n))
    coords[0] = mesh.elem_x0[:, None, None] + mesh.hx * ref[None, None, :]
    coords[1] = mesh.elem_y0[:, None, None] + mesh.hy * ref[None, :, None]
    return np.moveaxis(coords, 0, -1)
