"""Independent reference implementations used to cross-check the solver.

Everything here is deliberately written as plain scalar loops from the
mathematical definitions, sharing nothing with the production assembly or
solve paths beyond the basis nodes/weights/differentiation matrix and the
GLL node coordinates (which have their own analytic tests).  The one
exceptions are ``face_path_tendency``, which checks only the face path of
the explicit tendency and so takes the element operators as given, and
``trace_matrix`` and ``block_jacobi``, which take the element Schur block
as given and check the trace solves and the preconditioner that start from
it.  ``imex_step_every_stage`` is the
IMEX tableau formula written out stage by stage.
"""

import numpy as np
import scipy.sparse

from swemix.basis import element_operators
from swemix.errors import AssemblyError
from swemix.mesh import EAST, NORTH, PERIODIC, SIDE_NORMALS, SOUTH, WEST, gll_node_coords
from swemix.swe import flux_full, flux_nonlinear, source


# --- Lagrange basis helpers ---------------------------------------------------

def lagrange_values(nodes, x):
    """l_j(x) for every basis polynomial j; x may be an array."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n = nodes.size
    out = np.ones((x.size, n))
    for j in range(n):
        for m in range(n):
            if m != j:
                out[:, j] *= (x - nodes[m]) / (nodes[j] - nodes[m])
    return out


def lagrange_derivs(nodes, x):
    """l'_j(x) via the product-rule sum."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n = nodes.size
    out = np.zeros((x.size, n))
    for j in range(n):
        denom = np.prod([nodes[j] - nodes[m] for m in range(n) if m != j])
        for k in range(n):
            if k == j:
                continue
            term = np.ones(x.size)
            for m in range(n):
                if m != j and m != k:
                    term *= x - nodes[m]
            out[:, j] += term / denom
    return out


def gauss_rule(n):
    return np.polynomial.legendre.leggauss(n)


# --- Monolithic HDG oracle ----------------------------------------------------

def _side_volume_node(side, k, n1):
    """(jy, ix) of the volume node under face node k of a side."""
    if side == 0:
        return 0, k
    if side == 1:
        return k, n1 - 1
    if side == 2:
        return n1 - 1, k
    return k, 0


class MonolithicHdg:
    """Fully coupled (q, lambda) system assembled entry by entry.

    Unknowns: element states first (element, component, jy, ix), then one
    block of p+1 trace values per face.  The element equations discretize
    (M + a * div F_L) q with the stabilized trace fluxes; the face equations
    are the transmission conditions.  Connectivity (which element sides meet
    which face) is taken from the mesh, whose construction is tested
    independently against geometric adjacency.
    """

    def __init__(self, mesh, basis, params, alpha, tau, sparse=False):
        self.mesh = mesh
        self.basis = basis
        n1 = basis.n
        w = basis.weights
        d = basis.D
        hx, hy, jac = mesh.hx, mesh.hy, 0.25 * mesh.hx * mesh.hy
        ne = mesh.num_elements
        self.nvol = ne * 3 * n1 * n1
        ntr = mesh.num_faces * n1
        size = self.nvol + ntr
        phi_bar = params.phi_bar

        if sparse:
            import scipy.sparse

            big = scipy.sparse.lil_matrix((size, size))
        else:
            big = np.zeros((size, size))

        def vidx(e, c, jy, ix):
            return ((e * 3 + c) * n1 + jy) * n1 + ix

        def tidx(e, side, k):
            return self.nvol + mesh.elem_faces[e, side] * n1 + k

        for e in range(ne):
            for c in range(3):
                for n in range(n1):
                    for m in range(n1):
                        big[vidx(e, c, n, m), vidx(e, c, n, m)] += w[m] * w[n] * jac
            # volume terms: -a * integral(flux . grad psi)
            for n in range(n1):
                for m in range(n1):
                    row_c = vidx(e, 0, n, m)
                    row_u = vidx(e, 1, n, m)
                    row_v = vidx(e, 2, n, m)
                    for i in range(n1):
                        cx = alpha * 0.5 * hy * w[n] * w[i] * d[i, m]
                        big[row_c, vidx(e, 1, n, i)] += -cx
                        big[row_u, vidx(e, 0, n, i)] += -phi_bar * cx
                    for j in range(n1):
                        cy = alpha * 0.5 * hx * w[m] * w[j] * d[j, n]
                        big[row_c, vidx(e, 2, j, m)] += -cy
                        big[row_v, vidx(e, 0, j, m)] += -phi_bar * cy
            # face terms of the element equations
            for side in range(4):
                nx, ny = SIDE_NORMALS[side]
                fj = 0.5 * (hx if side in (0, 2) else hy)
                for k in range(n1):
                    jy, ix = _side_volume_node(side, k, n1)
                    coef = alpha * fj * w[k]
                    row_c = vidx(e, 0, jy, ix)
                    big[row_c, vidx(e, 1, jy, ix)] += coef * nx
                    big[row_c, vidx(e, 2, jy, ix)] += coef * ny
                    big[row_c, vidx(e, 0, jy, ix)] += coef * tau
                    big[row_c, tidx(e, side, k)] += -coef * tau
                    big[vidx(e, 1, jy, ix), tidx(e, side, k)] += coef * phi_bar * nx
                    big[vidx(e, 2, jy, ix), tidx(e, side, k)] += coef * phi_bar * ny
            # transmission conditions, one block row per face, both sides add
            for side in range(4):
                nx, ny = SIDE_NORMALS[side]
                fj = 0.5 * (hx if side in (0, 2) else hy)
                for k in range(n1):
                    jy, ix = _side_volume_node(side, k, n1)
                    row = tidx(e, side, k)
                    big[row, vidx(e, 1, jy, ix)] += fj * w[k] * nx
                    big[row, vidx(e, 2, jy, ix)] += fj * w[k] * ny
                    big[row, vidx(e, 0, jy, ix)] += fj * w[k] * tau
                    big[row, row] += -fj * w[k] * tau

        self.matrix = big.tocsc() if sparse else big
        self.sparse = sparse
        self.n1 = n1
        self.jac = jac
        self.w = w

    def rhs(self, r_data):
        n1 = self.n1
        ne = self.mesh.num_elements
        vec = np.zeros(self.matrix.shape[0])
        for e in range(ne):
            for c in range(3):
                for n in range(n1):
                    for m in range(n1):
                        idx = ((e * 3 + c) * n1 + n) * n1 + m
                        vec[idx] = self.w[m] * self.w[n] * self.jac * r_data[e, n, m, c]
        return vec

    def _unpack(self, sol):
        n1 = self.n1
        ne = self.mesh.num_elements
        q = np.empty((ne, n1, n1, 3))
        for e in range(ne):
            for c in range(3):
                block = sol[((e * 3 + c) * n1) * n1 : ((e * 3 + c) * n1 + n1) * n1]
                q[e, :, :, c] = block.reshape(n1, n1)
        return q, sol[self.nvol :]

    def solve(self, r_data):
        vec = self.rhs(r_data)
        if self.sparse:
            import scipy.sparse.linalg

            sol = scipy.sparse.linalg.spsolve(self.matrix, vec)
        else:
            sol = np.linalg.solve(self.matrix, vec)
        return self._unpack(sol)

    def solve_many(self, r_list):
        """Solve for several right-hand sides with one factorization."""
        stacked = np.column_stack([self.rhs(r) for r in r_list])
        if self.sparse:
            import scipy.sparse.linalg

            lu = scipy.sparse.linalg.splu(self.matrix)
            sols = lu.solve(stacked)
        else:
            sols = np.linalg.solve(self.matrix, stacked)
        return [self._unpack(sols[:, k]) for k in range(len(r_list))]

    def schur_complement(self):
        """Eliminate the element unknowns by dense inversion: D - C A^-1 B."""
        a = self.matrix[: self.nvol, : self.nvol]
        b = self.matrix[: self.nvol, self.nvol :]
        c = self.matrix[self.nvol :, : self.nvol]
        d = self.matrix[self.nvol :, self.nvol :]
        if self.sparse:
            a, b, c, d = (m.toarray() for m in (a, b, c, d))
        return d - c @ np.linalg.solve(a, b)


# --- Over-integrated explicit DG weak form (single wall element) ---------------

def _reflect(q, nx, ny):
    un = q[1] * nx + q[2] * ny
    return np.array([q[0], q[1] - 2.0 * un * nx, q[2] - 2.0 * un * ny])


def _rusanov_pointwise(qm, qp, nx, ny, params, full):
    flux = flux_full if full else flux_nonlinear
    fm = flux(qm, params)
    fp = flux(qp, params)
    central = 0.5 * (fm[0] + fp[0]) * nx + 0.5 * (fm[1] + fp[1]) * ny
    phim = params.phi_bar + qm[0]
    phip = params.phi_bar + qp[0]
    smax = max(abs((qm[1] * nx + qm[2] * ny) / phim), abs((qp[1] * nx + qp[2] * ny) / phip))
    if full:
        smax += np.sqrt(max(phim, phip))
    return central - 0.5 * smax * (qp - qm)


def dense_dg_weak_residual(basis, hx, hy, state_fn, params, n_quad, full=False):
    """Weak residual (volume - surface) for one wall-bounded element on
    [0, hx] x [0, hy], with reflected wall ghosts, integrated with an
    n_quad-point Gauss rule.  The flux is the nonlinear remainder with the
    advective Rusanov speed |u.n|, or with ``full`` the complete flux with
    the speed |u.n| + sqrt(phi).

    ``state_fn(x, y) -> (3,)`` must be exactly representable in the basis so
    the only difference from the production path is the quadrature.
    """
    n1 = basis.n
    gx, gw = gauss_rule(n_quad)
    jac = 0.25 * hx * hy
    res = np.zeros((n1, n1, 3))

    for a, xa in enumerate(gx):
        la = lagrange_values(basis.nodes, np.array([xa]))[0]
        da = lagrange_derivs(basis.nodes, np.array([xa]))[0]
        for b, yb in enumerate(gx):
            lb = lagrange_values(basis.nodes, np.array([yb]))[0]
            db = lagrange_derivs(basis.nodes, np.array([yb]))[0]
            x = 0.5 * (xa + 1.0) * hx
            y = 0.5 * (yb + 1.0) * hy
            q = state_fn(x, y)
            f = (flux_full if full else flux_nonlinear)(q, params)
            wq = gw[a] * gw[b] * jac
            for n in range(n1):
                for m in range(n1):
                    dpsi_dx = da[m] * lb[n] * 2.0 / hx
                    dpsi_dy = la[m] * db[n] * 2.0 / hy
                    res[n, m] += wq * (f[0] * dpsi_dx + f[1] * dpsi_dy)

    for side in range(4):
        nx, ny = SIDE_NORMALS[side]
        fj = 0.5 * (hx if side in (0, 2) else hy)
        for a, sa in enumerate(gx):
            ls = lagrange_values(basis.nodes, np.array([sa]))[0]
            if side == 0:
                x, y = 0.5 * (sa + 1.0) * hx, 0.0
            elif side == 1:
                x, y = hx, 0.5 * (sa + 1.0) * hy
            elif side == 2:
                x, y = 0.5 * (sa + 1.0) * hx, hy
            else:
                x, y = 0.0, 0.5 * (sa + 1.0) * hy
            q = state_fn(x, y)
            fhat = _rusanov_pointwise(q, _reflect(q, nx, ny), nx, ny, params, full)
            wq = gw[a] * fj
            for n in range(n1):
                for m in range(n1):
                    if side == 0:
                        trace = ls[m] if n == 0 else 0.0
                    elif side == 1:
                        trace = ls[n] if m == n1 - 1 else 0.0
                    elif side == 2:
                        trace = ls[m] if n == n1 - 1 else 0.0
                    else:
                        trace = ls[n] if m == 0 else 0.0
                    if trace:
                        res[n, m] -= wq * trace * fhat
    return res


# --- Explicit DG tendency with the flux re-evaluated on every face ------------

def face_path_tendency(mesh, basis, data, t, params, extra_source=None, full=False):
    """The explicit DG tendency with the face path written out in full: the
    flux is evaluated again on both traces of every face, and a reflected
    ghost is formed on every face and then replaced by the neighbor's trace
    on interior faces.  The face tables come from :func:`mesh_tables_loop`.
    The reference for ``ExplicitOperator.tendency``, which reads the face
    fluxes from its volume flux instead."""
    ops = element_operators(basis, mesh.hx, mesh.hy)
    lift = np.hstack(ops.face_lift)
    nelem, n1 = data.shape[0], basis.n
    flat = data.reshape(nelem, n1 * n1, 3)
    flux_fn = flux_full if full else flux_nonlinear

    flux = flux_fn(flat, params)
    resid = ops.weak_dx @ flux[..., 0, :] + ops.weak_dy @ flux[..., 1, :]

    bounds = (mesh.xmin, mesh.xmax, mesh.ymin, mesh.ymax)
    tables = mesh_tables_loop(mesh.nx, mesh.ny, bounds, mesh.bc_x, mesh.bc_y)
    left_elem, left_side = tables["face_left"][:, 0], tables["face_left"][:, 1]
    right_elem, right_side = tables["face_right"][:, 0], tables["face_right"][:, 1]
    ids = np.nonzero(right_elem >= 0)[0]
    traces = flat[:, ops.face_nodes]
    q_left = traces[left_elem, left_side]
    q_right = q_left.copy()
    normals = tables["face_normal"][:, None, :]
    un = q_left[..., 1] * normals[..., 0] + q_left[..., 2] * normals[..., 1]
    q_right[..., 1] -= 2.0 * un * normals[..., 0]
    q_right[..., 2] -= 2.0 * un * normals[..., 1]
    q_right[ids] = traces[right_elem[ids], right_side[ids]]

    f_sum = flux_fn(q_left, params) + flux_fn(q_right, params)
    normal_flux = 0.5 * np.einsum("...dc,...d->...c", f_sum, normals)
    phi_left = params.phi_bar + q_left[..., 0]
    phi_right = params.phi_bar + q_right[..., 0]
    un_left = (q_left[..., 1] * normals[..., 0] + q_left[..., 2] * normals[..., 1]) / phi_left
    un_right = (q_right[..., 1] * normals[..., 0] + q_right[..., 2] * normals[..., 1]) / phi_right
    smax = np.maximum(np.abs(un_left), np.abs(un_right))
    if full:
        smax = smax + np.sqrt(np.maximum(phi_left, phi_right))
    fhat = normal_flux - 0.5 * smax[..., None] * (q_right - q_left)

    side_flux = np.zeros((nelem, 4, n1, 3))
    side_flux[left_elem, left_side] = fhat
    side_flux[right_elem[ids], right_side[ids]] = -fhat[ids]
    resid -= lift @ side_flux.reshape(nelem, 4 * n1, 3)

    out = (resid / ops.mass_diag[:, None]).reshape(data.shape)
    xy = gll_node_coords(mesh, basis)
    out += source(data, xy[..., 1], params)
    if extra_source is not None:
        out += extra_source(xy[..., 0], xy[..., 1], t)
    return out


# --- Finite-difference PDE residual -------------------------------------------

def flux_linear(q, params):
    """Linear gravity-wave flux, shape (..., 2, 3): continuity (U, V),
    momentum pressure phi_bar*phi'."""
    q = np.asarray(q, dtype=float)
    flux = np.zeros(q.shape[:-1] + (2, 3))
    flux[..., 0, 0] = q[..., 1]
    flux[..., 0, 1] = params.phi_bar * q[..., 0]
    flux[..., 1, 0] = q[..., 2]
    flux[..., 1, 2] = params.phi_bar * q[..., 0]
    return flux


def fd_pde_residual(exact, params, x, y, t, eps=1e-6, linear=False, mms_source=None):
    """Central-difference residual of d/dt q + div F - S at the given points."""
    flux = flux_linear if linear else flux_full
    dqdt = (exact(x, y, t + eps) - exact(x, y, t - eps)) / (2.0 * eps)
    dfx = (flux(exact(x + eps, y, t), params)[..., 0, :] - flux(exact(x - eps, y, t), params)[..., 0, :]) / (2.0 * eps)
    dfy = (flux(exact(x, y + eps, t), params)[..., 1, :] - flux(exact(x, y - eps, t), params)[..., 1, :]) / (2.0 * eps)
    res = dqdt + dfx + dfy
    if not linear:
        res -= source(exact(x, y, t), y, params)
    if mms_source is not None:
        res -= mms_source(x, y, t)
    return res


# --- Manufactured source expanded term by term --------------------------------

def mms_source_expanded(x, y, t, params, amplitude):
    """The ``mms_nonlinear`` source written term by term from the fields and
    their partial derivatives, with no cache: the reference for the
    separated form the case evaluates."""
    k = 2.0 * np.pi
    sx, cx, sy, cy = np.sin(k * x), np.cos(k * x), np.sin(k * y), np.cos(k * y)
    ss, cs, sc, cc = sx * sy, cx * sy, sx * cy, cx * cy
    a, b = amplitude * np.sin(t), amplitude * np.cos(t)
    u, v = a * cs, a * sc
    px, py = (k * b) * cs, (k * b) * sc
    ux, uy = (-k * a) * ss, (k * a) * cc  # = V_y, V_x
    phi = params.phi_bar + b * ss
    # (U P_x + V P_y) / phi^2 is shared by both momentum rows.
    upv = (u * px + v * py) / phi**2
    f = params.f0 + params.beta * np.asarray(y)

    out = np.empty(np.broadcast_shapes(np.shape(ss), np.shape(t), np.shape(f)) + (3,))
    out[..., 0] = 2.0 * ux - a * ss
    out[..., 1] = b * cs + (3.0 * u * ux + v * uy) / phi - u * upv + phi * px - f * v + params.drag * u
    out[..., 2] = b * sc + (3.0 * v * ux + u * uy) / phi - v * upv + phi * py + f * u + params.drag * v
    return out


# --- Legacy mesh builder ------------------------------------------------------

def mesh_tables_loop(nx, ny, bounds, bc_x, bc_y):
    """The structured mesh's tables built one face at a time: the
    byte-for-byte reference for ``swemix.mesh.build_structured``'s
    ``elem_faces``, ``elem_x0`` and ``elem_y0``, and the source of the
    face tables of :func:`face_path_tendency`: each face's left and right
    (element, side), (-1, -1) on a wall, and its normal, outward from the
    left element."""
    xmin, xmax, ymin, ymax = map(float, bounds)
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

    # Vertical faces (normals along x), by x-line, then y-row.
    if bc_x == PERIODIC:
        for k in range(nx):
            for jy in range(ny):
                add_face(jy * nx + (k - 1) % nx, EAST, jy * nx + k, WEST, (1.0, 0.0))
    else:
        for k in range(nx + 1):
            for jy in range(ny):
                if k == 0:
                    add_face(jy * nx + 0, WEST, -1, -1, (-1.0, 0.0))
                elif k == nx:
                    add_face(jy * nx + nx - 1, EAST, -1, -1, (1.0, 0.0))
                else:
                    add_face(jy * nx + k - 1, EAST, jy * nx + k, WEST, (1.0, 0.0))

    # Horizontal faces (normals along y), by y-line, then x-column.
    if bc_y == PERIODIC:
        for k in range(ny):
            for ix_ in range(nx):
                add_face(((k - 1) % ny) * nx + ix_, NORTH, k * nx + ix_, SOUTH, (0.0, 1.0))
    else:
        for k in range(ny + 1):
            for ix_ in range(nx):
                if k == 0:
                    add_face(ix_, SOUTH, -1, -1, (0.0, -1.0))
                elif k == ny:
                    add_face((ny - 1) * nx + ix_, NORTH, -1, -1, (0.0, 1.0))
                else:
                    add_face((k - 1) * nx + ix_, NORTH, k * nx + ix_, SOUTH, (0.0, 1.0))

    return {
        "elem_faces": elem_faces,
        "face_left": np.array(left, dtype=int),
        "face_right": np.array(right, dtype=int),
        "face_normal": np.array(normals, dtype=float),
        "elem_x0": elem_x0,
        "elem_y0": elem_y0,
    }


# --- Legacy sparse trace matrix and per-face block-Jacobi -----------------------

def trace_matrix(blocks, mesh, basis):
    """Scatter the element Schur complements into the sparse trace matrix H."""
    n1 = basis.n
    ndof = mesh.num_faces * n1
    # int32 triplets, the index type H ends up with, halve their memory.
    ids32 = (mesh.elem_faces[:, :, None] * n1 + np.arange(n1)).reshape(mesh.num_elements, 4 * n1)
    ids32 = ids32.astype(np.int32)
    rows = np.repeat(ids32, 4 * n1, axis=1).ravel()
    cols = np.tile(ids32, (1, 4 * n1)).ravel()
    data = np.tile(blocks.schur.ravel(), mesh.num_elements)
    return scipy.sparse.coo_matrix((data, (rows, cols)), shape=(ndof, ndof)).tocsc()


def block_jacobi(schur, num_faces, n1, elem_faces):
    """Inverse of the per-face diagonal blocks of H, (num_faces, n1, n1).

    A face's block sums the Schur sub-blocks (s, t) of every element side
    pair that lands on it: (s, s) always, and (east, west) and (west, east),
    or (north, south) and (south, north), where a one-cell periodic axis
    wraps an element onto itself.
    """
    sub = schur.reshape(4, n1, 4, n1).swapaxes(1, 2)
    elem, s, t = np.nonzero(elem_faces[:, :, None] == elem_faces[:, None, :])
    at = (elem_faces[elem, s] * n1 * n1)[:, None] + np.arange(n1 * n1)
    blocks = np.bincount(at.ravel(), weights=sub[s, t].ravel(), minlength=num_faces * n1 * n1)
    try:
        return np.linalg.inv(blocks.reshape(num_faces, n1, n1))
    except np.linalg.LinAlgError as exc:
        raise AssemblyError("singular face block in preconditioner") from exc


# --- Legacy VTK writer and reader ---------------------------------------------

def write_vtk_loop(field, path, phi_bar):
    """The VTK snapshot written one value at a time: the byte-for-byte
    reference for ``swemix.output.write_vtk``."""
    mesh, basis = field.mesh, field.basis

    def fmt(value):
        return f"{value:.17g}"

    n1 = basis.n
    coords = gll_node_coords(mesh, basis).reshape(-1, 2)
    npoints = coords.shape[0]
    ncells = mesh.num_elements * basis.order**2

    lines = ["# vtk DataFile Version 3.0", "swemix snapshot", "ASCII", "DATASET UNSTRUCTURED_GRID"]
    lines.append(f"POINTS {npoints} double")
    for x, y in coords:
        lines.append(f"{fmt(x)} {fmt(y)} 0")

    lines.append(f"CELLS {ncells} {5 * ncells}")
    for e in range(mesh.num_elements):
        base = e * n1 * n1
        for j in range(basis.order):
            for i in range(basis.order):
                a = base + j * n1 + i
                b = a + 1
                c = base + (j + 1) * n1 + i + 1
                d = c - 1
                lines.append(f"4 {a} {b} {c} {d}")
    lines.append(f"CELL_TYPES {ncells}")
    lines.extend(["9"] * ncells)

    flat = field.data.reshape(-1, 3)
    lines.append(f"POINT_DATA {npoints}")
    lines.append("SCALARS phi_prime double")
    lines.append("LOOKUP_TABLE default")
    for row in flat:
        lines.append(f"{row[0]: .16e}")
    lines.append("VECTORS velocity double")
    for row in flat:
        total = phi_bar + row[0]
        lines.append(f"{row[1] / total: .16e} {row[2] / total: .16e} 0")

    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def read_vtk_point_data(path):
    """Parse points, phi' scalars, and velocity vectors back from a legacy
    VTK file written by ``swemix.output.write_vtk`` (round-trip checks)."""
    with open(path, "r", encoding="ascii") as fh:
        tokens = fh.read().split("\n")
    pidx = next(i for i, l in enumerate(tokens) if l.startswith("POINTS"))
    npoints = int(tokens[pidx].split()[1])
    pts = np.array([[float(v) for v in tokens[pidx + 1 + k].split()] for k in range(npoints)])
    sidx = tokens.index("LOOKUP_TABLE default")
    phi = np.array([float(tokens[sidx + 1 + k]) for k in range(npoints)])
    vidx = next(i for i, l in enumerate(tokens) if l.startswith("VECTORS velocity"))
    vel = np.array([[float(v) for v in tokens[vidx + 1 + k].split()] for k in range(npoints)])
    return pts, phi, vel


# --- IMEX stage loop ----------------------------------------------------------

def imex_step_every_stage(pair, q, t, dt, tab):
    """One step of the tableau ``tab``, forming every stage's explicit
    tendency and every implicit stage's stiff tendency (Q - r) / (a dt),
    whether or not a weight reads it.  The terms of nonzero weights are
    added in stage order."""
    Q, N, G = [], [], []

    def combine(w_ex, w_im):
        r = q
        for j, (a_ex, a_im) in enumerate(zip(w_ex, w_im)):
            if a_ex != 0.0:
                r = r + (dt * a_ex) * N[j]
            if a_im != 0.0:
                r = r + (dt * a_im) * G[j]
        return r

    for i in range(tab.stages):
        r = combine(tab.A_ex[i, :i], tab.A_im[i, :i])
        shift = tab.A_im[i, i] * dt
        Q.append(pair.implicit_solve(shift, r) if shift != 0.0 else r)
        G.append((Q[i] - r) * (1.0 / shift) if shift != 0.0 else None)
        N.append(pair.explicit_tendency(Q[i], t + tab.c_ex[i] * dt))
    return Q[-1] if tab.stiffly_accurate else combine(tab.b_ex, tab.b_im)
