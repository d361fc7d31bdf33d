"""Hybridized DG solver for the implicit gravity-wave stage system.

Each implicit stage requires (M + a L) q = M r where L is the weak
divergence of the linear flux and ``a`` is the stage-scaled time step.
The hybridized form introduces a single-valued scalar trace lambda on the
face skeleton approximating phi', with numerical fluxes

    continuity:  U.n + tau (phi' - lambda)
    momentum:    phi_bar * lambda * n

Element unknowns are ordered as :class:`swemix.dg.StateField` stores them:
node by node in the flattened (jy, ix) order, the three components
(phi', U, V) of a node adjacent, so the flat index of component c at node
(jy, ix) is (jy (p+1) + ix) 3 + c.  Eliminating them element by element
against the transmission condition (the continuity flux sums to zero over
each face; on walls it vanishes outright, which enforces U.n = 0 weakly)
leaves the condensed trace system

    H lambda = g,     H = sum_K (D_K - C_K A_K^-1 B_K).

On the uniform structured meshes produced by :mod:`swemix.mesh` every
element shares one set of local blocks, so the whole condensation is a
fixed linear map.  A^-1 M and A^-1 B are formed once per shift; a solve is
then one batched product for the forward pass, a scatter onto the trace,
the trace solve, and one batched product for the back-substitution.

H is symmetric and -H is positive definite for every alpha_dt > 0 and
tau > 0.  The direct backend solves it exactly and never assembles it: in
a basis of per-axis modes H is block-diagonal, one small negative definite
block per mode, so a solve is a forward transform, one batched block
product and the synthesis.  On a doubly periodic mesh H is block-circulant
over cells and the transform is the 2-D real FFT.  A wall axis is the even
extension of a periodic one: phi' is even across a wall, and a face along
the axis is mirrored with its node order reversed.  So on a mesh with a
wall axis (wall x wall, periodic x wall, wall x periodic) the faces across
a wall axis take a DCT-I, and the faces along it a DCT-II on the even part
and a DST-II on the odd part of their node vectors; a periodic axis keeps
its DFT phases.  These transforms are dense matrices applied by GEMM; the
blocks are real on walls and Hermitian on a mixed mesh.  The gmres backend
assembles H and iterates on it.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .basis import element_operators
from .dg import StateField
from .errors import AssemblyError, InvalidArgumentError, SolverFailureError
from .mesh import PERIODIC, SIDE_NORMALS

BACKENDS = ("direct", "gmres")  # trace solvers of condense_and_factor


@dataclass
class TraceField:
    """Nodal trace values (one row of p+1 values per geometric face)."""

    data: np.ndarray


@dataclass
class LocalBlocks:
    """Element-local operators of the condensed solve, shared by all
    elements of a uniform mesh (M is the block mass matrix)."""

    forward: np.ndarray  # rows [A^-1 M; -C A^-1 M]: r -> (A^-1 M r, trace share)
    A_inv_B: np.ndarray
    schur: np.ndarray  # D - C A^-1 B


def local_matrices(mesh, basis, params, alpha_dt, tau):
    """Element matrices of the coupled (q, lambda) system.

    Returns ``(mass3, A, B, C, D)``.  The element equations read
    A q + B lambda = diag(mass3) r: A couples the element unknowns to
    themselves (flux terms taken at lambda = 0) and B carries the lambda
    dependence.  C q + D lambda is the element's share of the transmission
    condition.
    """
    if alpha_dt <= 0.0 or tau <= 0.0:
        raise AssemblyError(f"need alpha_dt > 0 and tau > 0, got {alpha_dt}, {tau}")
    ops = element_operators(basis, mesh.hx, mesh.hy)
    n1 = basis.n
    nn = n1 * n1
    a = alpha_dt
    phi_bar = params.phi_bar

    A = np.zeros((3 * nn, 3 * nn))
    B = np.zeros((3 * nn, 4 * n1))
    C = np.zeros((4 * n1, 3 * nn))
    D = np.zeros((4 * n1, 4 * n1))

    sl = [slice(c, None, 3) for c in range(3)]
    mass = np.diag(ops.mass_diag)
    A[sl[0], sl[0]] = mass
    A[sl[1], sl[1]] = mass
    A[sl[2], sl[2]] = mass
    A[sl[0], sl[1]] = -a * ops.weak_dx
    A[sl[0], sl[2]] = -a * ops.weak_dy
    A[sl[1], sl[0]] = -a * phi_bar * ops.weak_dx
    A[sl[2], sl[0]] = -a * phi_bar * ops.weak_dy

    for side in range(4):
        nx, ny = SIDE_NORMALS[side]
        lift = ops.face_lift[side]  # (nn, n1), includes face weights
        nodes = ops.face_nodes[side]
        trace = np.zeros((nn, nn))  # lifts the element's own values on this side
        trace[nodes, nodes] = ops.face_weights[side]
        cols = slice(side * n1, (side + 1) * n1)
        A[sl[0], sl[0]] += a * tau * trace
        A[sl[0], sl[1]] += a * nx * trace
        A[sl[0], sl[2]] += a * ny * trace
        B[sl[0], cols] = -a * tau * lift
        B[sl[1], cols] = a * phi_bar * nx * lift
        B[sl[2], cols] = a * phi_bar * ny * lift
        C[cols, sl[0]] = tau * lift.T
        C[cols, sl[1]] = nx * lift.T
        C[cols, sl[2]] = ny * lift.T
        D[cols, cols] = -tau * np.diag(ops.face_weights[side])

    return np.repeat(ops.mass_diag, 3), A, B, C, D


def assemble_local(mesh, basis, params, alpha_dt, tau):
    """Factorize the element matrix A once and precompute the operators
    the condensed solve applies."""
    mass3, A, B, C, D = local_matrices(mesh, basis, params, alpha_dt, tau)
    A_lu = scipy.linalg.lu_factor(A, check_finite=False)
    if np.min(np.abs(np.diag(A_lu[0]))) == 0.0:
        raise AssemblyError("singular element matrix; check alpha_dt and tau")
    A_inv_M = scipy.linalg.lu_solve(A_lu, np.diag(mass3), check_finite=False)
    A_inv_B = scipy.linalg.lu_solve(A_lu, B, check_finite=False)
    return LocalBlocks(
        forward=np.vstack([A_inv_M, -(C @ A_inv_M)]),
        A_inv_B=A_inv_B,
        schur=D - C @ A_inv_B,
    )


def _trace_ids(mesh, n1):
    """Global trace dof per (element, side-major face node)."""
    ids = mesh.elem_faces[:, :, None] * n1 + np.arange(n1)
    return ids.reshape(mesh.num_elements, 4 * n1)


@dataclass
class CondensedSystem:
    """The element operators of the forward pass and the back-substitution,
    and ``solve``, the one function that applies H^-1 for the backend chosen
    at set-up.  ``H`` is the assembled trace matrix on the gmres path and
    None on the direct paths, which never assemble it.  ``stored_bytes``
    counts the arrays the trace solve holds: the inverse mode blocks and
    the transform matrices, the inverse FFT symbol, or H's data and index
    arrays plus the block-Jacobi inverse."""

    blocks: LocalBlocks
    H: Optional[scipy.sparse.csc_matrix]
    elem_trace_ids: np.ndarray
    solve: Callable
    stored_bytes: int

    def solve_trace(self, g):
        return self.solve(g)


def trace_matrix(blocks, mesh, basis):
    """Scatter the element Schur complements into the sparse trace matrix H."""
    n1 = basis.n
    ndof = mesh.num_faces * n1
    # int32 triplets, the index type H ends up with, halve their memory.
    ids32 = _trace_ids(mesh, n1).astype(np.int32)
    rows = np.repeat(ids32, 4 * n1, axis=1).ravel()
    cols = np.tile(ids32, (1, 4 * n1)).ravel()
    data = np.tile(blocks.schur.ravel(), mesh.num_elements)
    return scipy.sparse.coo_matrix((data, (rows, cols)), shape=(ndof, ndof)).tocsc()


def trace_symbol(blocks, mesh, basis):
    """Blocks of H on a doubly periodic mesh, one per ``rfft2`` wavenumber.

    Cell (jy, ix) owns its west face (vertical face jy nx + ix) and its
    south face (horizontal face nx ny + jy nx + ix), so the trace vector is
    a (2, ny, nx, p+1) array over cells.  The element sides read south and
    west of their own cell, west of the east neighbour and south of the
    north neighbour; with P(k) the (4 (p+1), 2 (p+1)) matrix of those
    phases, the symbol is P(k)^H S P(k).  Returns (ny, nx//2 + 1, 2 (p+1),
    2 (p+1)), columns ordered (west, south).
    """
    n1 = basis.n
    east = np.exp(2j * np.pi * np.arange(mesh.nx // 2 + 1) / mesh.nx)[None, :, None, None]
    north = np.exp(2j * np.pi * np.arange(mesh.ny) / mesh.ny)[:, None, None, None]
    eye = np.eye(n1)
    P = np.zeros((mesh.ny, mesh.nx // 2 + 1, 4 * n1, 2 * n1), dtype=complex)
    P[:, :, :n1, n1:] = eye  # south
    P[:, :, n1 : 2 * n1, :n1] = east * eye  # east
    P[:, :, 2 * n1 : 3 * n1, n1:] = north * eye  # north
    P[:, :, 3 * n1 :, :n1] = eye  # west
    return P.conj().swapaxes(-1, -2) @ blocks.schur @ P


def _inverse(modes):
    try:
        return np.linalg.inv(modes)
    except np.linalg.LinAlgError as exc:
        raise AssemblyError(f"condensed trace system is singular: {exc}") from exc


def _fft_solve(blocks, mesh, basis):
    """H^-1 on a doubly periodic mesh: ``rfft2`` over the cells, one block
    product per wavenumber, ``irfft2``."""
    inv = _inverse(trace_symbol(blocks, mesh, basis))
    n1, ny, nx = basis.n, mesh.ny, mesh.nx
    cells = (2, ny, nx, n1)
    modes = (ny, nx // 2 + 1, 2 * n1, 1)

    def solve(g):
        g_hat = np.fft.rfft2(g.reshape(cells), axes=(1, 2))
        lam_hat = inv @ np.moveaxis(g_hat, 0, 2).reshape(modes)
        lam_hat = np.moveaxis(lam_hat.reshape(ny, -1, 2, n1), 2, 0)
        return np.fft.irfft2(lam_hat, s=(ny, nx), axes=(1, 2)).reshape(-1)

    return solve, inv.nbytes


# What an element side sees of a mode along one axis: the mode at the
# cell's low or high face across the axis, or at the cell itself, for the
# faces along the axis (J-even and J-odd node vectors).
_LOW, _HIGH, _CELL = 0, 1, 2
_X_SEES = (_CELL, _HIGH, _CELL, _LOW)  # south, east, north, west
_Y_SEES = (_LOW, _CELL, _HIGH, _CELL)
_SIDE_FAMILY = np.array([[0, 1], [1, 0], [0, 1], [1, 0]])  # vertical, horizontal


def _axis_modes(n, bc):
    """The mode functions of one axis of n cells, K modes.

    Returns ``(faces, cells, absent)``.  ``faces`` (faces, K) is each mode
    at the faces across the axis: cos(pi k i / n) at the n+1 wall-axis
    positions, the DFT phase on a periodic axis.  ``cells`` (2, n, K) is
    each mode at the cells, for the J-even and the J-odd part of the node
    vector of a face along the axis: cos and sin of pi k (i + 1/2) / n on a
    wall axis, the DFT phase for both on a periodic one.  ``absent`` (2, K)
    marks the modes that do not exist: the sine at k = 0 and the cell
    cosine at k = n, whose column is zeroed (it evaluates to 6e-17).
    """
    if bc == PERIODIC:
        faces = np.exp(2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n)
        return faces, np.stack([faces, faces]), np.zeros((2, n), bool)
    k = np.arange(n + 1)
    faces = np.cos(np.pi * np.outer(np.arange(n + 1), k) / n)
    at_cells = np.pi * np.outer(np.arange(n) + 0.5, k) / n
    cells = np.stack([np.cos(at_cells), np.sin(at_cells)])
    absent = np.zeros((2, n + 1), bool)
    absent[0, n] = absent[1, 0] = True
    cells[0, :, n] = 0.0
    return faces, cells, absent


def trace_modes(blocks, mesh, basis):
    """Blocks of H in a per-axis mode basis, for a mesh with a wall axis.

    A wall axis is the even extension of a periodic one: phi' is even
    across a wall and a face along the axis reverses its node order (J).
    So the vertical faces take ``faces`` of :func:`_axis_modes` along x and
    ``cells`` along y, each row of p+1 nodes split into its J-even and
    J-odd parts, and the horizontal faces the other way round.  Mode
    (ky, kx) couples one vector of each family, and the blocks are
    G = Q^T (S~ * Y_ky * X_kx) Q: S~ is the element Schur complement on the
    parity-split node vectors, X and Y the sums over cells of the products
    of what each side sees of the mode along x and y, and Q the map of the
    four sides onto the two families.  An absent mode gets -1 on its
    diagonal, so every block stays negative definite.

    Returns ``(G, (faces_x, cells_x), (faces_y, cells_y))``: G is
    (Ky, Kx, 2 (p+1), 2 (p+1)), columns ordered (vertical, horizontal);
    ``cells_*`` is (n (p+1), K (p+1)), the cell modes times the parity
    basis, by (cell, node) and (mode, parity).
    """
    n1 = basis.n
    eye, flip = np.eye(n1), np.eye(n1)[::-1]
    half = n1 // 2
    parity = np.hstack([(eye + flip)[:, : n1 - half], (eye - flip)[:, :half]])
    odd = (np.arange(n1) >= n1 - half).astype(int)
    split = np.kron(np.eye(4), parity)
    schur = split.T @ blocks.schur @ split

    axes, grams, gaps = [], [], []
    for n, bc, sees in ((mesh.nx, mesh.bc_x, _X_SEES), (mesh.ny, mesh.bc_y, _Y_SEES)):
        faces, cells, absent = _axis_modes(n, bc)
        views = np.stack([faces[:n], np.roll(faces, -1, axis=0)[:n], cells[0], cells[1]])
        gram = np.einsum("aik,bik->kab", views.conj(), views)
        kind = np.array(sees)[:, None]
        kind = np.where(kind == _CELL, _CELL + odd, kind).ravel()
        grams.append(gram[:, kind[:, None], kind])
        folded = np.einsum("mik,jm->ijkm", cells[odd], parity)
        axes.append((faces, folded.reshape(n * n1, -1)))
        gaps.append(absent[odd].T)
    family = np.kron(_SIDE_FAMILY, eye)
    G = family.T @ (schur * grams[1][:, None] * grams[0][None]) @ family
    # the vertical family's cells run along y, the horizontal one's along x
    missing = np.concatenate(np.broadcast_arrays(gaps[1][:, None], gaps[0][None]), axis=-1)
    G.reshape(*G.shape[:2], -1)[:, :, :: 2 * n1 + 1][missing] = -1.0
    return G, axes[0], axes[1]


def _transform_solve(blocks, mesh, basis):
    """H^-1 on a mesh with a wall axis: V (G^-1 (V^H g)) in the basis V of
    :func:`trace_modes`, which need not be orthogonal.  Each family's
    analysis and synthesis is two GEMMs, one per axis."""
    G, (faces_x, cells_x), (faces_y, cells_y) = trace_modes(blocks, mesh, basis)
    inv = _inverse(G)
    n1, ny = basis.n, mesh.ny
    ky, kx = G.shape[:2]
    nfx, nfy = faces_x.shape[0], faces_y.shape[0]
    n_vert = ny * nfx * n1

    def solve(g):
        # vertical faces are (ny, nfx, p+1), horizontal ones (nfy, nx, p+1);
        # g is real, so V^H g = conj(V^T g)
        vert = g[:n_vert].reshape(ny, nfx, n1).swapaxes(0, 1).reshape(nfx, -1)
        horiz = g[n_vert:].reshape(nfy, -1)
        hat = np.empty((ky, kx, 2, n1), G.dtype)
        hat[:, :, 0] = (faces_x.T @ vert @ cells_y).reshape(kx, ky, n1).swapaxes(0, 1)
        hat[:, :, 1] = (faces_y.T @ horiz @ cells_x).reshape(ky, kx, n1)
        lam = (inv @ np.conj(hat).reshape(ky, kx, 2 * n1, 1)).reshape(ky, kx, 2, n1)
        vert = faces_x @ lam[:, :, 0].swapaxes(0, 1).reshape(kx, -1) @ cells_y.T
        horiz = faces_y @ lam[:, :, 1].reshape(ky, -1) @ cells_x.T
        return np.concatenate([vert.reshape(nfx, ny, n1).swapaxes(0, 1).ravel(), horiz.ravel()]).real

    held = (inv, faces_x, cells_x, faces_y, cells_y)
    return solve, sum(a.nbytes for a in held)


def condense_and_factor(blocks, mesh, basis, backend="direct", rel_tol=1e-10, max_iter=500):
    """Prepare the trace solve of the chosen backend.

    The direct backend is exact and never assembles H: it solves in a basis
    that makes H block-diagonal, one 2 (p+1)-square block per mode.  On a
    doubly periodic mesh that is the 2-D DFT, by ``rfft2``
    (:func:`trace_symbol`).  On a mesh with a wall axis it is a cosine
    transform at the faces across each wall axis and a cosine/sine
    transform at the faces along it, split by node-order parity, with DFT
    phases on a periodic axis (:func:`trace_modes`).  The gmres backend
    assembles H and runs restarted GMRES to ``rel_tol`` with a per-face
    block-Jacobi preconditioner; ``max_iter`` counts restart cycles.
    """
    if backend not in BACKENDS:
        raise InvalidArgumentError(f"unknown solver backend {backend!r}")
    ids = _trace_ids(mesh, basis.n)
    if backend == "direct":
        periodic = mesh.bc_x == PERIODIC and mesh.bc_y == PERIODIC
        solve, stored = (_fft_solve if periodic else _transform_solve)(blocks, mesh, basis)
        return CondensedSystem(blocks=blocks, H=None, elem_trace_ids=ids, solve=solve, stored_bytes=stored)

    H = trace_matrix(blocks, mesh, basis)
    num_faces, n1 = mesh.num_faces, basis.n
    inv = _block_jacobi(H, num_faces, n1)
    precond = scipy.sparse.linalg.LinearOperator(
        H.shape, matvec=lambda v: np.einsum("fij,fj->fi", inv, v.reshape(num_faces, n1)).reshape(-1)
    )

    def solve(g):
        lam, info = scipy.sparse.linalg.gmres(
            H, g, rtol=rel_tol, atol=0.0, restart=30, maxiter=max_iter, M=precond
        )
        if info != 0:
            res = np.linalg.norm(H @ lam - g) / max(np.linalg.norm(g), 1e-300)
            raise SolverFailureError(
                f"trace GMRES did not converge (info={info}, relative residual {res:.3e})",
                residual=res,
                iterations=info,
            )
        return lam

    stored = H.data.nbytes + H.indices.nbytes + H.indptr.nbytes + inv.nbytes
    return CondensedSystem(blocks=blocks, H=H, elem_trace_ids=ids, solve=solve, stored_bytes=stored)


def _block_jacobi(H, num_faces, n1):
    """Inverse of the per-face diagonal blocks of H, (num_faces, n1, n1)."""
    coo = H.tocoo()
    face = coo.row // n1
    on_block = face == coo.col // n1
    blocks = np.zeros((num_faces, n1, n1))
    blocks[face[on_block], coo.row[on_block] % n1, coo.col[on_block] % n1] = coo.data[on_block]
    try:
        return np.linalg.inv(blocks)
    except np.linalg.LinAlgError as exc:
        raise AssemblyError("singular face block in preconditioner") from exc


def implicit_solve(system, rhs_field):
    """Solve (M + alpha_dt L) q = M r; return the state and the trace.

    One batched product gives every element's A^-1 M r and its share of the
    trace right-hand side; the shares are summed per trace dof, the trace
    system is solved, and one more batched product subtracts A^-1 B lambda.
    """
    blocks = system.blocks
    data, mesh, basis = rhs_field.data, rhs_field.mesh, rhs_field.basis
    if not np.all(np.isfinite(data)):
        raise SolverFailureError("implicit solve right-hand side contains non-finite values")
    nelem, n_vol = data.shape[0], blocks.A_inv_B.shape[0]
    y = data.reshape(nelem, n_vol) @ blocks.forward.T

    ids = system.elem_trace_ids
    ndof = mesh.num_faces * basis.n
    g = np.bincount(ids.ravel(), weights=y[:, n_vol:].ravel(), minlength=ndof)
    lam = system.solve_trace(g)

    q = y[:, :n_vol] - lam[ids] @ blocks.A_inv_B.T
    return (
        StateField(q.reshape(data.shape), mesh, basis),
        TraceField(lam.reshape(-1, basis.n)),
    )


class ImplicitSolverBank:
    """Cache of condensed systems keyed by the exact stage shift alpha*dt.

    Every stage with the same implicit diagonal passes the same float, so a
    scheme with one distinct implicit diagonal triggers exactly one assembly
    per run regardless of step count.  ``num_assemblies`` exposes that for
    tests and diagnostics.
    """

    def __init__(self, mesh, basis, params, tau=None, backend="direct", rel_tol=1e-10, max_iter=500):
        self.mesh = mesh
        self.basis = basis
        self.params = params
        self.tau = params.wave_speed if tau is None else float(tau)
        if self.tau <= 0.0:
            raise InvalidArgumentError(f"stabilization tau must be positive, got {self.tau}")
        self.backend = backend
        self.rel_tol = rel_tol
        self.max_iter = max_iter
        self.num_assemblies = 0
        self._systems = {}

    def system_for(self, alpha_dt):
        system = self._systems.get(alpha_dt)
        if system is None:
            blocks = assemble_local(self.mesh, self.basis, self.params, alpha_dt, self.tau)
            system = condense_and_factor(
                blocks,
                self.mesh,
                self.basis,
                backend=self.backend,
                rel_tol=self.rel_tol,
                max_iter=self.max_iter,
            )
            self.num_assemblies += 1
            self._systems[alpha_dt] = system
        return system

    def solve(self, alpha_dt, rhs_field):
        return implicit_solve(self.system_for(alpha_dt), rhs_field)
