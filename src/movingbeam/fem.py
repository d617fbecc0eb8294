"""Uniform-box C1 Hermite finite elements: mesh, space, quadrature, assembly.

The mesh is a uniform product grid on the reference box (-1, 1)^n, equal on
every axis.  Degrees of freedom are nodal values plus nodal derivatives, which
makes the space C1 across cell interfaces; the 2D space is the tensor square
of the 1D one, DOF numbering included.  Clamped boundary conditions (value
and all derivative DOFs zero on boundary nodes) are imposed by elimination,
so all assembled operators live on the free DOFs only.

Assembly is vectorized over cells but accumulates in fixed cell order, so
two assemblies of the same inputs are bitwise identical.  Every matrix is
scattered onto one CSR pattern computed once from the element connectivity,
so all assembled operators share the same ``indptr``/``indices`` and any
linear combination of them is a combination of their data arrays.  On the
free DOFs of a 2D space only the 1D operators of one axis are assembled
(``KroneckerOperators``), and each 2D operator applies itself as a Kronecker
sum of them, with no 2D matrix.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Callable, ClassVar

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matvec, csr_matvecs

from .geometry import TimeFactors
from .hermite import local_layout, shape_eval

__all__ = [
    "Mesh",
    "HermiteSpace",
    "AssembledOperators",
    "KroneckerOperators",
    "gauss_rule",
    "assemble_constant",
    "l_coefficients",
    "assemble_load",
    "interpolate_initial",
]

DEFAULT_OPERATOR_QUAD = 5   # exact through degree 9 per axis
DEFAULT_LOAD_QUAD = 6
_BLOCK_VALUES = 2 ** 14     # quadrature values per field in a block of states
REFERENCE_INTERVAL = (-1.0, 1.0)  # each axis of the reference box


def _product(axes) -> np.ndarray:
    """Rows of the Cartesian product of ``axes``, first axis fastest: (prod n_k, dim)."""
    grids = np.meshgrid(*axes[::-1], indexing="ij")
    return np.column_stack([g.ravel() for g in grids[::-1]])


@dataclass(frozen=True)
class Mesh:
    """Uniform mesh of the reference box (-1, 1)^dim with ``cells`` cells per axis."""

    dim: int
    cells: int

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if self.cells < 1:
            raise ValueError(f"cells must be >= 1, got {self.cells}")

    @staticmethod
    def uniform(dim: int, cells: int) -> "Mesh":
        """The same mesh as ``Mesh(dim, cells)``."""
        return Mesh(dim, cells)

    @property
    def box(self) -> tuple[tuple[float, float], ...]:
        return (REFERENCE_INTERVAL,) * self.dim

    @property
    def cells_per_axis(self) -> tuple[int, ...]:
        return (self.cells,) * self.dim

    @property
    def h(self) -> tuple[float, ...]:
        return ((REFERENCE_INTERVAL[1] - REFERENCE_INTERVAL[0]) / self.cells,) * self.dim

    @property
    def ncells(self) -> int:
        return self.cells ** self.dim

    def node_coords(self) -> np.ndarray:
        """Node coordinates, shape ((cells + 1)^dim, dim), x fastest."""
        return _product([np.linspace(*REFERENCE_INTERVAL, self.cells + 1)] * self.dim)


# Gauss-Legendre nodes and weights on [-1, 1], computed once per size;
# gauss_rule returns only arrays derived from them
_leggauss = functools.cache(np.polynomial.legendre.leggauss)


def gauss_rule(dim: int, npts: int):
    """Tensor Gauss-Legendre rule on [0,1]^dim, first axis fastest:
    (points (npts^dim, dim), weights (npts^dim,))."""
    if npts < 1:
        raise ValueError("need at least one point per axis")
    if dim not in (1, 2):
        raise ValueError(f"dim must be 1 or 2, got {dim}")
    x, w = _leggauss(npts)
    return _product([0.5 * (x + 1.0)] * dim), _product([0.5 * w] * dim).prod(axis=1)


class HermiteSpace:
    """C1 Hermite space on a uniform mesh with clamped-boundary elimination.

    DOF layout: the Kronecker order of the 1D one, whose DOF 2 node + d is the
    derivative of order d at the node: 2D DOF i_x + n_1 i_y, n_1 = 2 (cells + 1).
    Free DOFs keep that order, so a 2D free-DOF vector reshaped to (n, n),
    n = 2 (cells - 1), is the grid X[b, a] of y-DOF b and x-DOF a.
    ``full_to_free`` maps full DOF index to free index (-1 when constrained);
    ``axis`` is the 1D space of each axis in 2D, and None in 1D (no reference cycle).
    """

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        per_axis = 2 * (mesh.cells + 1)
        self.ndof_full = per_axis ** mesh.dim

        # clamped: the value and slope of an end node on some axis
        ends = np.zeros(per_axis, dtype=bool)
        ends[[0, 1, -2, -1]] = True
        constrained = functools.reduce(np.logical_or.outer, [ends] * mesh.dim).ravel()

        self.full_to_free = np.full(self.ndof_full, -1, dtype=np.int64)
        self.free_dofs = np.flatnonzero(~constrained)
        self.full_to_free[self.free_dofs] = np.arange(self.free_dofs.size)
        self.ndof = self.free_dofs.size

        self.element_dofs = self._element_dof_matrix()
        self._basis_cache: dict[int, dict] = {}
        self.axis = HermiteSpace(Mesh(1, mesh.cells)) if mesh.dim == 2 else None

    @functools.cached_property
    def operators(self) -> AssembledOperators | KroneckerOperators:
        """The free-DOF constant operators, :func:`assemble_constant` at its
        default rule, assembled at first use: a run and its error norms share them."""
        return assemble_constant(self)

    # -- connectivity -------------------------------------------------------

    def _element_dof_matrix(self) -> np.ndarray:
        """Global DOF of each local DOF of each cell, (ncells, 4^dim): on axis k
        the 1D DOF 2 (cell_k + corner_k) + d_k."""
        m = self.mesh
        corner, deriv = local_layout(m.dim)
        cells = _product([np.arange(m.cells)] * m.dim)
        per_axis = 2 * (cells[:, None, :] + corner[None]) + deriv[None]
        return per_axis @ (2 * (m.cells + 1)) ** np.arange(m.dim)  # first axis fastest

    # -- reference basis tables ---------------------------------------------

    def basis_tables(self, nq: int) -> dict:
        """Reference-cell quadrature and basis tables, cached per rule size.

        Keys: ``w`` (weights incl. cell jacobian), ``points`` (physical
        coordinates per cell, (ncells, nq^dim, dim)), ``N``, ``grad``
        (nq^dim, nloc, dim) and ``lap`` (nq^dim, nloc), for the rule of
        ``gauss_rule(dim, nq)``.
        """
        if nq in self._basis_cache:
            return self._basis_cache[nq]
        m = self.mesh
        pts, w = gauss_rule(m.dim, nq)
        hs = m.h
        table = shape_eval(pts, hs)
        origins = _product([REFERENCE_INTERVAL[0] + hs[0] * np.arange(m.cells)] * m.dim)
        phys = origins[:, None, :] + pts[None, :, :] * np.asarray(hs)[None, None, :]
        grad = np.stack([table(e) for e in np.eye(m.dim, dtype=int)], axis=-1)
        out = {"w": w * float(np.prod(hs)), "points": phys, "N": _derivative(table, m.dim, "N"),
               "grad": grad, "lap": _derivative(table, m.dim, "lap")}
        self._basis_cache[nq] = out
        return out

    # -- scatter -------------------------------------------------------------

    @functools.cached_property
    def _pattern(self) -> tuple:
        """(keep, slot, template): the element entries on two free DOFs, the CSR
        data position of each, and an all-zero matrix with the shared
        ``indptr``/``indices``; computed once from the connectivity."""
        ed, nloc, n = self.element_dofs, self.element_dofs.shape[1], self.ndof
        rows = self.full_to_free[np.repeat(ed, nloc, axis=1).ravel()]
        cols = self.full_to_free[np.tile(ed, (1, nloc)).ravel()]
        keep = (rows >= 0) & (cols >= 0)
        # row-major keys sort into CSR order: row by row, columns ascending
        keys, slot = np.unique(rows[keep] * n + cols[keep], return_inverse=True)
        indptr = np.searchsorted(keys, np.arange(n + 1) * n)
        template = sp.csr_matrix((np.zeros(keys.size), keys % n, indptr), shape=(n, n))
        return keep, slot.ravel(), template

    def scatter(self, elem_mats: np.ndarray) -> sp.csr_matrix:
        """Accumulate per-cell matrices (ncells, nloc, nloc) into a CSR matrix on
        the free DOFs.

        Row index is the test DOF, column the trial DOF.  The result keeps
        explicit zeros, so every matrix of the space shares the same pattern arrays.
        """
        keep, slot, template = self._pattern
        data = np.bincount(slot, weights=elem_mats.reshape(-1)[keep],
                           minlength=template.nnz)
        return sp.csr_matrix(
            (data, template.indices, template.indptr), shape=template.shape
        )

    def scatter_vector(self, elem_vecs: np.ndarray) -> np.ndarray:
        fr = self.full_to_free[self.element_dofs.ravel()]
        keep = fr >= 0
        return np.bincount(fr[keep], weights=elem_vecs.ravel()[keep], minlength=self.ndof)

    # -- evaluation of discrete functions ------------------------------------

    def node_grid(self, full: np.ndarray) -> np.ndarray:
        """The full DOF vector ``full`` as a view with the axes (node, derivative
        order) of each mesh axis, the last mesh axis first."""
        return full.reshape((self.mesh.cells + 1, 2) * self.mesh.dim)

    def nodal_values(self, d_free: np.ndarray) -> np.ndarray:
        """The values of ``d_free`` at the nodes, in ``Mesh.node_coords`` order."""
        return self.node_grid(self.expand(d_free))[(slice(None), 0) * self.mesh.dim].ravel()

    def expand(self, d_free: np.ndarray) -> np.ndarray:
        """Free-DOF vectors (..., ndof) -> full DOF vectors with zeros on constrained DOFs."""
        full = np.zeros(np.shape(d_free)[:-1] + (self.ndof_full,))
        full[..., self.free_dofs] = d_free
        return full

    def eval_at_quad(self, d_free: np.ndarray, nq: int, deriv: str = "N") -> np.ndarray:
        """Values of the discrete functions d_free (..., ndof) at the quadrature
        grid, (..., ncells, nq^dim): one product of the gathered element DOFs
        of the whole stack with the basis table.

        ``deriv``: "N", "lap" or "grad<i>" for axis i.
        """
        kind, axis = _selector(self.mesh.dim, deriv)
        basis = self.basis_tables(nq)[kind]
        basis = basis if axis is None else basis[:, :, axis]
        de = self.expand(d_free)[..., self.element_dofs]
        return (de.reshape(-1, de.shape[-1]) @ basis.T).reshape(de.shape[:-1] + (-1,))

    def state_blocks(self, count: int, nq: int) -> list[tuple[int, int]]:
        """Ranges (lo, hi) covering states 0..count-1 in blocks of one state or more,
        with at most ``_BLOCK_VALUES`` :meth:`eval_at_quad` values per field: the
        blocks of ``energy_series``, whose quartic term is the one quadrature left."""
        size = max(1, _BLOCK_VALUES // (self.mesh.ncells * nq ** self.mesh.dim))
        return [(lo, min(lo + size, count)) for lo in range(0, count, size)]

    def eval_points(self, d_free: np.ndarray, points, deriv: str = "N") -> np.ndarray:
        """Evaluate the discrete function, or its ``deriv`` as in :meth:`eval_at_quad`,
        at arbitrary points (npts, dim) in the box."""
        m = self.mesh
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        lo, hs = REFERENCE_INTERVAL[0], m.h[0]
        idx = np.clip(np.floor((pts - lo) / hs).astype(int), 0, m.cells - 1)
        table = _derivative(shape_eval((pts - (lo + idx * hs)) / hs, m.h), m.dim, deriv)
        de = self.expand(d_free)[self.element_dofs[idx @ m.cells ** np.arange(m.dim)]]
        return np.einsum("pa,pa->p", de, table)


def _selector(dim: int, deriv: str) -> tuple[str, int | None]:
    """(kind, axis) of the selector "N", "lap" or "grad<i>" (axis i < dim); no other."""
    if deriv in ("N", "lap"):
        return deriv, None
    if deriv.startswith("grad") and deriv[4:] in [str(i) for i in range(dim)]:
        return "grad", int(deriv[4:])
    raise ValueError(f"unknown derivative selector {deriv!r}")


def _derivative(table: Callable, dim: int, deriv: str) -> np.ndarray:
    """Shape table of the selector ``deriv`` from ``hermite.shape_eval``'s ``table``."""
    kind, axis = _selector(dim, deriv)
    eye = np.eye(dim, dtype=int)
    if kind == "lap":
        return functools.reduce(np.add, (table(2 * e) for e in eye))
    return table(0 * eye[0] if axis is None else eye[axis])


@dataclass(eq=False)
class AssembledOperators:
    """Constant matrices on one CSR pattern: mass A, gradient stiffness K1,
    bi-Laplacian K2, and the y-weighted operators of the moving ends

        Q = Q1 + Q2,  Q1 = sum_i (y_i^2 d_i ., d_i .),  Q2 = sum_ij (y_i y_j d_i ., d_j .)
        P = sum_i (y_i d_i ., .)

    ``stack`` holds their data in ``BASIS`` order (each matrix's ``data`` is
    a view of its row), so :meth:`combine` forms any linear combination as
    one coefficient-vector product, and :meth:`products` applies all five
    with one sparse product, so that S x = c @ products(x) needs no matrix
    of S; :meth:`band` forms the band array LAPACK factors as one product with
    ``band_stack``, its ``bandwidth``, max |i - j| over the pattern, read from
    the pattern at construction.  The step loop relies on slots 0 and 1 being A and K1.
    """

    BASIS: ClassVar[tuple[str, ...]] = ("A", "K1", "K2", "Q", "P")

    A: sp.csr_matrix
    K1: sp.csr_matrix
    K2: sp.csr_matrix
    Q: sp.csr_matrix
    P: sp.csr_matrix
    bandwidth: int = field(init=False)
    stack: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        mats = [getattr(self, name) for name in self.BASIS]
        if not all(np.array_equal(m.indptr, self.A.indptr)
                   and np.array_equal(m.indices, self.A.indices) for m in mats):
            raise ValueError("constant operators must share one CSR pattern")
        pattern = self.A.tocoo()
        self.bandwidth = int(np.max(np.abs(pattern.row - pattern.col), initial=0))
        self.stack = np.stack([m.data for m in mats])
        for m, row in zip(mats, self.stack):
            m.data = row

    def combine(self, coefs: np.ndarray) -> sp.csr_matrix:
        """sum_k coefs[k] * (A, K1, K2, Q, P)[k] on the shared pattern."""
        return sp.csr_matrix(
            (coefs @ self.stack, self.A.indices, self.A.indptr), shape=self.A.shape
        )

    @functools.cached_property
    def stacked(self) -> sp.csr_matrix:
        """The (5n x n) CSR matrix [A; K1; K2; Q; P]; its ``data`` is a view of
        ``stack``.  Built at the first product, so set-up does not pay for it."""
        m, n, nnz = len(self.BASIS), self.A.shape[0], self.A.nnz
        indptr = np.concatenate([self.A.indptr[:-1] + k * nnz for k in range(m)]
                                + [[m * nnz]])
        return sp.csr_matrix(
            (self.stack.reshape(-1), np.tile(self.A.indices, m), indptr), shape=(m * n, n)
        )

    def products(self, x: np.ndarray) -> np.ndarray:
        """(A x, K1 x, K2 x, Q x, P x) as one (5, n) array: the CSR kernel of ``stacked @ x``."""
        if np.shape(x) != (self.A.shape[1],):  # the kernel reads x unchecked
            raise ValueError(f"products takes {self.A.shape[1]} entries, got shape {np.shape(x)}")
        M, out = self.stacked, np.zeros(self.stack.shape[0] * self.A.shape[0])
        csr_matvec(*M.shape, M.indptr, M.indices, M.data, x, out)
        return out.reshape(len(self.BASIS), -1)

    def error_forms(self, E: np.ndarray) -> np.ndarray:
        """(e^T A e, e^T K2 e) of each column e of E (n, m), as (2, m)."""
        return np.stack([np.einsum("im,im->m", E, M @ E) for M in (self.A, self.K2)])

    @functools.cached_property
    def band_stack(self) -> np.ndarray:
        """``stack`` laid out as :meth:`band` flattened, (5, n (3 bw + 1)), zero off
        the pattern; built at the first factorization."""
        bw, pattern = self.bandwidth, self.A.tocoo()
        out = np.zeros((len(self.BASIS), self.A.shape[0], 3 * bw + 1))
        out[:, pattern.col, 2 * bw + pattern.row - pattern.col] = self.stack
        return out.reshape(len(self.BASIS), -1)

    def band(self, coefs: np.ndarray) -> np.ndarray:
        """sum_k coefs[k] * (A, K1, K2, Q, P)[k] in LAPACK general-band storage
        with kl = ku = ``bandwidth``: the Fortran-ordered (3 bw + 1, n) array
        whose entry [2 bw + i - j, j] is S[i, j].  Its first bw rows are zero,
        the room ``dgbsv`` needs for the fill of row pivoting."""
        return (coefs @ self.band_stack).reshape(self.A.shape[0], -1).T


@dataclass(eq=False)
class KroneckerOperators:
    """The free-DOF operators ``AssembledOperators.BASIS`` of a 2D space as
    Kronecker sums of the 1D A, S = K1, B = K2, Q and P of its ``axis``, the
    same on x and y.  A free-DOF vector x is the grid X = x.reshape(n, n),
    X[b, a] of y-DOF b and x-DOF a (``HermiteSpace``), on which (F (x) C) x is
    F X C^T, y factor first, and :meth:`grid_products` applies
        A = A(x)A,  K1 = A(x)S + S(x)A,  K2 = A(x)B + B(x)A + 2 S(x)S,
        Q = A(x)Q + Q(x)A + P^T(x)P + P(x)P^T,  P = A(x)P + P(x)A.
    :meth:`operator` applies a combination of them in one pass; both run ``_two_stage``.
    """

    axis: AssembledOperators

    def products(self, x: np.ndarray) -> np.ndarray:
        """(A x, K1 x, K2 x, Q x, P x) as one (5, n^2) array."""
        n = self.axis.A.shape[0]
        return self.grid_products(x.reshape(n, n)).reshape(5, -1)

    @functools.cached_property
    def _left(self) -> sp.csr_matrix:
        """Row block k, column block j: the y factor F of the term F (x) C_j of
        operator k, C_j the axis' ``BASIS``; P^T = -A - P on the clamped space.  Each F is
        formed from rows of the axis' ``stack``, with no zero kept (none moves a kernel sum)."""
        n, (A, S, B, Q, P) = self.axis.A.shape[0], self.axis.stack
        blocks = {(0, 0): A, (1, 0): S, (1, 1): A, (2, 0): B, (2, 1): 2.0 * S, (2, 2): A,
                  (3, 0): Q - P, (3, 3): A, (3, 4): -A - 2.0 * P, (4, 0): P, (4, 4): A}
        at, ij = n * np.array(list(blocks)), self.axis.A.tocoo().coords  # block corner, entry
        rows, cols = ((at[:, k, None] + ij[k]).ravel() for k in (0, 1))
        M = sp.csr_matrix((np.concatenate(list(blocks.values())), (rows, cols)), shape=(5 * n,) * 2)
        M.eliminate_zeros()
        return M

    @functools.cached_property
    def _symmetric_rows(self) -> sp.csr_matrix:  # [A; S; B] of the axis, cut once
        return self.axis.stacked[:3 * self.axis.A.shape[0]]

    @functools.cached_property
    def _row_pattern(self) -> tuple:
        """(indptr, indices, order) of an n x 4n block row of four matrices on the axis'
        pattern, whose CSR data is their stacked data (4, nnz) flat at ``order``."""
        A, n = self.axis.A, self.axis.A.shape[0]
        k, j = np.divmod(np.arange(4 * A.nnz), A.nnz)
        order = np.argsort(4 * np.repeat(np.arange(n), np.diff(A.indptr))[j] + k, kind="stable")
        return 4 * A.indptr, (A.indices[j] + k * n)[order].astype(A.indices.dtype), order

    def error_forms(self, E: np.ndarray) -> np.ndarray:
        """(e^T A e, e^T K2 e) of each column e of E (n^2, m), as (2, m), from
        the grids X of the columns and the symmetric A, S, B of the axis:
        e^T (A(x)A) e = <AX, XA> and e^T K2 e = <AX, XB> + <BX, XA> + 2 <SX, XS>."""
        n, m = self.axis.A.shape[0], E.shape[1]
        rows = self._symmetric_rows  # A, S, B
        AX, SX, BX = (rows @ E.reshape(n, -1)).reshape(3, n, n, m)  # [b, a, state]
        flipped = E.reshape(n, n, m).transpose(1, 0, 2).reshape(n, -1)
        XA, XS, XB = (rows @ flipped).reshape(3, n, n, m)  # M X^T = (X M)^T: [a, b, state]
        dot = functools.partial(np.einsum, "bas,abs->s")
        return np.stack([dot(AX, XA), dot(AX, XB) + dot(BX, XA) + 2.0 * dot(SX, XS)])

    def grid_products(self, X: np.ndarray) -> np.ndarray:
        """The five operators applied to the grid X (n, n), as (5, n, n):
        X C_j^T for the axis' five, then the y factors on their stack."""
        stages = ((*M.shape, M.indptr, M.indices, M.data) for M in (self.axis.stacked, self._left))
        return _two_stage(*stages, X).reshape(5, *X.shape)

    def operator(self, c: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        """X -> S(c) X on the grid X (n, n), S(c) = sum_k c_k (A, K1, K2, Q, P)_k, in one
        pass.  With P^T = -A - P on the axis, S(c) = c_0 A(x)A + H(x)A + A(x)H + 2 c_2 S(x)S
        - 2 c_3 P(x)P, H = c_1 S + c_2 B + c_3 Q + (c_4 - c_3) P: the right stack [A; H; S; P],
        then the block row [c_0 A + H, A, 2 c_2 S, -2 c_3 P], whose data are formed here."""
        n, nnz = self.axis.A.shape[0], self.axis.A.nnz
        c0, c1, c2, c3, c4 = np.asarray(c).tolist()  # rows: the right stack, the block row
        data = np.array([[1, 0, 0, 0, 0], [0, c1, c2, c3, c4 - c3], [0, 1, 0, 0, 0],
                         [0, 0, 0, 0, 1], [c0, c1, c2, c3, c4 - c3], [1, 0, 0, 0, 0],
                         [0, 2 * c2, 0, 0, 0], [0, 0, 0, 0, -2 * c3]], float) @ self.axis.stack
        M, (indptr, indices, order) = self.axis.stacked, self._row_pattern
        right = (4 * n, n, M.indptr[:4 * n + 1], M.indices[:4 * nnz], data[:4].ravel())
        left = (n, 4 * n, indptr, indices, data[4:].ravel()[order])
        return lambda X: _two_stage(right, left, X).reshape(n, n)


def _two_stage(right: tuple, left: tuple, X: np.ndarray) -> np.ndarray:
    """left @ [X C_0^T; X C_1^T; ..], flat, C_k the n x n row blocks of right, by two
    CSR-kernel products; each matrix is (rows, cols, indptr, indices, data)."""
    n = right[1]
    if np.shape(X) != (n, n):  # the kernel reads X unchecked
        raise ValueError(f"the grid must be {n} x {n}, got shape {np.shape(X)}")
    CX, out = np.zeros(right[0] * n), np.zeros(left[0] * n)
    csr_matvecs(*right[:2], n, *right[2:], X.T.ravel(), CX)  # C_k X^T = (X C_k^T)^T
    csr_matvecs(*left[:2], n, *left[2:], CX.reshape(-1, n, n).swapaxes(1, 2).ravel(), out)
    return out


def _elem_integrals(space: HermiteSpace, nq: int, coef, trial, test) -> np.ndarray:
    """Per-cell matrices sum_q w_q coef[c,q] trial[q,b] test[q,a] -> (c, a, b)."""
    tab = space.basis_tables(nq)
    cw = coef * tab["w"][None, :]
    # test x trial per point first, then one matrix product over the points
    return np.einsum("cq,qa,qb->cab", cw, test, trial, optimize=["einsum_path", (1, 2), (0, 1)])


def assemble_constant(
    space: HermiteSpace, nq: int = DEFAULT_OPERATOR_QUAD
) -> AssembledOperators | KroneckerOperators:
    """Assemble A, K1, K2, Q and P on the free DOFs: in 2D only the 1D operators
    of the space's axis, with this ``nq``."""
    if space.mesh.dim == 1:
        return _quadrature(space, nq)
    return KroneckerOperators(_quadrature(space.axis, nq))


def _quadrature(space: HermiteSpace, nq: int) -> AssembledOperators:
    """The five operators of ``space`` by quadrature.  The contributions of each
    matrix are summed per cell and scattered at once, before the next one is
    integrated: no sparse addition prunes entries, all five share one pattern,
    and one set of element arrays lives."""
    tab = space.basis_tables(nq)
    y = tab["points"]
    g = [tab["grad"][:, :, i] for i in range(space.mesh.dim)]
    pairs = [(i, j) for i in range(len(g)) for j in range(len(g))]
    ones = np.ones(y.shape[:2])
    integrate = functools.partial(_elem_integrals, space, nq)
    return AssembledOperators(
        A=space.scatter(integrate(ones, tab["N"], tab["N"])),
        K1=space.scatter(sum(integrate(ones, gi, gi) for gi in g)),
        K2=space.scatter(integrate(ones, tab["lap"], tab["lap"])),
        # Q1 adds the diagonal i = j terms of Q2 once more
        Q=space.scatter(sum(integrate((1.0 + (i == j)) * y[..., i] * y[..., j], g[i], g[j])
                            for i, j in pairs)),
        P=space.scatter(sum(integrate(y[..., i], gi, tab["N"]) for i, gi in enumerate(g))),
    )


def l_coefficients(f: TimeFactors, nu: float) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients over ``AssembledOperators.BASIS`` of L1 and L2, a row per time of ``f``.

    L1 = nu A + B3 = nu A - 2 (K'/K) P
    L2 = b2 K2 + B1 + B4 - B2 = K^-4 K2 + zeta0/K^2 K1 - 4 (K'/K)^2 Q + c4 P
    """
    z = np.zeros_like(f.r)
    return (np.stack([z + nu, z, z, z, -2.0 * f.r], axis=-1),
            np.stack([z, f.s0, f.b2, -4.0 * f.r * f.r, f.c4], axis=-1))


def assemble_load(
    space: HermiteSpace,
    f: Callable[[np.ndarray], np.ndarray],
    nq: int = DEFAULT_LOAD_QUAD,
) -> np.ndarray:
    """Load vector F_l = (f, phi_l) on the free DOFs.

    ``f(points)`` receives points of shape (npts, dim) and must return a flat
    array of values.
    """
    tab = space.basis_tables(nq)
    pts = tab["points"]
    vals = np.asarray(f(pts.reshape(-1, space.mesh.dim)), dtype=float)
    if not np.all(np.isfinite(vals)):
        bad = pts.reshape(-1, space.mesh.dim)[~np.isfinite(vals)][0]
        raise ValueError(f"source evaluated to a non-finite value at y={bad}")
    fw = vals.reshape(pts.shape[:2]) * tab["w"][None, :]
    elem = np.einsum("cq,qa->ca", fw, tab["N"], optimize=True)
    return space.scatter_vector(elem)


def interpolate_initial(
    space: HermiteSpace,
    derivs: Callable[[np.ndarray, tuple], np.ndarray],
) -> np.ndarray:
    """Nodal Hermite interpolant of a datum given its derivative evaluator.

    ``derivs(points, multi_index)`` returns the requested spatial derivative
    at the nodes.  Each free DOF takes the exact nodal value/derivative; this
    is the startup accuracy the error analysis assumes.
    """
    m = space.mesh
    nodes, full = m.node_coords(), np.zeros(space.ndof_full)
    grid = space.node_grid(full)
    for mi in itertools.product((0, 1), repeat=m.dim):  # derivative order per axis
        at = sum(((slice(None), o) for o in mi[::-1]), ())
        grid[at] = derivs(nodes, mi).reshape((m.cells + 1,) * m.dim)
    return full[space.free_dofs]
