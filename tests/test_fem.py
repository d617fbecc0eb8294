"""Mesh, quadrature, assembly and interpolation, checked against independent oracles."""
import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from movingbeam import (
    AssembledOperators,
    BeamParameters,
    HermiteSpace,
    KroneckerOperators,
    ManufacturedCase,
    Mesh,
    MovingBoundary,
    assemble_constant,
    assemble_load,
    gauss_rule,
    interpolate_initial,
)
from movingbeam.fem import _BLOCK_VALUES, _elem_integrals
from movingbeam.geometry import eval_boundary, time_factors
from movingbeam.newmark import LinearSolver, state

from conftest import (UnclampedSpace, a_coefficients, assemble_time_dependent, free_operators,
                      kirchhoff_scalar, project_initial, step_problem)


class TestQuadrature:
    def test_monomial_exactness(self):
        pts, w = gauss_rule(1, 4)
        assert float(w @ pts[:, 0] ** 3) == pytest.approx(0.25, abs=1e-15)
        assert float(w @ pts[:, 0] ** 7) == pytest.approx(0.125, abs=1e-15)
        assert float(w.sum()) == pytest.approx(1.0, abs=1e-15)

    def test_2d_tensor_rule(self):
        pts, w = gauss_rule(2, 3)
        assert pts.shape == (9, 2)
        assert float(w.sum()) == pytest.approx(1.0, abs=1e-14)
        # separable monomial
        val = float(w @ (pts[:, 0] ** 2 * pts[:, 1] ** 4))
        assert val == pytest.approx((1 / 3) * (1 / 5), abs=1e-15)

    def test_bad_rule(self):
        with pytest.raises(ValueError):
            gauss_rule(1, 0)
        with pytest.raises(ValueError):
            gauss_rule(3, 2)


def _symbolic_element_matrices(L):
    """Exact 1D element mass/K1/K2 for cell size L (closed forms)."""
    M = L / 420.0 * np.array(
        [
            [156, 22 * L, 54, -13 * L],
            [22 * L, 4 * L * L, 13 * L, -3 * L * L],
            [54, 13 * L, 156, -22 * L],
            [-13 * L, -3 * L * L, -22 * L, 4 * L * L],
        ]
    )
    K1 = 1.0 / (30 * L) * np.array(
        [
            [36, 3 * L, -36, 3 * L],
            [3 * L, 4 * L * L, -3 * L, -L * L],
            [-36, -3 * L, 36, -3 * L],
            [3 * L, -L * L, -3 * L, 4 * L * L],
        ]
    )
    K2 = 1.0 / L**3 * np.array(
        [
            [12, 6 * L, -12, 6 * L],
            [6 * L, 4 * L * L, -6 * L, 2 * L * L],
            [-12, -6 * L, 12, -6 * L],
            [6 * L, 2 * L * L, -6 * L, 4 * L * L],
        ]
    )
    return M, K1, K2


class TestConstantAssembly:
    def test_element_matrices_match_closed_forms(self):
        space = HermiteSpace(Mesh(1, 3))
        L = space.mesh.h[0]
        tab = space.basis_tables(5)
        ones = np.ones((1, tab["w"].size))
        Me = _elem_integrals(space, 5, ones, tab["N"], tab["N"])[0]
        K1e = _elem_integrals(space, 5, ones, tab["grad"][:, :, 0], tab["grad"][:, :, 0])[0]
        K2e = _elem_integrals(space, 5, ones, tab["lap"], tab["lap"])[0]
        Ms, K1s, K2s = _symbolic_element_matrices(L)
        np.testing.assert_allclose(Me, Ms, rtol=1e-13)
        np.testing.assert_allclose(K1e, K1s, rtol=1e-13)
        np.testing.assert_allclose(K2e, K2s, rtol=1e-13)
        # the spec's landmark entries
        assert Me[0, 0] == pytest.approx(13 * L / 35, rel=1e-14)
        assert K2e[0, 0] == pytest.approx(12 / L**3, rel=1e-14)

    def test_symmetry_and_spd(self, space_1d_coarse):
        ops = assemble_constant(space_1d_coarse)
        for M in (ops.A, ops.K1, ops.K2):
            d = (M - M.T).toarray()
            assert np.max(np.abs(d)) < 1e-15 * np.max(np.abs(M.toarray()))
        lam_min = spla.eigsh(ops.A, k=1, which="SA", return_eigenvectors=False)[0]
        assert lam_min > 0.0
        lam_min_k2 = spla.eigsh(ops.K2, k=1, sigma=0, return_eigenvectors=False)[0]
        assert lam_min_k2 > 0.0

    def test_2d_element_against_brute_force_quadrature(self, space_2d_coarse):
        # oracle: 12-point tensor rule, independent of the default 5-point one
        ops5 = free_operators(space_2d_coarse, nq=5)
        ops12 = free_operators(space_2d_coarse, nq=12)
        for a, b in ((ops5.A, ops12.A), (ops5.K1, ops12.K1), (ops5.K2, ops12.K2)):
            da, db = a.toarray(), b.toarray()
            assert np.max(np.abs(da - db)) < 1e-12 * max(1.0, np.max(np.abs(db)))

    def test_determinism_bitwise(self, space_2d_coarse):
        o1 = free_operators(space_2d_coarse)
        o2 = free_operators(space_2d_coarse)
        for a, b in ((o1.A, o2.A), (o1.K1, o2.K1), (o1.K2, o2.K2)):
            assert np.array_equal(a.data, b.data)
            assert np.array_equal(a.indices, b.indices)
        k1, k2 = (assemble_constant(space_2d_coarse) for _ in range(2))
        assert np.array_equal(k1.axis.stack, k2.axis.stack)

    @pytest.mark.parametrize("cells", [4, 3])
    def test_2d_integrates_only_the_1d_axes(self, cells, monkeypatch):
        # a 2D free-DOF set-up integrates the five 1D operators of its axis and no 2D cell
        from movingbeam import fem

        dims, original = [], fem._elem_integrals
        monkeypatch.setattr(fem, "_elem_integrals",
                            lambda space, *a: dims.append(space.mesh.dim) or original(space, *a))
        ops = assemble_constant(HermiteSpace(Mesh(2, cells)))
        assert isinstance(ops, KroneckerOperators)
        assert dims == [1] * 5

    def test_axes_take_the_callers_rule(self):
        # the axis holds the 1D operators of the space's cells at the caller's nq, bit for bit
        ops = assemble_constant(HermiteSpace(Mesh(2, 3)), nq=12)
        ref = assemble_constant(HermiteSpace(Mesh(1, 3)), nq=12)
        for name in AssembledOperators.BASIS:
            assert getattr(ops.axis, name).data.tobytes() == getattr(ref, name).data.tobytes()

    def test_bandwidth_metadata(self, space_1d_coarse):
        ops = assemble_constant(space_1d_coarse)
        assert ops.bandwidth == 3  # 1D Hermite couples 4 consecutive free DOFs

    def test_bandwidth_is_read_from_the_pattern(self, rng):
        # hand-made operators on one pattern, tridiagonal plus an entry at (0, 4):
        # a band of width 3 or less would drop that entry from the LU
        n = 16
        pattern = sp.diags([1.0, 4.0, 1.0], [-1, 0, 1], shape=(n, n), format="lil")
        pattern[0, 4] = 1.0
        pattern = pattern.tocsr()
        mats = {}
        for name in AssembledOperators.BASIS:  # diagonally dominant, so regular
            mats[name] = pattern.copy()
            mats[name].data *= rng.uniform(0.9, 1.1, pattern.nnz)
        ops = AssembledOperators(**mats)
        assert ops.bandwidth == 4
        c, rhs, none = rng.uniform(0.5, 1.5, 5), rng.standard_normal(n), np.zeros((n, 0))
        x = LinearSolver(ops).solve(c, rhs, none, none)
        ref = spla.spsolve(ops.combine(c).tocsc(), rhs)
        assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("cells", [2, 3, 4])
    def test_2d_bandwidth_spans_the_pattern(self, cells):
        # on every DOF, as a 2D free-DOF set-up forms no 2D pattern
        space = UnclampedSpace(Mesh.uniform(2, cells))
        ops = free_operators(space)
        A = ops.A.tocoo()
        assert ops.bandwidth == np.max(np.abs(A.row - A.col))
        # the DOFs of one cell are all coupled: the widest cell sets the width
        assert ops.bandwidth == max(np.ptp(row) for row in space.element_dofs)

    @pytest.mark.parametrize("dim, cells", [(1, 8), (2, 3), (2, 4)])
    def test_restriction_commutes_with_assembly(self, dim, cells):
        # the every-DOF operators cut to the free DOFs are the free-DOF assembly,
        # explicit zeros included: the consistency oracle numbers DOFs as a run does
        space = HermiteSpace(Mesh(dim, cells))
        full, free = free_operators(UnclampedSpace(space.mesh)), free_operators(space)
        for name in AssembledOperators.BASIS:
            cut, ref = getattr(full, name)[space.free_dofs][:, space.free_dofs], getattr(free, name)
            assert np.array_equal(cut.indptr, ref.indptr), name
            assert np.array_equal(cut.indices, ref.indices), name
            assert cut.data.tobytes() == ref.data.tobytes(), name


class TestTimeDependentAssembly:
    def test_stationary_degeneration(self, params):
        b = MovingBoundary.constant(64.0)
        space = HermiteSpace(Mesh.uniform(1, 8))
        ops = assemble_constant(space)
        bt = assemble_time_dependent(space, b, params, 0.5)
        for M in (bt.B2, bt.B3, bt.B4):
            assert np.max(np.abs(M.toarray())) == 0.0
        expected = (params.zeta0 / 64.0**2) * ops.K1.toarray()
        np.testing.assert_allclose(bt.B1.toarray(), expected, rtol=1e-13)

    def test_b2_symmetric(self, params):
        b = MovingBoundary.b2(2)
        space = HermiteSpace(Mesh.uniform(2, 3))
        bt = assemble_time_dependent(space, b, params, 0.3)
        d = (bt.B2 - bt.B2.T).toarray()
        assert np.max(np.abs(d)) < 1e-14 * max(1.0, np.max(np.abs(bt.B2.toarray())))

    def test_singular_mapping_propagates(self, params):
        from movingbeam import BoundaryKind, SingularMappingError

        b = MovingBoundary(BoundaryKind.LINEAR_DRIFT, base=0.0)
        space = HermiteSpace(Mesh.uniform(1, 4))
        with pytest.raises(SingularMappingError):
            assemble_time_dependent(space, b, params, 1.0)

    def test_b1_entry_against_dense_quadrature_oracle(self, b1_1d, params):
        space = HermiteSpace(Mesh.uniform(1, 4))
        bt = assemble_time_dependent(space, b1_1d, params, 0.0)
        # oracle: 32-point Gauss per cell of a1(y, 0) phi_k' phi_l'
        tab = space.basis_tables(32)
        pts = tab["points"].reshape(-1, 1)
        a1 = a_coefficients(time_factors(b1_1d, params, 0.0), pts)[0][:, 0]
        shape = tab["points"].shape[:2]
        g = tab["grad"][:, :, 0]
        elem = np.einsum(
            "cq,qa,qb->cab", a1.reshape(shape) * tab["w"][None, :], g, g
        )
        oracle = space.scatter(elem).toarray()
        np.testing.assert_allclose(bt.B1.toarray(), oracle, rtol=1e-12, atol=1e-15)

    def test_quadratic_form_positivity(self, params, rng):
        # discrete coercivity surrogate: w^T (B1 + G K1 + b2 K2) w > 0 for
        # admissible boundaries, sampled times and random states
        for b in (MovingBoundary.b1(1), MovingBoundary.b2(1)):
            space = HermiteSpace(Mesh.uniform(1, 8))
            ops = assemble_constant(space)
            for t in np.linspace(0.0, 1.0, 4):
                bt = assemble_time_dependent(space, b, params, float(t))
                f = time_factors(b, params, float(t))
                state = 0.1 * rng.standard_normal(space.ndof)
                g = kirchhoff_scalar(f.b1, state, ops.K1)
                Q = (bt.B1 + g * ops.K1 + f.b2 * ops.K2).toarray()
                for _ in range(100):
                    w = rng.standard_normal(space.ndof)
                    assert w @ (Q @ w) > 0.0


def _quadrature_l_matrices(space, ops, b, params, t):
    """L1, L2 from the pointwise B1..B4 quadrature, the affine path's reference."""
    bt = assemble_time_dependent(space, b, params, t)
    k = eval_boundary(b, t)[0]
    return (
        (params.nu * ops.A + bt.B3).toarray(),
        (k**-4 * ops.K2 + bt.B1 + bt.B4 - bt.B2).toarray(),
    )


def _kronecker_sums(o1):
    """The 2D operators from the 1D ones (A1, S1 = K1, B1 = K2, Q1 = Q, P1 = P)."""
    A1, S1, B1, Q1, P1 = o1.A, o1.K1, o1.K2, o1.Q, o1.P
    return {
        "A": sp.kron(A1, A1),
        "K1": sp.kron(A1, S1) + sp.kron(S1, A1),
        "K2": sp.kron(A1, B1) + sp.kron(B1, A1) + 2.0 * sp.kron(S1, S1),
        "Q": sp.kron(A1, Q1) + sp.kron(Q1, A1) + sp.kron(P1.T, P1) + sp.kron(P1, P1.T),
        "P": sp.kron(A1, P1) + sp.kron(P1, A1),
    }


class TestKroneckerStructure:
    """The BFS space is the tensor product of the 1D Hermite space, so each 2D
    operator is a sum of Kronecker products of the 1D ones."""

    @pytest.mark.parametrize("cells", [4, 8, 16])
    def test_2d_operators_are_kronecker_sums(self, cells):
        o1 = assemble_constant(HermiteSpace(Mesh.uniform(1, cells)))
        o2 = free_operators(HermiteSpace(Mesh.uniform(2, cells)))
        # the Kronecker products index x-DOF a and y-DOF b as b * n1 + a, which
        # is the free-DOF order itself: no permutation
        for name, k in _kronecker_sums(o1).items():
            m2 = getattr(o2, name).toarray()
            assert np.max(np.abs(m2 - k.toarray())) <= 1e-14 * np.max(np.abs(m2)), name

    def test_free_dofs_are_the_kronecker_product_of_the_axes(self):
        # a separable datum p(x) q(y) has the free-DOF vector kron(q, p) of its
        # 1D interpolants, bit for bit: x fastest, one 1D DOF per axis
        def p(x, order):  # (x^2 - 1)^2 (x + 2), or its derivative
            if order:
                return (x * x - 1) * (4 * x * (x + 2) + x * x - 1)
            return (x * x - 1) ** 2 * (x + 2)

        def q(y, order):  # (y^2 - 1)^2 (1 - y / 3), or its derivative
            if order:
                return (y * y - 1) * (4 * y * (1 - y / 3) - (y * y - 1) / 3)
            return (y * y - 1) ** 2 * (1 - y / 3)

        line, plane = (HermiteSpace(Mesh.uniform(dim, 5)) for dim in (1, 2))
        dp, dq = (interpolate_initial(line, lambda pts, mi, f=f: f(pts[:, 0], mi[0]))
                  for f in (p, q))
        d = interpolate_initial(plane, lambda pts, mi: p(pts[:, 0], mi[0]) * q(pts[:, 1], mi[1]))
        assert d.tobytes() == np.kron(dq, dp).tobytes()

    def test_an_asymmetric_datum_keeps_its_orientation(self, rng):
        # u(x, y) = p(x) q(y), p != q two clamped 1D Hermite functions: the BFS
        # interpolant is u itself, where a transposed grid would give p(y) q(x)
        line, plane = (HermiteSpace(Mesh(dim, 4)) for dim in (1, 2))
        dp, dq = rng.standard_normal((2, line.ndof))

        def factor(d, x, order):
            return line.eval_points(d, x[:, None], ("N", "grad0")[order])

        u = interpolate_initial(
            plane, lambda pts, mi: factor(dp, pts[:, 0], mi[0]) * factor(dq, pts[:, 1], mi[1]))
        pts = rng.uniform(-1.0, 1.0, (64, 2))  # off the diagonal x = y
        exact, swapped = (factor(dp, pts[:, i], 0) * factor(dq, pts[:, 1 - i], 0) for i in (0, 1))
        got = plane.eval_points(u, pts)
        assert np.max(np.abs(got - exact)) <= 1e-13 * np.max(np.abs(exact))
        assert np.max(np.abs(got - swapped)) > 0.1 * np.max(np.abs(exact))
        # the products are the Kronecker sums of the 1D matrices, applied in DOF order
        got = assemble_constant(plane).products(u)
        kron = _kronecker_sums(assemble_constant(line))
        for k, name in enumerate(AssembledOperators.BASIS):
            ref = kron[name] @ u
            assert np.max(np.abs(got[k] - ref)) <= 1e-14 * np.max(np.abs(ref)), name

    @pytest.mark.parametrize("cells", [3, 8, 5, 2])
    def test_2d_products_match_the_assembled_matrices(self, cells, rng):
        # (F (x) C) x is F X C^T on the grid: no 2D sparse product is made
        space = HermiteSpace(Mesh(2, cells))
        ops = assemble_constant(space)
        x = rng.standard_normal(space.ndof)
        got, csr = ops.products(x), free_operators(space)
        for k, name in enumerate(AssembledOperators.BASIS):
            ref = getattr(csr, name) @ x
            assert np.max(np.abs(got[k] - ref)) <= 1e-14 * np.max(np.abs(ref)), name


class TestAffineOperators:
    @pytest.mark.parametrize("dim,cells", [(1, 8), (2, 3)])
    @pytest.mark.parametrize("which", ["B1", "B2", "custom"])
    def test_combination_matches_quadrature(self, params, dim, cells, which):
        from movingbeam import BeamSystem, BoundaryKind, NewmarkConfig

        # custom: K = 2 - e^-t, so K'' != 0 and K'/K is 1 at t = 0 and 0.43 at t = 0.5
        b = {
            "B1": MovingBoundary.b1(dim),
            "B2": MovingBoundary.b2(dim),
            "custom": MovingBoundary(BoundaryKind.EXPONENTIAL_SATURATION, base=1.0,
                                     amplitude=1.0, rate=1.0),
        }[which]
        space = HermiteSpace(Mesh.uniform(dim, cells))
        ops = free_operators(space)
        # the run's time table at its levels t = 0 and 0.5
        system = BeamSystem(space, assemble_constant(space), b, params)
        _, L1, L2 = system.time_table(NewmarkConfig(dt=0.5, n_steps=1))
        for i, t in enumerate((0.0, 0.5)):
            for c, ref in zip(
                (L1[i], L2[i]), _quadrature_l_matrices(space, ops, b, params, t)
            ):
                got = ops.combine(c)
                assert np.max(np.abs(got.toarray() - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("dim,cells", [(1, 8)])  # 2D: no CSR step matrix exists
    def test_one_pattern_for_every_step_matrix(self, params, dim, cells):
        from movingbeam import BeamSystem, NewmarkConfig

        space = HermiteSpace(Mesh.uniform(dim, cells))
        ops = assemble_constant(space)
        system = BeamSystem(space, ops, MovingBoundary.b2(dim), params)
        cfg = NewmarkConfig(theta=0.25, dt=2.0**-5, n_steps=4)
        d = np.full(space.ndof, 0.01)
        _, L1, L2 = system.time_table(cfg)
        coefs = [L1[3], L2[3]]
        for eta in (0, 2):
            prob = step_problem(system, cfg, eta, d, d, d)
            terms = prob.residual(*state(ops, d))[1]
            coefs += [prob.c1, prob.c2, prob.c3, prob.jacobian_parts(terms)[0]]
        for M in [ops.K1, ops.K2, ops.Q, ops.P, *map(ops.combine, coefs)]:
            assert np.array_equal(M.indptr, ops.A.indptr)
            assert np.array_equal(M.indices, ops.A.indices)

    @pytest.mark.parametrize("dim,cells", [(1, 8), (2, 3), (2, 4), (2, 16)])
    def test_products_match_combined_matrices(self, dim, cells, rng):
        space = HermiteSpace(Mesh.uniform(dim, cells))
        ops, csr = assemble_constant(space), free_operators(space)
        x = rng.standard_normal(space.ndof)
        mixed = rng.standard_normal(5)
        assert np.all(mixed != 0.0)
        for c in (*np.eye(5), mixed):
            ref = csr.combine(c) @ x
            assert np.max(np.abs(c @ ops.products(x) - ref)) <= 1e-14 * np.max(np.abs(ref))
            if dim == 2:  # S(c) in one pass on the grid of x, against the 2D assembly
                n = ops.axis.A.shape[0]
                got = ops.operator(c)(x.reshape(n, n))
                assert got.shape == (n, n)
                assert np.max(np.abs(got.ravel() - ref)) <= 1e-14 * np.max(np.abs(ref))
        # the stacked matrix (of the axis in 2D) reads the operators' data in place
        held = ops if dim == 1 else ops.axis
        assert np.shares_memory(held.stacked.data, held.stack)

    @pytest.mark.parametrize("dim,cells", [(1, 8), (1, 128), (2, 8), (2, 32)])
    def test_products_equal_the_stacked_product(self, dim, cells, rng):
        # products runs the CSR kernel of stacked @ x on its arrays: the same sum
        ops = assemble_constant(HermiteSpace(Mesh.uniform(dim, cells)))
        held = ops if dim == 1 else ops.axis
        x = rng.standard_normal(held.A.shape[0])
        assert np.array_equal(held.products(x), (held.stacked @ x).reshape(5, -1))
        with pytest.raises(ValueError, match="entries"):  # the kernel would read past x
            held.products(x[:-1])
        if dim == 2:  # grid_products runs the kernels of stacked @ X^T and _left @ XC
            n = held.A.shape[0]
            X = rng.standard_normal((n, n))
            XC = (held.stacked @ X.T).reshape(-1, n, n).swapaxes(1, 2).reshape(-1, n)
            assert np.array_equal(ops.grid_products(X), (ops._left @ XC).reshape(-1, n, n))
            for bad in (X[:-1], X[:, :-1], X.ravel()):  # the kernel would read past X
                with pytest.raises(ValueError, match="grid"):
                    ops.grid_products(bad)
                with pytest.raises(ValueError, match="grid"):
                    ops.operator(np.ones(5))(bad)

    @pytest.mark.parametrize("cells", [3, 8, 32])
    def test_left_factors_are_the_block_matrix_without_zeros(self, cells, rng):
        # _left holds the blocks that sp.bmat builds from the axis' CSR matrices,
        # less every zero: the entries that cancel in Q - P and -A - 2P (which the
        # sparse sums drop too) and the explicit zeros of the axis' pattern.  A
        # product with a zero adds +-0 to a row sum that starts at +0, which moves
        # no bit: the CSR kernel gives the same bytes with or without them
        ops = assemble_constant(HermiteSpace(Mesh.uniform(2, cells)))
        A, S, B, Q, P = (getattr(ops.axis, name) for name in AssembledOperators.BASIS)
        ref = sp.bmat([[A, None, None, None, None], [S, A, None, None, None],
                       [B, 2.0 * S, A, None, None], [Q - P, None, None, A, -A - 2.0 * P],
                       [P, None, None, None, A]], format="csr")
        left, n = ops._left, A.shape[0]
        XC = rng.standard_normal((5 * n, n))
        assert (left @ XC).tobytes() == (ref @ XC).tobytes()
        assert left.has_canonical_format and np.all(left.data != 0.0) and left.nnz <= ref.nnz
        ref.eliminate_zeros()
        assert np.array_equal(left.indptr, ref.indptr)
        assert np.array_equal(left.indices, ref.indices)
        assert left.data.tobytes() == ref.data.tobytes()

    @pytest.mark.parametrize("cells", [3, 8])
    def test_2d_error_forms_are_the_quadratic_forms(self, cells, rng):
        # e^T A e and e^T K2 e of each column, from rows of the axis cut once
        space = HermiteSpace(Mesh(2, cells))
        ops, csr = assemble_constant(space), free_operators(space)
        E = rng.standard_normal((space.ndof, 3))
        got = ops.error_forms(E)
        for row, M in zip(got, (csr.A, csr.K2)):
            ref = np.einsum("im,im->m", E, M @ E)
            assert np.max(np.abs(row - ref)) <= 1e-13 * np.max(np.abs(ref))
        rows = ops._symmetric_rows
        assert np.array_equal(ops.error_forms(E), got) and ops._symmetric_rows is rows

    @pytest.mark.parametrize("dim,cells", [(1, 8), (1, 128)])  # 2D solves form no band
    def test_band_matches_combined_matrix(self, dim, cells, rng):
        # LAPACK general-band storage with kl = ku = bw: ab[2 bw + i - j, j] = S[i, j]
        ops = assemble_constant(HermiteSpace(Mesh.uniform(dim, cells)))
        bw, n = ops.bandwidth, ops.A.shape[0]
        for c in (np.eye(5)[2], rng.standard_normal(5)):
            S, ab = ops.combine(c).toarray(), ops.band(c)
            assert ab.shape == (3 * bw + 1, n) and ab.flags.f_contiguous
            ref = np.zeros_like(ab)
            for k in range(-bw, bw + 1):  # S[i, i + k] for each diagonal k
                i = np.arange(max(0, -k), min(n, n - k))
                ref[2 * bw - k, i + k] = S[i, i + k]
            assert np.array_equal(ab, ref)
            # the band holds all of S: nothing lies outside it
            assert np.array_equal(np.triu(np.tril(S, bw), -bw), S)

    @pytest.mark.parametrize("dim,cells", [(1, 8), (2, 4)])
    def test_advance_never_assembles_per_step(self, dim, cells, params, monkeypatch):
        # every quadrature of the package goes through _elem_integrals (matrices),
        # assemble_load (vectors) or HermiteSpace.scatter; none may run in the march
        import sys

        from movingbeam import BeamSystem, NewmarkConfig, advance, fem

        def boom(*args, **kwargs):
            raise AssertionError("per-step quadrature assembly")

        case = ManufacturedCase.standard("S1", dim)
        space = HermiteSpace(Mesh.uniform(dim, cells))
        system = BeamSystem(space, assemble_constant(space), MovingBoundary.b2(dim), params)
        d0 = interpolate_initial(space, case.initial_displacement())
        nloc = space.element_dofs.shape[1]
        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] == "movingbeam":
                for attr, value in list(vars(mod).items()):
                    if value is fem._elem_integrals or value is assemble_load:
                        monkeypatch.setattr(mod, attr, boom)
        monkeypatch.setattr(HermiteSpace, "scatter", boom)
        # the guards are live: set-up, which integrates, trips each of them
        for integrates in (lambda: fem.assemble_constant(space),
                           lambda: fem.assemble_load(space, lambda y, t: 0 * y[:, 0], 0.0),
                           lambda: space.scatter(np.zeros((space.mesh.ncells, nloc, nloc)))):
            with pytest.raises(AssertionError, match="per-step quadrature"):
                integrates()
        traj = advance(system, NewmarkConfig(dt=2.0**-5, n_steps=4), d0, 0.0 * d0)
        assert traj.completed


class TestLoad:
    def test_zero_source(self, space_1d_coarse):
        F = assemble_load(space_1d_coarse, lambda pts, t: np.zeros(len(pts)), 0.0)
        assert np.all(F == 0.0)

    def test_constant_source_partition(self):
        # sum over free value DOFs of (1, phi_l) is |box| minus the two
        # boundary value-shape integrals (h/2 each)
        space = HermiteSpace(Mesh.uniform(1, 8))
        h = space.mesh.h[0]
        F = assemble_load(space, lambda pts, t: np.ones(len(pts)), 0.0)
        full = np.zeros(space.ndof_full)
        full[space.free_dofs] = F
        total = full[0::2].sum()
        assert total == pytest.approx(2.0 - h, rel=1e-13)

    def test_basis_function_source_gives_mass_column(self, space_1d_coarse, rng):
        ops = assemble_constant(space_1d_coarse)
        m = 3
        em = np.zeros(space_1d_coarse.ndof)
        em[m] = 1.0
        f = lambda pts, t: space_1d_coarse.eval_points(em, pts)
        F = assemble_load(space_1d_coarse, f, 0.0, nq=8)
        np.testing.assert_allclose(F, ops.A.toarray()[:, m], rtol=1e-12, atol=1e-16)

    def test_non_finite_source_rejected(self, space_1d_coarse):
        def bad(pts, t):
            v = np.ones(len(pts))
            v[0] = np.inf
            return v

        with pytest.raises(ValueError, match="non-finite"):
            assemble_load(space_1d_coarse, bad, 0.0)


class TestInterpolation:
    def test_space_member_reproduced(self, space_1d_coarse, rng):
        d_ref = rng.standard_normal(space_1d_coarse.ndof)
        full = space_1d_coarse.expand(d_ref)

        def derivs(pts, mi):
            d = {(0,): 0, (1,): 1}[tuple(mi)]
            nodes = space_1d_coarse.mesh.node_coords()[:, 0]
            idx = np.searchsorted(nodes, np.atleast_2d(pts)[:, 0])
            return full[2 * idx + d]

        d_new = interpolate_initial(space_1d_coarse, derivs)
        np.testing.assert_array_equal(d_new, d_ref)

    def test_s1_nodal_values(self, s1_1d):
        space = HermiteSpace(Mesh.uniform(1, 4))
        d0 = interpolate_initial(space, s1_1d.initial_displacement())
        full = space.expand(d0)
        # node y=0 is the middle node: value 0.1, derivative 0
        mid = space.mesh.cells // 2
        assert full[2 * mid] == pytest.approx(0.1)
        assert full[2 * mid + 1] == 0.0

    def test_zero_velocity_datum(self, s1_1d, space_1d_coarse):
        d1 = interpolate_initial(space_1d_coarse, s1_1d.initial_velocity())
        assert np.all(d1 == 0.0)  # cos factor: v_t(., 0) = 0

    def test_l2_projection_mode(self, s1_1d):
        # projection solves A d = (v, phi); for the quartic datum it agrees
        # with nodal interpolation to interpolation-error accuracy and its
        # own L2 error is no larger
        space = HermiteSpace(Mesh.uniform(1, 16))
        ops = assemble_constant(space)
        d_i = interpolate_initial(space, s1_1d.initial_displacement())
        d_p = project_initial(
            space, ops, lambda pts, t: s1_1d.eval(pts, 0.0), nq=8
        )
        tab = space.basis_tables(8)
        ve = s1_1d.eval(tab["points"].reshape(-1, 1), 0.0)

        def l2err(d):
            vh = space.eval_at_quad(d, 8, "N").ravel()
            return np.sqrt(np.sum((vh - ve) ** 2 * np.tile(tab["w"], space.mesh.ncells)))

        assert l2err(d_p) <= l2err(d_i) * 1.0001
        assert np.max(np.abs(d_p - d_i)) < 1e-4

    def test_quartic_interpolation_error_order(self, s1_1d):
        # L2 interpolation error of the quartic datum decays like h^4
        errs = []
        for cells in (8, 16):
            space = HermiteSpace(Mesh.uniform(1, cells))
            d = interpolate_initial(space, s1_1d.initial_displacement())
            tab = space.basis_tables(8)
            vh = space.eval_at_quad(d, 8, "N")
            ve = s1_1d.eval(tab["points"].reshape(-1, 1), 0.0).reshape(vh.shape)
            errs.append(np.sqrt(np.sum((vh - ve) ** 2 * tab["w"][None, :])))
        assert errs[0] / errs[1] > 12.0


class TestBlockEvaluation:
    @pytest.mark.parametrize("dim,cells", [(1, 8), (2, 4)])
    def test_stack_rows_equal_single_states(self, dim, cells, rng):
        space = HermiteSpace(Mesh.uniform(dim, cells))
        stack = rng.standard_normal((5, space.ndof))
        for deriv in ["N", "lap"] + [f"grad{i}" for i in range(dim)]:
            rows = space.eval_at_quad(stack, 8, deriv)
            single = [space.eval_at_quad(d, 8, deriv) for d in stack]
            assert rows.shape == (5, space.mesh.ncells, 8 ** dim) == (5,) + single[0].shape
            scale = np.max(np.abs(rows))
            np.testing.assert_allclose(rows, single, rtol=0.0, atol=1e-14 * scale)

    @pytest.mark.parametrize("dim,cells,nq", [(1, 64, 8), (2, 8, 8), (2, 32, 8), (1, 8, 3)])
    def test_state_blocks_cover_the_states(self, dim, cells, nq):
        space = HermiteSpace(Mesh.uniform(dim, cells))
        per_state = space.mesh.ncells * nq ** dim
        for count in (1, 3, 300):
            blocks = space.state_blocks(count, nq)
            assert [lo for lo, _ in blocks] == [0] + [hi for _, hi in blocks[:-1]]
            assert blocks[-1][1] == count
            # each block holds at most _BLOCK_VALUES values per field, or one
            # state; every block but the last is full
            assert all(hi > lo and (hi - lo == 1 or (hi - lo) * per_state <= _BLOCK_VALUES)
                       for lo, hi in blocks)
            assert all((hi - lo + 1) * per_state > _BLOCK_VALUES for lo, hi in blocks[:-1])


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("method", ["eval_at_quad", "eval_points"])
@pytest.mark.parametrize("deriv", ["grad", "gradx", "grad{dim}", "grad-0", "lapl", "n", ""])
def test_unknown_selector_is_refused(dim, method, deriv):
    # both evaluators parse "N", "lap" and "grad<i>" (i < dim) alike
    space = HermiteSpace(Mesh.uniform(dim, 2))
    evaluate = {"eval_at_quad": lambda sel: space.eval_at_quad(np.zeros(space.ndof), 3, sel),
                "eval_points": lambda sel: space.eval_points(np.zeros(space.ndof),
                                                             np.zeros((1, dim)), sel)}[method]
    with pytest.raises(ValueError, match="unknown derivative selector"):
        evaluate(deriv.format(dim=dim))


class TestConformity:
    def test_c1_across_interfaces_1d(self, space_1d_coarse, rng):
        d = rng.standard_normal(space_1d_coarse.ndof)
        nodes = space_1d_coarse.mesh.node_coords()[1:-1, 0]
        eps = 1e-9
        for y in nodes:
            for deriv in ("N", "grad0"):
                left = space_1d_coarse.eval_points(d, [[y - eps]], deriv)[0]
                right = space_1d_coarse.eval_points(d, [[y + eps]], deriv)[0]
                assert abs(left - right) < 1e-6  # continuity up to eps*|v''|

    def test_c1_across_interfaces_2d_exact(self, space_2d_coarse, rng):
        # evaluate on the shared facet from both neighbour cells at quad points
        d = rng.standard_normal(space_2d_coarse.ndof)
        full = space_2d_coarse.expand(d)
        mesh = space_2d_coarse.mesh
        hx, hy = mesh.h
        from movingbeam.hermite import shape_eval

        sq = np.linspace(0.05, 0.95, 7)
        for ex in (0, 1):  # facet between cell (ex, ey) and (ex+1, ey)
            ey = 1
            cl = ey * mesh.cells_per_axis[0] + ex
            cr = ey * mesh.cells_per_axis[0] + ex + 1
            dl = full[space_2d_coarse.element_dofs[cl]]
            dr = full[space_2d_coarse.element_dofs[cr]]
            tl = shape_eval(np.column_stack([np.ones_like(sq), sq]), (hx, hy))
            tr = shape_eval(np.column_stack([np.zeros_like(sq), sq]), (hx, hy))
            for key in ((0, 0), (1, 0), (0, 1)):
                jump = np.max(np.abs(tl(key) @ dl - tr(key) @ dr))
                assert jump < 1e-12 * max(1.0, np.max(np.abs(tl(key) @ dl)))


class TestMeshValidation:
    def test_bad_dim(self):
        with pytest.raises(ValueError):
            Mesh(3, 2)

    def test_no_cells(self):
        with pytest.raises(ValueError):
            Mesh(1, 0)

    def test_h_property(self):
        m = Mesh.uniform(2, 8)
        assert m.h == (0.25, 0.25)
        assert m.node_coords().shape == (81, 2)
