"""Reference-cell shape functions: interpolation properties and symbolic oracle."""
import numpy as np
import pytest

from movingbeam.hermite import shape_eval, shape_eval_1d


class TestShape1D:
    def test_kronecker_value_shapes(self):
        h = 0.37
        N, dN, _ = shape_eval_1d([0.0, 1.0], h)
        # value shape of the left node: 1 at s=0, 0 at s=1
        assert N[0, 0] == 1.0 and N[1, 0] == 0.0
        assert N[0, 2] == 0.0 and N[1, 2] == 1.0
        # value shapes have zero slope at both nodes
        assert dN[0, 0] == 0.0 and dN[1, 0] == 0.0

    def test_derivative_shape_unit_slope_after_scaling(self):
        h = 0.25
        N, dN, _ = shape_eval_1d([0.0, 1.0], h)
        assert N[0, 1] == 0.0 and N[1, 1] == 0.0
        assert dN[0, 1] == pytest.approx(1.0) and dN[1, 1] == pytest.approx(0.0)
        assert dN[1, 3] == pytest.approx(1.0) and dN[0, 3] == pytest.approx(0.0)

    def test_value_partition_of_unity(self, rng):
        s = rng.uniform(0.0, 1.0, size=50)
        N, _, _ = shape_eval_1d(s, 0.8)
        assert np.max(np.abs(N[:, 0] + N[:, 2] - 1.0)) < 1e-14

    def test_out_of_cell_rejected(self):
        with pytest.raises(ValueError):
            shape_eval_1d([1.5], 1.0)

    def test_symbolic_oracle(self):
        sympy = pytest.importorskip("sympy")
        s, h = sympy.symbols("s h", positive=True)
        basis = [
            2 * s**3 - 3 * s**2 + 1,
            h * (s**3 - 2 * s**2 + s),
            -2 * s**3 + 3 * s**2,
            h * (s**3 - s**2),
        ]
        hv = 0.61
        pts = [0.11, 0.5, 0.93]
        N, dN, ddN = shape_eval_1d(pts, hv)
        for a, expr in enumerate(basis):
            for i, p in enumerate(pts):
                subs = {s: p, h: hv}
                assert N[i, a] == pytest.approx(float(expr.subs(subs)), rel=1e-14)
                d1 = sympy.diff(expr, s) / h
                assert dN[i, a] == pytest.approx(float(d1.subs(subs)), rel=1e-13)
                d2 = sympy.diff(expr, s, 2) / h**2
                assert ddN[i, a] == pytest.approx(float(d2.subs(subs)), rel=1e-13)


class TestShape2D:
    def test_kronecker_at_corners(self):
        hx, hy = 0.5, 0.25
        corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        tab = shape_eval(corners, (hx, hy))
        # value DOF of corner c is local index 4c; it is 1 at its corner, 0 elsewhere
        for c in range(4):
            expected = np.zeros(4)
            expected[c] = 1.0
            np.testing.assert_allclose(tab((0, 0))[:, 4 * c], expected, atol=1e-14)
        # derivative DOFs carry unit physical derivative at their own corner
        for c in range(4):
            assert tab((1, 0))[c, 4 * c + 1] == pytest.approx(1.0)
            assert tab((0, 1))[c, 4 * c + 2] == pytest.approx(1.0)
            assert tab((1, 1))[c, 4 * c + 3] == pytest.approx(1.0)

    def test_bicubic_reproduction(self, rng):
        # nodal interpolation of a random bicubic must be exact inside the cell
        hx, hy = 0.75, 0.4
        coef = rng.standard_normal((4, 4))

        def p(x, y, dx=0, dy=0):
            out = 0.0
            for i in range(4):
                for j in range(4):
                    if i >= dx and j >= dy:
                        ci = np.prod(range(i - dx + 1, i + 1)) if dx else 1
                        cj = np.prod(range(j - dy + 1, j + 1)) if dy else 1
                        out = out + coef[i, j] * ci * cj * x ** (i - dx) * y ** (j - dy)
            return out

        dofs = []
        for cy in (0.0, hy):
            for cx in (0.0, hx):
                dofs += [p(cx, cy), p(cx, cy, 1, 0), p(cx, cy, 0, 1), p(cx, cy, 1, 1)]
        dofs = np.asarray(dofs)

        sx = rng.uniform(0, 1, 20)
        sy = rng.uniform(0, 1, 20)
        tab = shape_eval(np.column_stack([sx, sy]), (hx, hy))
        exact = np.array([p(x * hx, y * hy) for x, y in zip(sx, sy)])
        approx = tab((0, 0)) @ dofs
        np.testing.assert_allclose(approx, exact, rtol=1e-12, atol=1e-12)
        exact_dx = np.array([p(x * hx, y * hy, 1, 0) for x, y in zip(sx, sy)])
        np.testing.assert_allclose(tab((1, 0)) @ dofs, exact_dx, rtol=1e-11, atol=1e-11)

    def test_value_partition_of_unity(self, rng):
        sx = rng.uniform(0, 1, 30)
        sy = rng.uniform(0, 1, 30)
        N = shape_eval(np.column_stack([sx, sy]), (0.3, 0.9))((0, 0))
        total = sum(N[:, 4 * c] for c in range(4))
        np.testing.assert_allclose(total, 1.0, atol=1e-14)


def test_shape_eval_shapes():
    assert shape_eval([[0.5]], [0.5])((0,)).shape == (1, 4)
    assert shape_eval([[0.5, 0.5]], [0.5, 0.5])((0, 0)).shape == (1, 16)
    with pytest.raises(ValueError):
        shape_eval([[0.5, 0.5]], [0.5])


def test_shape_eval_1d_is_shape_eval_1d():
    # the tensor-product path in 1D is the 1D element, bit for bit
    s = np.concatenate([[0.0, 0.5, 1.0], np.random.default_rng(3).uniform(0.0, 1.0, 40)])
    table = shape_eval(s[:, None], (0.37,))
    for order, ref in enumerate(shape_eval_1d(s, 0.37)):
        out = table((order,))
        assert out.flags.c_contiguous
        assert out.tobytes() == ref.tobytes()
