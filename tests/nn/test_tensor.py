"""Gradient-correctness tests for the autodiff engine.

Every differentiable op is verified against central finite differences.
"""

import numpy as np
import pytest

from repro.errors import GradientError, ShapeError
from repro.nn.tensor import Tensor, concat, is_grad_enabled, no_grad, stack

RNG = np.random.default_rng(1234)
EPS = 1e-6
TOL = 1e-5


def numerical_grad(fn, x: np.ndarray) -> np.ndarray:
    """Central finite-difference gradient of scalar ``fn`` at ``x``."""
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + EPS
        plus = fn(x)
        flat[i] = orig - EPS
        minus = fn(x)
        flat[i] = orig
        grad_flat[i] = (plus - minus) / (2 * EPS)
    return grad


def check_op(op, shape=(3, 4), positive=False):
    """Assert analytic gradient of ``sum(op(x))`` matches numeric."""
    base = RNG.standard_normal(shape)
    if positive:
        base = np.abs(base) + 0.5
    x = Tensor(base.copy(), requires_grad=True)
    out = op(x)
    loss = out.sum()
    loss.backward()

    def scalar_fn(arr):
        return op(Tensor(arr)).sum().item()

    expected = numerical_grad(scalar_fn, base.copy())
    np.testing.assert_allclose(x.grad, expected, atol=TOL, rtol=TOL)


class TestElementwiseGrads:
    def test_add(self):
        check_op(lambda x: x + 2.5)

    def test_add_tensor(self):
        other = Tensor(RNG.standard_normal((3, 4)))
        check_op(lambda x: x + other)

    def test_add_broadcast(self):
        other = Tensor(RNG.standard_normal((4,)))
        check_op(lambda x: x + other)

    def test_neg(self):
        check_op(lambda x: -x)

    def test_sub(self):
        check_op(lambda x: x - 1.5)

    def test_rsub(self):
        check_op(lambda x: 1.5 - x)

    def test_mul(self):
        other = Tensor(RNG.standard_normal((3, 4)))
        check_op(lambda x: x * other)

    def test_mul_broadcast_scalar(self):
        check_op(lambda x: x * 3.0)

    def test_div(self):
        other = Tensor(np.abs(RNG.standard_normal((3, 4))) + 1.0)
        check_op(lambda x: x / other)

    def test_rdiv(self):
        check_op(lambda x: 2.0 / x, positive=True)

    def test_pow(self):
        check_op(lambda x: x ** 3)

    def test_pow_fractional(self):
        check_op(lambda x: x ** 0.5, positive=True)

    def test_exp(self):
        check_op(lambda x: x.exp())

    def test_log(self):
        check_op(lambda x: x.log(), positive=True)

    def test_tanh(self):
        check_op(lambda x: x.tanh())

    def test_sigmoid(self):
        check_op(lambda x: x.sigmoid())

    def test_relu(self):
        # Shift away from 0 to avoid the kink in the numeric check.
        check_op(lambda x: (x + 0.3).relu())


class TestMatmulGrads:
    def test_matmul_2d(self):
        other = Tensor(RNG.standard_normal((4, 5)))
        check_op(lambda x: x @ other)

    def test_matmul_grad_wrt_rhs(self):
        a = RNG.standard_normal((3, 4))
        b = RNG.standard_normal((4, 5))
        bt = Tensor(b.copy(), requires_grad=True)
        (Tensor(a) @ bt).sum().backward()
        expected = numerical_grad(lambda arr: (Tensor(a) @ Tensor(arr)).sum().item(), b.copy())
        np.testing.assert_allclose(bt.grad, expected, atol=TOL)

    def test_vec_mat(self):
        other = Tensor(RNG.standard_normal((4, 5)))
        check_op(lambda x: x @ other, shape=(4,))

    def test_mat_vec(self):
        vec = Tensor(RNG.standard_normal((4,)))
        check_op(lambda x: x @ vec)

    def test_vec_vec(self):
        vec = Tensor(RNG.standard_normal((4,)))
        check_op(lambda x: (x @ vec).reshape(1), shape=(4,))


class TestReductionsAndShapes:
    def test_sum_all(self):
        check_op(lambda x: x.sum().reshape(1))

    def test_sum_axis(self):
        check_op(lambda x: x.sum(axis=0))

    def test_sum_keepdims(self):
        check_op(lambda x: x.sum(axis=1, keepdims=True))

    def test_mean(self):
        check_op(lambda x: x.mean(axis=1))

    def test_max(self):
        check_op(lambda x: x.max(axis=1))

    def test_reshape(self):
        check_op(lambda x: x.reshape(4, 3))

    def test_transpose(self):
        check_op(lambda x: x.T)

    def test_getitem_slice(self):
        check_op(lambda x: x[1:, :2])

    def test_getitem_int_rows(self):
        check_op(lambda x: x[np.array([0, 2, 2])])

    def test_take_rows_repeats_accumulate(self):
        table = Tensor(RNG.standard_normal((5, 3)), requires_grad=True)
        out = table.take_rows([1, 1, 4])
        out.sum().backward()
        assert table.grad[1, 0] == pytest.approx(2.0)
        assert table.grad[4, 0] == pytest.approx(1.0)
        assert table.grad[0, 0] == pytest.approx(0.0)

    def test_concat(self):
        other = Tensor(RNG.standard_normal((3, 2)))
        check_op(lambda x: concat([x, other], axis=1))

    def test_concat_axis0(self):
        other = Tensor(RNG.standard_normal((2, 4)))
        check_op(lambda x: concat([other, x], axis=0))

    def test_stack(self):
        other = Tensor(RNG.standard_normal((3, 4)))
        check_op(lambda x: stack([x, other], axis=0))


class TestGraphMechanics:
    def test_grad_accumulates_across_uses(self):
        x = Tensor([2.0], requires_grad=True)
        y = x * 3.0 + x * 4.0
        y.backward()
        assert x.grad[0] == pytest.approx(7.0)

    def test_diamond_graph(self):
        x = Tensor([1.5], requires_grad=True)
        a = x * 2.0
        b = a + a  # diamond: a used twice
        b.sum().backward()
        assert x.grad[0] == pytest.approx(4.0)

    def test_deep_chain(self):
        x = Tensor([1.0], requires_grad=True)
        y = x
        for _ in range(200):
            y = y * 1.01
        y.backward()
        assert x.grad[0] == pytest.approx(1.01 ** 200, rel=1e-9)

    def test_backward_twice_accumulates(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2.0).backward()
        (x * 2.0).backward()
        assert x.grad[0] == pytest.approx(4.0)

    def test_detach_blocks_gradient(self):
        x = Tensor([1.0], requires_grad=True)
        y = (x * 2.0).detach() * 3.0
        assert not y.requires_grad

    def test_no_grad_context(self):
        x = Tensor([1.0], requires_grad=True)
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
            y = x * 2.0
            assert not y.requires_grad
        assert is_grad_enabled()

    def test_backward_nonscalar_requires_grad_arg(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(GradientError):
            (x * 2).backward()

    def test_backward_without_requires_grad_raises(self):
        x = Tensor([1.0])
        with pytest.raises(GradientError):
            x.backward()

    def test_backward_bad_grad_shape(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = x * 2
        with pytest.raises(ShapeError):
            y.backward(np.ones(4))

    def test_explicit_grad_seed(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = x * 2
        y.backward(np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(x.grad, [2.0, 4.0, 6.0])

    def test_item_on_vector_raises(self):
        with pytest.raises(ShapeError):
            Tensor(np.ones(3)).item()

    def test_zero_grad(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2).backward()
        x.zero_grad()
        assert x.grad is None

    def test_concat_empty_raises(self):
        with pytest.raises(ShapeError):
            concat([])

    def test_stack_empty_raises(self):
        with pytest.raises(ShapeError):
            stack([])

    def test_repr(self):
        assert "requires_grad" in repr(Tensor([1.0], requires_grad=True))

    def test_len(self):
        assert len(Tensor(np.zeros((4, 2)))) == 4
