import numpy as np
import pytest

from mgnet import autodiff as ad
from mgnet.autodiff import Node, Parameter, Tape, backward, value
from mgnet.grid_transfer import ProlongationMode, prolongate
from mgnet.tensor_core import ContractViolation, ConvKernel, PaddingMode


def numeric_grad(loss_fn, param, h=1e-6):
    """Plain central differences over every entry of `param`."""
    grad = np.zeros_like(param.data)
    it = np.nditer(param.data, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        original = param.data[idx]
        param.data[idx] = original + h
        up = loss_fn()
        param.data[idx] = original - h
        down = loss_fn()
        param.data[idx] = original
        grad[idx] = (up - down) / (2.0 * h)
    return grad


def analytic_grads(build):
    with Tape() as tape:
        loss = build()
    return backward(tape, loss)


def check_param(build, param, rtol=1e-6):
    g = analytic_grads(build)[param.name]
    fd = numeric_grad(lambda: float(value(build())), param)
    np.testing.assert_allclose(g, fd, rtol=rtol, atol=1e-8)


class TestBasics:
    def test_relu_subgradient(self):
        p = Parameter("p", np.array([-1.0, 0.0, 2.0]))
        with Tape() as tape:
            loss = ad.mean_all(ad.mul(ad.relu(p), 3.0))  # sum of rectified entries
        g = backward(tape, loss)["p"]
        # derivative is 0 at -1, 0 at the kink (subgradient choice), 1 at 2
        np.testing.assert_array_equal(g, [0.0, 0.0, 1.0])

    def test_fused_softmax_cross_entropy_gradient(self):
        z = Parameter("z", np.zeros(4))
        y = np.array([1.0, 0.0, 0.0, 0.0])
        with Tape() as tape:
            loss = ad.softmax_cross_entropy(z, y)
        g = backward(tape, loss)["z"]
        np.testing.assert_allclose(g, [0.25 - 1.0, 0.25, 0.25, 0.25], atol=1e-14)

    def test_disconnected_parameter_gets_zeros(self):
        z = Parameter("z", np.zeros(3))
        unused = Parameter("unused", np.ones(4))
        with Tape() as tape:
            _ = unused * 2.0
            loss = ad.softmax_cross_entropy(z, np.array([1.0, 0.0, 0.0]))
        g = backward(tape, loss)
        np.testing.assert_array_equal(g["unused"], np.zeros(4))

    def test_backward_requires_scalar_traced_loss(self):
        z = Parameter("z", np.zeros(3))
        with Tape() as tape:
            out = z + 1.0
        with pytest.raises(ContractViolation):
            backward(tape, out)
        with pytest.raises(ContractViolation):
            backward(tape, np.float64(1.0))

    def test_plain_mode_returns_arrays(self, rng):
        p = Parameter("p", rng.standard_normal((3, 3)))
        out = ad.relu(p + 1.0)
        assert isinstance(out, np.ndarray)


class TestGradientsAgainstFiniteDifferences:
    @pytest.mark.parametrize("mode", list(PaddingMode))
    def test_conv_kernel_grad_of_mean_square(self, rng, mode):
        # mean of squared conv outputs, differenced at step 1e-5
        x = rng.standard_normal((6, 6, 2))
        w = Parameter("w", 0.4 * rng.standard_normal((3, 3, 3, 2)))
        b = Parameter("b", 0.1 * rng.standard_normal(3))

        def build():
            out = ad.conv2d(x, ConvKernel(w, b), 1, mode)
            return ad.mean_all(ad.mul(out, out))

        with Tape() as tape:
            loss = build()
        grads = backward(tape, loss)
        h = 1e-5
        for p in (w, b):
            fd = numeric_grad(lambda: float(value(build())), p, h=h)
            denom = np.maximum(np.abs(fd) + np.abs(grads[p.name]), 1e-8)
            assert (np.abs(fd - grads[p.name]) / denom).max() < 1e-6

    # tiny and odd grids, and a 5x5 kernel on a 2x3 grid: halos wider than the grid
    @pytest.mark.parametrize("m,n,kk", [(6, 6, 3), (1, 1, 3), (1, 4, 3), (2, 3, 3), (2, 3, 5)])
    @pytest.mark.parametrize("mode", list(PaddingMode))
    @pytest.mark.parametrize("stride", [1, 2, 3])
    def test_conv_weights_bias_input(self, rng, mode, stride, m, n, kk):
        x = Parameter("x", rng.standard_normal((m, n, 2)))
        w = Parameter("w", 0.4 * rng.standard_normal((kk, kk, 3, 2)))
        b = Parameter("b", 0.1 * rng.standard_normal(3))
        probe = rng.standard_normal(3)

        def build():
            out = ad.conv2d(x, ConvKernel(w, b), stride, mode)
            return ad.softmax_cross_entropy(ad.mul(ad.spatial_mean(out), probe),
                                            np.array([1.0, 0.0, 0.0]))

        for p in (w, b, x):
            check_param(build, p)

    def test_max_pool(self, rng):
        x = Parameter("x", rng.standard_normal((7, 7, 2)))

        def build():
            return ad.softmax_cross_entropy(ad.spatial_mean(ad.max_pool(x, 1, 2)),
                                            np.array([1.0, 0.0]))

        check_param(build, x)

    def test_max_pool_tie_goes_to_first_tap(self, rng):
        # on a constant positive input every in-range tap ties; zero padding
        # loses, so each window's gradient lands once, on its first in-range
        # tap in row-major order
        x = Parameter("x", np.full((7, 6, 2), 1.5))
        probe = rng.standard_normal((4, 3, 2))
        grad = analytic_grads(lambda: ad.mean_all(ad.mul(ad.max_pool(x, 1, 2), probe)))["x"]
        want = np.zeros_like(x.data)
        for i in range(4):
            for j in range(3):
                want[max(2 * i - 1, 0), max(2 * j - 1, 0)] += probe[i, j] * (1.0 / probe.size)
        np.testing.assert_array_equal(grad, want)

    @pytest.mark.parametrize("stride", [0, -1])
    def test_bad_stride_raises(self, rng, stride):
        x = rng.standard_normal((5, 5, 1))
        with pytest.raises(ContractViolation):
            ad.conv2d(x, ConvKernel.identity(1), stride)
        with pytest.raises(ContractViolation):
            ad.max_pool(x, 1, stride)

    def test_batchnorm(self, rng):
        x = Parameter("x", rng.standard_normal((4, 5, 5, 3)))
        gamma = Parameter("gamma", 1.0 + 0.2 * rng.standard_normal(3))
        beta = Parameter("beta", 0.2 * rng.standard_normal(3))

        def build():
            out = ad.batchnorm(x, gamma, beta)
            flat = ad.spatial_mean(out)
            return ad.softmax_cross_entropy(flat, np.eye(3)[np.zeros(4, dtype=int)])

        for p in (gamma, beta, x):
            check_param(build, p, rtol=1e-5)

    def test_affine(self, rng):
        x = Parameter("x", rng.standard_normal((4, 5)))
        w = Parameter("w", rng.standard_normal((5, 3)))
        b = Parameter("b", rng.standard_normal(3))

        def build():
            return ad.softmax_cross_entropy(ad.affine(x, w, b),
                                            np.eye(3)[[0, 1, 2, 0]])

        for p in (w, b, x):
            check_param(build, p)

    def test_softmax_vector_and_index(self, rng):
        v = Parameter("v", rng.standard_normal(4))

        def build():
            p = ad.softmax_vector(v)
            picked = ad.mul(ad.vector_index(p, 1), np.ones(2))
            return ad.softmax_cross_entropy(picked, np.array([1.0, 0.0]))

        check_param(build, v)

    def test_nodal_prolongate(self, rng):
        x = Parameter("x", rng.standard_normal((4, 4, 2)))
        probe = rng.standard_normal(2)

        def build():
            fine = ad.nodal_prolongate(x, ProlongationMode.BILINEAR)
            return ad.softmax_cross_entropy(ad.mul(ad.spatial_mean(fine), probe),
                                            np.array([1.0, 0.0]))

        check_param(build, x)
        # forward agrees with the plain operator
        np.testing.assert_array_equal(
            value(ad.nodal_prolongate(x, ProlongationMode.LINEAR)),
            prolongate(x.data, ProlongationMode.LINEAR))

    def test_broadcast_add_mul(self, rng):
        a = Parameter("a", rng.standard_normal((1, 4)))
        b = Parameter("b", rng.standard_normal((3, 1)))

        def build():
            mixed = ad.add(ad.mul(a, b), 0.5)
            return ad.softmax_cross_entropy(ad.mul(mixed, np.ones((3, 4))),
                                            np.eye(4)[[0, 1, 2]])

        for p in (a, b):
            check_param(build, p)


class TestNodeArithmetic:
    def test_operators_dispatch(self, rng):
        p = Parameter("p", rng.standard_normal((2, 2)))
        with Tape():
            q = 1.0 + p
            r = q - np.ones((2, 2))
            s = -r
            t = s * 2.0
            assert isinstance(t, Node)
            np.testing.assert_allclose(value(t), -2.0 * p.data, atol=1e-15)

    def test_numpy_defers_to_node(self, rng):
        p = Parameter("p", np.ones((2, 2)))
        with Tape():
            out = np.ones((2, 2)) + p  # ndarray.__add__ must defer to Node.__radd__
            assert isinstance(out, Node)
