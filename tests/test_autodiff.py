import itertools

import numpy as np
import pytest

from mgnet import autodiff as ad
from mgnet.autodiff import Node, Parameter, Tape, backward, value
from mgnet.data_io import gen_synthetic
from mgnet.mgnet_model import MgNetConfig, init_weights, mgnet_forward
from mgnet.tensor_core import (ContractViolation, ConvKernel, _conv_forward,
                               _conv_grad_weights, conv2d)

from conftest import identity_kernel, mean_all, reference_backward, traced_loss


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
            loss = mean_all(ad.mul(ad.relu(p), 3.0))  # sum of rectified entries
        g = backward(tape, loss)["p"]
        # derivative is 0 at -1, 0 at the kink (subgradient choice), 1 at 2
        np.testing.assert_array_equal(g, [0.0, 0.0, 1.0])

    def test_fused_softmax_cross_entropy_gradient(self):
        z = Parameter("z", np.zeros((1, 4)))
        y = np.array([[1.0, 0.0, 0.0, 0.0]])
        with Tape() as tape:
            loss = ad.softmax_cross_entropy(z, y)
        g = backward(tape, loss)["z"]
        np.testing.assert_allclose(g, [[0.25 - 1.0, 0.25, 0.25, 0.25]], atol=1e-14)

    def test_disconnected_parameter_gets_zeros(self):
        z = Parameter("z", np.zeros((1, 3)))
        unused = Parameter("unused", np.ones(4))
        with Tape() as tape:
            _ = unused * 2.0
            loss = ad.softmax_cross_entropy(z, np.array([[1.0, 0.0, 0.0]]))
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
    @pytest.mark.parametrize("batch", [(), (1,), (3,)], ids=["unbatched", "batch1", "batch3"])
    def test_conv_kernel_grad_of_mean_square(self, rng, batch):
        # mean of squared conv outputs, differenced at step 1e-5
        x = rng.standard_normal(batch + (6, 6, 2))
        w = Parameter("w", 0.4 * rng.standard_normal((3, 3, 3, 2)))
        b = Parameter("b", 0.1 * rng.standard_normal(3))
        if x.ndim == 3:  # a single image is refused bare and goes in as a batch of one
            with pytest.raises(ContractViolation, match=r"expected \(batch, h, w, c\)"):
                ad.conv2d(x, ConvKernel(w, b), 1)
            x = x[None]

        def build():
            out = ad.conv2d(x, ConvKernel(w, b), 1)
            return mean_all(ad.mul(out, out))

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
    @pytest.mark.parametrize("stride", [1, 2, 3])
    # channel-mixing, single-channel (the solver's transfers) and channel-reducing kernels
    @pytest.mark.parametrize("c_in,c_out", [(2, 3), (1, 1), (3, 2)])
    def test_conv_weights_bias_input(self, rng, c_in, c_out, stride, m, n, kk):
        x = Parameter("x", rng.standard_normal((1, m, n, c_in)))
        w = Parameter("w", 0.4 * rng.standard_normal((kk, kk, c_out, c_in)))
        b = Parameter("b", 0.1 * rng.standard_normal(c_out))
        # a fixed read-out to three classes keeps the loss non-constant at c_out = 1
        readout = rng.standard_normal((c_out, 3))

        def build():
            out = ad.conv2d(x, ConvKernel(w, b), stride)
            return ad.softmax_cross_entropy(ad.affine(ad.spatial_mean(out), readout, np.zeros(3)),
                                            np.array([[1.0, 0.0, 0.0]]))

        for p in (w, b, x):
            check_param(build, p)

    def test_max_pool(self, rng):
        x = Parameter("x", rng.standard_normal((1, 7, 7, 2)))

        def build():
            return ad.softmax_cross_entropy(ad.spatial_mean(ad.max_pool(x)),
                                            np.array([[1.0, 0.0]]))

        check_param(build, x)

    def test_max_pool_tie_goes_to_first_tap(self, rng):
        # on a constant positive input every in-range tap ties; zero padding
        # loses, so each window's gradient lands once, on its first in-range
        # tap in row-major order
        x = Parameter("x", np.full((1, 7, 6, 2), 1.5))
        probe = rng.standard_normal((1, 4, 3, 2))
        grad = analytic_grads(lambda: mean_all(ad.mul(ad.max_pool(x), probe)))["x"]
        want = np.zeros_like(x.data)
        for i in range(4):
            for j in range(3):
                want[0, max(2 * i - 1, 0), max(2 * j - 1, 0)] += (probe[0, i, j]
                                                                  * (1.0 / probe.size))
        np.testing.assert_array_equal(grad, want)

    @pytest.mark.parametrize("stride", [0, -1])
    def test_bad_stride_raises(self, rng, stride):
        x = rng.standard_normal((1, 5, 5, 1))
        with pytest.raises(ContractViolation):
            ad.conv2d(x, identity_kernel(1), stride)

    def test_channel_mismatch_raises(self, rng):
        x = Parameter("x", rng.standard_normal((1, 5, 5, 2)))
        with Tape(), pytest.raises(ContractViolation,
                                   match="input has 2 channels but kernel expects 1"):
            ad.conv2d(x, identity_kernel(1), 1)

    @pytest.mark.parametrize("shape", [(5, 5), (5, 5, 1), (1, 1, 5, 5, 1)],
                             ids=["rank2", "rank3", "rank5"])
    def test_bad_rank_raises(self, rng, shape):
        # (batch, h, w, c) is the one layout of the conv, pooling and network ops
        cfg = MgNetConfig(J=2, nu=(1, 1), c_u=2, c_f=2, in_channels=1, classes=2)
        ops = [lambda x: conv2d(x, identity_kernel(1), 1),
               lambda x: ad.conv2d(x, identity_kernel(1), 1),
               ad.max_pool,
               ad.spatial_mean,
               lambda x: mgnet_forward(x, cfg, init_weights(cfg))]
        x = rng.standard_normal(shape)
        for op in ops:
            with pytest.raises(ContractViolation, match=r"expected \(batch, h, w, c\), got"):
                op(x)
            op(x.reshape(1, 5, 5, 1))  # the same pixels as a batch of one pass

    def test_head_ops_take_rows(self, rng):
        # a feature vector must be a batch of one: x.T @ g of a 1-D x is a scalar
        x = Parameter("x", rng.standard_normal(3))
        with pytest.raises(ContractViolation, match=r"expected \(batch, features\)"):
            ad.affine(x, rng.standard_normal((3, 3)), np.zeros(3))
        with pytest.raises(ContractViolation, match=r"expected \(batch, features\)"):
            ad.softmax_cross_entropy(x, np.array([1.0, 0.0, 0.0]))

    def test_batchnorm(self, rng):
        x = Parameter("x", rng.standard_normal((4, 5, 5, 3)))
        gamma = Parameter("gamma", 1.0 + 0.2 * rng.standard_normal(3))
        beta = Parameter("beta", 0.2 * rng.standard_normal(3))

        def build():
            out, _, _ = ad.batchnorm(x, gamma, beta)
            flat = ad.spatial_mean(out)
            return ad.softmax_cross_entropy(flat, np.eye(3)[np.zeros(4, dtype=int)])

        for p in (gamma, beta, x):
            check_param(build, p, rtol=1e-5)

    def test_conv_of_zeros(self, rng):
        w = Parameter("w", 0.4 * rng.standard_normal((3, 3, 3, 2)))
        b = Parameter("b", 0.1 * rng.standard_normal(3))
        probe = rng.standard_normal((2, 4, 5, 3))
        zeros = np.broadcast_to(0.0, (2, 4, 5, 2))  # taken without convolving

        def build():
            out = ad.conv2d(zeros, ConvKernel(w, b))
            return mean_all(ad.mul(out, probe))

        grads = analytic_grads(build)
        np.testing.assert_array_equal(grads["w"], np.zeros_like(w.data))
        for p in (w, b):
            check_param(build, p)

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
            picked = ad.mul(ad.vector_index(p, 1), np.ones((1, 2)))
            return ad.softmax_cross_entropy(picked, np.array([[1.0, 0.0]]))

        check_param(build, v)

    def test_broadcast_add_mul(self, rng):
        a = Parameter("a", rng.standard_normal((1, 4)))
        b = Parameter("b", rng.standard_normal((3, 1)))

        def build():
            mixed = ad.add(ad.mul(a, b), 0.5)
            return ad.softmax_cross_entropy(ad.mul(mixed, np.ones((3, 4))),
                                            np.eye(4)[[0, 1, 2]])

        for p in (a, b):
            check_param(build, p)


def count_calls(monkeypatch, name):
    """A list that grows by one on every call of the conv kernel `ad.<name>`."""
    calls = []
    real = getattr(ad, name)
    monkeypatch.setattr(ad, name, lambda *a: calls.append(1) or real(*a))
    return calls


class TestConvAndBatchnormWork:
    def test_conv_of_zeros_matches_conv_bitwise(self, rng, monkeypatch):
        w = Parameter("w", rng.standard_normal((3, 3, 4, 2)))
        b = Parameter("b", rng.standard_normal(4))
        calls = count_calls(monkeypatch, "_conv_forward")
        for shape, stride in itertools.product(((1, 5, 6, 2), (3, 5, 6, 2)), (1, 2)):
            zeros = np.zeros(shape)
            with Tape() as tape:
                out = ad.conv2d(np.broadcast_to(0.0, shape), ConvKernel(w, b), stride)
            assert not calls
            assert set(tape.params) == {"w", "b"}
            assert out.data.tobytes() == _conv_forward(zeros, w.data, b.data, stride).tobytes()
            g = rng.standard_normal(out.shape)
            gx, gw, gb = out.vjp(g)
            assert gx is None
            assert gw.tobytes() == _conv_grad_weights(zeros, g, 1, stride).tobytes()
            assert gb.tobytes() == g.sum(axis=(0, 1, 2)).tobytes()

    @pytest.mark.parametrize("case", ["dense_zeros", "traced_zeros", "broadcast_nan"])
    def test_only_untraced_broadcast_zero_skips_the_conv(self, rng, monkeypatch, case):
        kern = ConvKernel(Parameter("w", rng.standard_normal((3, 3, 4, 2))),
                          Parameter("b", rng.standard_normal(4)))
        shape = (2, 5, 6, 2)
        x = {"dense_zeros": np.zeros(shape),
             "traced_zeros": Node(np.broadcast_to(0.0, shape)),
             "broadcast_nan": np.broadcast_to(np.nan, shape)}[case]
        calls = count_calls(monkeypatch, "_conv_forward")
        with Tape() as tape:
            out = ad.conv2d(x, kern)
            loss = mean_all(out)
        assert len(calls) == 1
        if case == "broadcast_nan":
            assert np.isnan(value(out)).all()
            return
        want = _conv_forward(np.zeros(shape), value(kern.weights), value(kern.bias), 1)
        assert value(out).tobytes() == want.tobytes()
        backward(tape, loss)
        if case == "traced_zeros":
            assert x.grad is not None and x.grad.shape == shape  # the grad-input still runs

    def test_conv_skips_grad_input_of_untraced_input(self, rng, monkeypatch):
        calls = count_calls(monkeypatch, "_conv_grad_input")
        w = Parameter("w", rng.standard_normal((3, 3, 2, 2)))
        b = Parameter("b", rng.standard_normal(2))
        x = rng.standard_normal((2, 5, 5, 2))
        with Tape() as tape:
            h = ad.conv2d(x, ConvKernel(w, b))  # the images: no input gradient
            loss = mean_all(ad.conv2d(h, ConvKernel(w, b)))
        backward(tape, loss)
        assert len(calls) == 1

    @pytest.mark.parametrize("shape", [(4, 5, 5, 3), (32, 16, 16, 16), (6, 7, 2)])
    def test_batchnorm_matches_numpy_statistics_and_textbook_vjp(self, rng, shape):
        x = 3.0 + 2.0 * rng.standard_normal(shape)
        gamma = 1.0 + 0.2 * rng.standard_normal(shape[-1])
        beta = 0.2 * rng.standard_normal(shape[-1])
        g = rng.standard_normal(shape)
        xp = Parameter("x", x)
        with Tape() as tape:
            out, mean, var = ad.batchnorm(xp, gamma, beta)
        axes = tuple(range(x.ndim - 1))
        assert mean.tobytes() == x.mean(axis=axes).tobytes()
        assert var.tobytes() == x.var(axis=axes).tobytes()
        # the two-pass textbook forward and backward, operation for operation
        count = x.size // shape[-1]
        inv = 1.0 / np.sqrt(x.var(axis=axes) + ad.BN_EPS)
        xhat = (x - x.mean(axis=axes)) * inv
        assert value(out).tobytes() == (gamma * xhat + beta).tobytes()
        dxhat = g * gamma
        want = inv * (dxhat - dxhat.sum(axis=axes) / count
                      - xhat * (dxhat * xhat).sum(axis=axes) / count)
        dx, dgamma, dbeta = tape.records[-1].vjp(g)
        assert dx.tobytes() == want.tobytes()
        assert dgamma.tobytes() == (g * xhat).sum(axis=axes).tobytes()
        assert dbeta.tobytes() == g.sum(axis=axes).tobytes()


class TestMaxPoolValues:
    # plain arrays: no tape records, the op returns the array
    def test_max_constant_nonnegative(self):
        x = np.full((1, 6, 6, 2), 3.0)
        np.testing.assert_array_equal(ad.max_pool(x), np.full((1, 3, 3, 2), 3.0))

    def test_max_window_example(self):
        x = np.arange(1.0, 17.0).reshape(4, 4)[None, :, :, None]
        np.testing.assert_array_equal(ad.max_pool(x)[0, :, :, 0],
                                      [[6.0, 8.0], [14.0, 16.0]])

    def test_max_zero_padding_caps_negative_borders(self):
        x = np.full((1, 4, 4, 1), -5.0)
        # border windows include padded zeros; the interior window does not
        np.testing.assert_array_equal(ad.max_pool(x)[0, :, :, 0],
                                      [[0.0, 0.0], [0.0, -5.0]])


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


def toy_model(variant="single", pi="pi1"):
    """The CLI's default toy model (J=3, nu=(2, 2, 2), c=16) and one batch of
    eight 16x16 two-class blobs."""
    cfg = MgNetConfig(J=3, nu=(2, 2, 2), c_u=16, c_f=16, smoothing_variant=variant,
                      pi_variant=pi, use_batchnorm=True, in_channels=1, classes=2)
    data = gen_synthetic(2, 4, size=16, seed=0)
    images = np.stack([it.image for it in data])
    return cfg, init_weights(cfg, seed=0), images, [it.label for it in data]


class TestConsumingSweep:
    @pytest.mark.parametrize("pi", ["pi0", "pi1", "pi2"])
    @pytest.mark.parametrize("variant", ["single", "multi", "chebyshev"])
    def test_gradients_bitwise_equal_to_the_retaining_sweep(self, variant, pi):
        cfg, weights, images, labels = toy_model(variant, pi)
        want = reference_backward(*traced_loss(cfg, weights, images, labels))
        got = backward(*traced_loss(cfg, weights, images, labels))
        assert got.keys() == want.keys() == weights.params.keys()
        for name, g in want.items():
            assert got[name].tobytes() == g.tobytes(), name

    def test_sweep_empties_the_tape_and_unlinks_every_record(self):
        cfg, weights, images, labels = toy_model()
        tape, loss = traced_loss(cfg, weights, images, labels)
        recorded = list(tape.records)
        backward(tape, loss)
        assert tape.records == []
        assert loss.grad.tobytes() == np.ones_like(loss.data).tobytes()
        assert loss.vjp is None and loss.parents == ()
        for node in recorded:
            assert not isinstance(node, Parameter)
            assert node.vjp is None and node.parents == (), node
            assert node is loss or node.grad is None, node

    def test_second_backward_on_a_consumed_tape_raises(self):
        p = Parameter("p", np.array([1.0, -2.0]))
        with Tape() as tape:
            loss = mean_all(ad.mul(p, p))
        np.testing.assert_array_equal(backward(tape, loss)["p"], [1.0, -2.0])
        with pytest.raises(ContractViolation, match="consumed"):
            backward(tape, loss)

    @pytest.mark.parametrize("op", [ad.add, ad.sub])
    def test_add_and_sub_vjps_keep_shapes_not_operands(self, op):
        p = Parameter("p", np.ones((2, 3)))
        with Tape():
            node = op(np.zeros((4, 2, 3)), p)
        held = [cell.cell_contents for cell in node.vjp.__closure__]
        assert not any(isinstance(x, np.ndarray) for x in held)


class TestTracedParents:
    def test_plain_input_is_recorded_as_none(self):
        p = Parameter("p", np.ones(3))
        with Tape():
            node = ad.add(np.zeros(3), p)
        assert node.parents == (None, p)

    @pytest.mark.parametrize("pi", ["pi0", "pi1", "pi2"])
    def test_training_tape_holds_no_plain_array(self, pi):
        cfg, weights, images, labels = toy_model(pi=pi)
        tape, loss = traced_loss(cfg, weights, images, labels)
        untraced = [(node.op, i) for node in tape.records
                    for i, parent in enumerate(node.parents) if not isinstance(parent, Node)]
        assert all(parent is None for node in tape.records for parent in node.parents
                   if not isinstance(parent, Node))
        # the images enter the first convolution, the one-hot targets the loss
        assert ("conv2d", 0) in untraced and ("softmax_cross_entropy", 1) in untraced
        want = reference_backward(*traced_loss(cfg, weights, images, labels))
        got = backward(tape, loss)
        assert got.keys() == want.keys()
        for name, g in want.items():
            assert got[name].tobytes() == g.tobytes(), name
