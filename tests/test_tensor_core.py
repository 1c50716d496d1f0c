import tracemalloc

import numpy as np
import pytest

from mgnet import tensor_core
from mgnet.tensor_core import ContractViolation, ConvKernel, conv2d, relu, softmax
from mgnet.poisson_mg import POISSON_STENCIL

from conftest import from_matrix, identity_kernel, reference_conv2d

# a single (h, w, c) image, and (b, h, w, c) batches as the networks pass them
BATCHES = [(), (1,), (3,)]
BATCH_IDS = ["unbatched", "batch1", "batch3"]
RANK_ERROR = r"expected \(batch, h, w, c\), got shape"


def conv_of(x, kern, stride):
    """`conv2d` of a batch; a single image is refused bare, so it goes in as
    the batch of one ``x[None]`` and its output is read back as ``[0]``."""
    if x.ndim == 4:
        return conv2d(x, kern, stride)
    with pytest.raises(ContractViolation, match=RANK_ERROR):
        conv2d(x, kern, stride)
    return conv2d(x[None], kern, stride)[0]


def batched_reference(x, kern, stride):
    """`reference_conv2d` applied to a single image or to each sample of a batch."""
    if x.ndim == 3:
        return reference_conv2d(x, kern, stride)
    return np.stack([reference_conv2d(sample, kern, stride) for sample in x])


class TestConv2d:
    def test_identity_kernel_is_identity(self, rng):
        x = rng.standard_normal((1, 5, 5, 1))
        out = conv2d(x, identity_kernel(1), 1)
        np.testing.assert_array_equal(out, x)

    def test_identity_kernel_multichannel(self, rng):
        x = rng.standard_normal((1, 6, 4, 3))
        out = conv2d(x, identity_kernel(3), 1)
        np.testing.assert_allclose(out, x, rtol=0, atol=0)

    def test_stride_output_size_ceil(self, rng):
        x = rng.standard_normal((1, 5, 5, 1))
        out = conv2d(x, identity_kernel(1), 2)
        assert out.shape == (1, 3, 3, 1)

    @pytest.mark.parametrize("m,n,s", [(5, 5, 2), (7, 4, 3), (9, 6, 2), (5, 5, 1)])
    def test_output_shape_general(self, rng, m, n, s):
        x = rng.standard_normal((1, m, n, 2))
        kern = ConvKernel(rng.standard_normal((3, 3, 4, 2)), rng.standard_normal(4))
        out = conv2d(x, kern, s)
        assert out.shape == (1, -(-m // s), -(-n // s), 4)

    def test_five_point_stencil_on_ones(self):
        u = np.ones((1, 5, 5, 1))
        kern = from_matrix(POISSON_STENCIL)
        out = conv2d(u, kern, 1)[0, :, :, 0]
        expected = reference_conv2d(u[0], kern, 1)[:, :, 0]
        np.testing.assert_allclose(out, expected, atol=1e-14)
        assert out[2, 2] == 0.0 and out[0, 2] == 1.0 and out[0, 0] == 2.0

    # tiny and odd grids, and a 5x5 kernel on a 2x3 grid: halos wider than the grid
    @pytest.mark.parametrize("m,n,kk", [(7, 7, 3), (1, 1, 3), (1, 4, 3), (2, 3, 3), (2, 3, 5)])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("batch", BATCHES, ids=BATCH_IDS)
    def test_matches_bruteforce_reference(self, rng, batch, stride, m, n, kk):
        x = rng.standard_normal(batch + (m, n, 3))
        kern = ConvKernel(rng.standard_normal((kk, kk, 4, 3)), rng.standard_normal(4))
        got = conv_of(x, kern, stride)
        want = batched_reference(x, kern, stride)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("batch", BATCHES, ids=BATCH_IDS)
    def test_linearity_without_bias(self, rng, batch):
        x = rng.standard_normal(batch + (6, 5, 2))
        y = rng.standard_normal(batch + (6, 5, 2))
        kern = ConvKernel(rng.standard_normal((3, 3, 3, 2)), np.zeros(3))
        a, b = 1.7, -0.4
        lhs = conv_of(a * x + b * y, kern, 1)
        rhs = a * conv_of(x, kern, 1) + b * conv_of(y, kern, 1)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("stride", [2, 3])
    @pytest.mark.parametrize("batch", BATCHES, ids=BATCH_IDS)
    def test_stride_equals_subsampled_stride_one(self, rng, batch, stride):
        x = rng.standard_normal(batch + (9, 8, 2))
        kern = ConvKernel(rng.standard_normal((3, 3, 2, 2)), rng.standard_normal(2))
        full = conv_of(x, kern, 1)
        # identical sums up to contraction order inside einsum
        np.testing.assert_allclose(full[..., ::stride, ::stride, :],
                                   conv_of(x, kern, stride),
                                   rtol=1e-12, atol=1e-13)

    def test_outputs_finite_on_finite_inputs(self, rng):
        x = rng.standard_normal((1, 8, 8, 3)) * 1e6
        kern = ConvKernel(rng.standard_normal((5, 5, 2, 3)), rng.standard_normal(2))
        assert np.isfinite(conv2d(x, kern, 2)).all()

    def test_channel_mismatch_raises(self, rng):
        x = rng.standard_normal((1, 5, 5, 2))
        with pytest.raises(ContractViolation, match="2 channels"):
            conv2d(x, identity_kernel(3), 1)

    def test_empty_input_raises(self):
        with pytest.raises(ContractViolation, match="empty"):
            conv2d(np.zeros((0, 5, 5, 1)), identity_kernel(1), 1)

    def test_bad_stride_raises(self, rng):
        x = rng.standard_normal((1, 5, 5, 1))
        with pytest.raises(ContractViolation, match="stride"):
            conv2d(x, identity_kernel(1), 0)


def blocked_and_whole(monkeypatch, fn, block_bytes):
    """`fn()` with `block_bytes` per conv block, and with the batch in one block."""
    monkeypatch.setattr(tensor_core, "_BLOCK_BYTES", block_bytes)
    blocked = fn()
    monkeypatch.setattr(tensor_core, "_BLOCK_BYTES", 1 << 62)
    return blocked, fn()


def conv_case(rng, b, h, cin, cout, stride):
    ho = -(-h // stride)
    return (rng.standard_normal((b, h, h, cin)), rng.standard_normal((3, 3, cout, cin)),
            rng.standard_normal(cout), rng.standard_normal((b, ho, ho, cout)))


class TestBatchBlocks:
    """The window core runs over blocks of whole images; how the batch is
    cut must not change a bit at the shapes the networks run."""

    # square convs and the image convs from 1 or 3 channels; 15x15 and 16x16
    # at stride 2 still give each block 64 rows
    @pytest.mark.parametrize("cin,cout", [(4, 4), (16, 16), (32, 32), (1, 4), (1, 16),
                                          (3, 16), (3, 32)])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("h", [15, 16])
    @pytest.mark.parametrize("b", [1, 3, 4, 17])
    @pytest.mark.parametrize("images_per_block", [1, 2])
    def test_bitwise_equal_to_one_block(self, rng, monkeypatch, images_per_block, b, h,
                                        stride, cin, cout):
        # b=3 and b=17 leave a remainder block of one image at two images per
        # block; b=4 fills its blocks exactly
        x, w, bias, g = conv_case(rng, b, h, cin, cout, stride)
        # the forward's working set per image; the grad-input's, with cin and
        # cout swapped, is the same wherever it is checked
        ho = -(-h // stride)
        image_bytes = ho * ho * (cin + 2 * cout) * 8
        budget = 1 if images_per_block == 1 else 2 * image_bytes + image_bytes // 2
        blocked, whole = blocked_and_whole(
            monkeypatch, lambda: tensor_core._conv_forward(x, w, bias, stride), budget)
        np.testing.assert_array_equal(blocked, whole)
        if cin == cout:  # the networks take no gradient into the image channels
            blocked, whole = blocked_and_whole(
                monkeypatch, lambda: tensor_core._conv_grad_input(g, w, x.shape, stride),
                budget)
            np.testing.assert_array_equal(blocked, whole)

    # A one-image block is a smaller GEMM, for which OpenBLAS may pick another
    # kernel; at these shapes, which no network runs, the last bits of a tap's
    # dot product can then differ.  The bound, 1e-14 of the largest output,
    # is about 20 times the differences seen there (up to 5e-16).
    @pytest.mark.parametrize("cin,cout", [(32, 16), (32, 8), (32, 4), (16, 3), (32, 1)])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("b", [3, 17])
    def test_other_shapes_within_rounding(self, rng, monkeypatch, b, stride, cin, cout):
        x, w, bias, g = conv_case(rng, b, 16, cin, cout, stride)
        for fn in (lambda: tensor_core._conv_forward(x, w, bias, stride),
                   lambda: tensor_core._conv_grad_input(g, w, x.shape, stride)):
            blocked, whole = blocked_and_whole(monkeypatch, fn, 1)
            np.testing.assert_allclose(blocked, whole, rtol=0,
                                       atol=1e-14 * np.abs(whole).max())

    def test_forward_peak_memory_is_one_output_and_a_block(self, rng):
        # one image per block here; the whole-batch window copy, product and
        # accumulator peaked at about four outputs
        x = rng.standard_normal((32, 32, 32, 32))
        kern = ConvKernel(rng.standard_normal((3, 3, 32, 32)), rng.standard_normal(32))
        tracemalloc.start()
        try:
            out = conv2d(x, kern, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + (4 << 20)


class TestRelu:
    def test_examples(self):
        np.testing.assert_array_equal(relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])

    def test_all_negative_goes_to_zero(self, rng):
        x = -np.abs(rng.standard_normal((4, 4, 2))) - 0.1
        assert (relu(x) == 0).all()

    def test_half_rectifications_recombine(self, rng):
        # relu(x) - relu(-x) = x; their sum is |x| (a common sign slip)
        x = rng.standard_normal((5, 5, 3))
        np.testing.assert_array_equal(relu(x) - relu(-x), x)
        np.testing.assert_array_equal(relu(x) + relu(-x), np.abs(x))


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax([0.0, 0.0]), [0.5, 0.5], atol=1e-15)

    def test_overflow_safety(self):
        out = softmax([1000.0, 1000.0])
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out, [0.5, 0.5], atol=1e-15)

    def test_log_ratio_example(self):
        np.testing.assert_allclose(softmax(np.log([1.0, 3.0])), [0.25, 0.75], atol=1e-14)

    def test_sums_to_one_and_shift_invariant(self, rng):
        z = rng.standard_normal(11) * 10
        p = softmax(z)
        assert abs(p.sum() - 1.0) < 1e-12
        assert (p >= 0).all() and (p <= 1).all()
        np.testing.assert_allclose(softmax(z + 123.456), p, atol=1e-12)


class TestTypes:
    def test_kernel_shape_validation(self):
        with pytest.raises(ContractViolation):
            ConvKernel(np.zeros((2, 2, 1, 1)), np.zeros(1))
        with pytest.raises(ContractViolation):
            ConvKernel(np.zeros((3, 3, 2, 1)), np.zeros(1))

    def test_kernel_accessors(self):
        kern = ConvKernel.zeros(2, 3, 4)
        assert (kern.k, kern.in_channels, kern.out_channels) == (2, 3, 4)

    def test_stencil_matrix_matches(self):
        kern = from_matrix(POISSON_STENCIL)
        np.testing.assert_array_equal(np.asarray(kern.weights)[:, :, 0, 0], POISSON_STENCIL)
