import numpy as np
import pytest

from mgnet.equivalence_lab import (SUITE_TOLERANCE, EquivalenceReport,
                                   doubled_extractor, pair_negating_kernel,
                                   verify, verify_all, verify_cnn_embedding,
                                   verify_dual_iresnet, verify_mgnet_mg0,
                                   verify_resnet_sigma_transform)
from mgnet.classic_models import classic_cnn_step, sigma_resnet_step
from mgnet.tensor_core import ConvKernel, PaddingMode, conv2d, relu


class TestMg0Equivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_certifies_at_suite_tolerance(self, seed):
        report = verify_mgnet_mg0(seed=seed)
        assert report.passed()
        assert report.theorem_id == "mg0"
        assert report.instances_tested > 0

    def test_other_sizes_and_smoothing_counts(self):
        report = verify_mgnet_mg0(size=33, levels=4, nu=(1, 2, 3, 1), omega=1.2, seed=5)
        assert report.max_abs_discrepancy < SUITE_TOLERANCE

    def test_zero_interpolation_leaves_data_unchanged(self, rng):
        # with the zero transfer the lifted identity collapses to f~ = f
        from mgnet.equivalence_lab import _LinearMgOperators
        from mgnet.mgnet_model import run_smoothing_sweep
        from mgnet.poisson_mg import PoissonHierarchy, SmootherSpec, mg0
        h = PoissonHierarchy(17, 17, 3)
        spec = SmootherSpec(0.8, 1)
        f = rng.standard_normal((17, 17))
        reference = mg0(f, 3, [2, 2, 2], spec, h)
        _, net = run_smoothing_sweep(f, [2, 2, 2],
                                     _LinearMgOperators(h, spec, None), "single")
        for l in range(3):
            np.testing.assert_array_equal(net.f_levels[l], reference.f_levels[l])
            for u_ref, u_net in zip(reference.u_iterates[l], net.u_iterates[l]):
                np.testing.assert_array_equal(u_ref, u_net)


class TestDualIResNet:
    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_certifies_at_suite_tolerance(self, seed):
        report = verify_dual_iresnet(seed=seed)
        assert report.passed()
        # three levels, iterates 0..3 each: every intermediate index compared
        assert report.instances_tested == 3 * 4


class TestSigmaTransform:
    @pytest.mark.parametrize("seed", [0, 4])
    def test_certifies_at_suite_tolerance(self, seed):
        report = verify_resnet_sigma_transform(seed=seed)
        assert report.passed()

    def test_single_block_zero_branch_trivial(self):
        report = verify_resnet_sigma_transform(block_count=1, seed=2)
        assert report.max_abs_discrepancy < SUITE_TOLERANCE


class TestCnnEmbedding:
    @pytest.mark.parametrize("seed", [0, 6])
    def test_certifies_at_suite_tolerance(self, seed):
        report = verify_cnn_embedding(seed=seed)
        assert report.passed()

    def test_pair_kernel_identity(self, rng):
        channels = 4
        delta_hat = pair_negating_kernel(channels)
        x = rng.standard_normal((5, 5, channels))
        stacked = np.concatenate([relu(x), relu(-x)], axis=2)
        out = conv2d(stacked, delta_hat, 1, PaddingMode.ZERO)
        np.testing.assert_allclose(out, -x, atol=1e-14)

    def test_identity_network_reduces_to_repeated_relu(self, rng):
        channels = 3
        chi = ConvKernel.identity(channels)
        delta_hat = pair_negating_kernel(channels)
        eta = doubled_extractor(chi)
        f = rng.standard_normal((5, 5, channels))
        plain = classic_cnn_step(f, chi, "post")
        embedded = sigma_resnet_step(f, delta_hat, eta)
        np.testing.assert_allclose(plain, relu(f), atol=1e-14)
        np.testing.assert_allclose(embedded, relu(f), atol=1e-14)

    def test_doubled_extractor_halves_pair(self, rng):
        chi = ConvKernel(0.5 * rng.standard_normal((3, 3, 3, 3)),
                         rng.standard_normal(3))
        eta = doubled_extractor(chi)
        assert eta.out_channels == 6 and eta.in_channels == 3
        f = rng.standard_normal((6, 6, 3))
        full = conv2d(f, eta, 1, PaddingMode.ZERO)
        top = conv2d(f, chi, 1, PaddingMode.ZERO) - f
        np.testing.assert_allclose(full[:, :, :3], top, atol=1e-13)
        np.testing.assert_allclose(full[:, :, 3:], -top, atol=1e-13)


class TestSuite:
    def test_verify_all_four(self):
        reports = verify_all(seed=0)
        assert {r.theorem_id for r in reports} == {"mg0", "dual", "sigma", "embed"}
        assert all(r.passed() for r in reports)

    def test_deterministic_given_seed(self):
        a = verify_all(seed=13)
        b = verify_all(seed=13)
        for ra, rb in zip(a, b):
            assert ra == rb  # frozen dataclass equality, bit-for-bit fields

    def test_unknown_theorem_rejected(self):
        with pytest.raises(ValueError):
            verify("fermat", seed=0)

    def test_report_serialization(self):
        report = verify("sigma", seed=1)
        d = report.to_dict()
        assert d["theorem_id"] == "sigma" and d["passed"] is True
        assert isinstance(report, EquivalenceReport)
