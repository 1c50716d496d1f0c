import numpy as np
import pytest

from mgnet.data_io import (CHECKPOINT_MAGIC, FormatError, LabeledImage,
                           gen_synthetic, load_checkpoint, load_cifar10,
                           load_cifar100, save_checkpoint)
from mgnet.mgnet_model import MgNetConfig, init_weights
from mgnet.tensor_core import ContractViolation


def write_cifar10(path, records):
    """records: list of (label, fill_value 0..255) pairs."""
    payload = bytearray()
    for label, fill in records:
        payload.append(label)
        payload.extend(bytes([fill]) * 3072)
    path.write_bytes(bytes(payload))
    return path


class TestCifarLoading:
    def test_ten_records_parse(self, tmp_path):
        path = write_cifar10(tmp_path / "batch.bin", [(i % 10, i * 20) for i in range(10)])
        assert path.stat().st_size == 30730
        images = load_cifar10(path)
        assert len(images) == 10

    def test_label_and_scaling(self, tmp_path):
        path = write_cifar10(tmp_path / "batch.bin", [(3, 255)])
        item = load_cifar10(path)[0]
        assert item.label == 3
        assert (item.image == 1.0).all()

    def test_shapes_are_32x32x3(self, tmp_path):
        path = write_cifar10(tmp_path / "batch.bin", [(0, 1), (9, 2)])
        for item in load_cifar10(path):
            assert item.image.shape == (32, 32, 3)
            assert item.image.dtype == np.float64

    def test_channel_plane_order(self, tmp_path):
        payload = bytearray([5])
        payload.extend(bytes([10]) * 1024)  # red plane
        payload.extend(bytes([20]) * 1024)  # green plane
        payload.extend(bytes([30]) * 1024)  # blue plane
        path = tmp_path / "batch.bin"
        path.write_bytes(bytes(payload))
        item = load_cifar10(path)[0]
        np.testing.assert_allclose(item.image[:, :, 0], 10 / 255)
        np.testing.assert_allclose(item.image[:, :, 1], 20 / 255)
        np.testing.assert_allclose(item.image[:, :, 2], 30 / 255)

    def test_truncated_file_reports_offset(self, tmp_path):
        path = write_cifar10(tmp_path / "batch.bin", [(1, 7)])
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(FormatError, match="offset 0"):
            load_cifar10(path)

    def test_label_out_of_range(self, tmp_path):
        path = write_cifar10(tmp_path / "batch.bin", [(11, 0)])
        with pytest.raises(FormatError, match="label 11"):
            load_cifar10(path)

    def test_values_stay_in_unit_interval(self, tmp_path):
        path = write_cifar10(tmp_path / "batch.bin", [(0, 0), (1, 255), (2, 128)])
        for item in load_cifar10(path):
            assert item.image.min() >= 0.0 and item.image.max() <= 1.0

    def test_cifar100_uses_fine_label(self, tmp_path):
        payload = bytearray([7, 93])  # coarse then fine
        payload.extend(bytes([1]) * 3072)
        path = tmp_path / "train.bin"
        path.write_bytes(bytes(payload))
        items = load_cifar100(path)
        assert items[0].label == 93


class TestSynthetic:
    def test_deterministic_per_seed(self):
        a = gen_synthetic(2, 5, size=12, seed=42)
        b = gen_synthetic(2, 5, size=12, seed=42)
        for x, y in zip(a, b):
            assert x.label == y.label
            assert x.image.tobytes() == y.image.tobytes()

    def test_counts_and_labels(self):
        data = gen_synthetic(2, 100, size=12, seed=0)
        assert len(data) == 200
        assert sum(1 for d in data if d.label == 0) == 100
        assert sum(1 for d in data if d.label == 1) == 100

    def test_values_in_unit_interval(self):
        for item in gen_synthetic(3, 10, size=10, seed=1):
            assert item.image.min() >= 0.0 and item.image.max() <= 1.0
            assert item.image.shape == (10, 10, 1)

    def test_requires_two_classes(self):
        with pytest.raises(ContractViolation):
            gen_synthetic(1, 10)

    @pytest.mark.parametrize("name,count", [
        ("classes", 2.5), ("classes", True), ("per_class", 0), ("per_class", -3),
        ("per_class", 1.0), ("size", 0), ("size", -1), ("size", 16.0)])
    def test_counts_must_be_integers_in_range(self, name, count):
        counts = {"classes": 2, "per_class": 10, "size": 16, name: count}
        with pytest.raises(ContractViolation, match=f"{name} must be an integer"):
            gen_synthetic(**counts)

    def test_nearest_centroid_separates_fresh_sample(self):
        train = gen_synthetic(2, 100, size=16, seed=7)
        test = gen_synthetic(2, 50, size=16, seed=8)
        centroids = []
        for k in (0, 1):
            stack = np.stack([d.image for d in train if d.label == k])
            centroids.append(stack.mean(axis=0))
        correct = 0
        for item in test:
            dists = [np.linalg.norm(item.image - c) for c in centroids]
            correct += int(np.argmin(dists) == item.label)
        assert correct / len(test) > 0.95


class TestCheckpoints:
    def test_roundtrip_bitwise(self, tmp_path, rng):
        tensors = {
            "a/weights": rng.standard_normal((3, 3, 2, 5)),
            "b/bias": rng.standard_normal(7),
            "scalar": np.array(3.14159),
        }
        path = tmp_path / "model.mgnet"
        save_checkpoint(path, tensors)
        loaded = load_checkpoint(path)
        assert set(loaded) == set(tensors)
        for name, arr in tensors.items():
            assert loaded[name].shape == arr.shape
            assert loaded[name].tobytes() == arr.tobytes()

    def test_empty_model_is_magic_only(self, tmp_path):
        path = tmp_path / "empty.mgnet"
        save_checkpoint(path, {})
        assert path.read_bytes() == CHECKPOINT_MAGIC
        assert load_checkpoint(path) == {}

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.mgnet"
        path.write_bytes(b"NOTMGN" + b"\x00" * 16)
        with pytest.raises(FormatError, match="magic"):
            load_checkpoint(path)

    def test_corrupt_dim_fails_cleanly(self, tmp_path, rng):
        path = tmp_path / "model.mgnet"
        save_checkpoint(path, {"w": rng.standard_normal((4, 4))})
        raw = bytearray(path.read_bytes())
        # name_len(4) + "w"(1) + rank(4) => first dim starts at offset 15
        raw[15 + 3] = 0xFF  # blow up the high byte of the first dimension
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_implausible_rank_is_a_format_error(self, tmp_path):
        path = tmp_path / "model.mgnet"
        save_checkpoint(path, {"w": np.ones(2)})
        raw = bytearray(path.read_bytes())
        # magic(6) + name_len(4) + "w"(1) => the rank starts at offset 11
        raw[11 + 3] = 0x01  # rank 2**24 + 1
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="implausible rank 16777217 for 'w'"):
            load_checkpoint(path)

    def test_non_utf8_name_is_a_format_error(self, tmp_path):
        path = tmp_path / "model.mgnet"
        save_checkpoint(path, {"w": np.ones(2)})
        raw = bytearray(path.read_bytes())
        raw[10] = 0xFF  # the name starts after the magic and its 4-byte length
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="not UTF-8"):
            load_checkpoint(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_is_a_format_error(self, tmp_path, bad):
        path = tmp_path / "model.mgnet"
        save_checkpoint(path, {"w": np.array([1.0, bad])})
        with pytest.raises(FormatError, match="non-finite"):
            load_checkpoint(path)

    def test_repeated_name_is_a_format_error(self, tmp_path):
        path = tmp_path / "model.mgnet"
        save_checkpoint(path, {"w": np.ones(2)})
        raw = path.read_bytes()
        path.write_bytes(raw + raw[len(CHECKPOINT_MAGIC):])
        with pytest.raises(FormatError, match="twice"):
            load_checkpoint(path)

    def test_model_state_roundtrip(self, tmp_path):
        cfg = MgNetConfig(J=2, nu=(1, 1), c_u=3, c_f=3, pi_variant="pi2",
                          use_batchnorm=True, in_channels=1, classes=2)
        weights = init_weights(cfg, seed=5)
        path = tmp_path / "model.mgnet"
        save_checkpoint(path, weights.state_dict())
        restored = init_weights(cfg, seed=6)
        restored.load_state_dict(load_checkpoint(path))
        for name, p in weights.params.items():
            assert restored.params[name].data.tobytes() == p.data.tobytes()

    def test_load_into_wrong_model_raises(self, tmp_path):
        cfg_a = MgNetConfig(J=2, nu=(1, 1), c_u=3, c_f=3, pi_variant="pi1",
                            use_batchnorm=False, in_channels=1, classes=2)
        cfg_b = MgNetConfig(J=2, nu=(1, 1), c_u=5, c_f=5, pi_variant="pi1",
                            use_batchnorm=False, in_channels=1, classes=2)
        path = tmp_path / "model.mgnet"
        save_checkpoint(path, init_weights(cfg_a, seed=0).state_dict())
        with pytest.raises(ContractViolation):
            init_weights(cfg_b, seed=0).load_state_dict(load_checkpoint(path))

    def test_labeled_image_dataclass(self):
        item = LabeledImage(np.zeros((2, 2, 1)), 1)
        assert item.label == 1
