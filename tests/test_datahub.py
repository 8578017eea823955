import numpy as np
import pytest

from hssfl.datahub import (
    load_csv,
    partition_iid,
    partition_noniid,
    sample_rad,
    save_csv,
    synth_mixture,
)
from hssfl.errors import ConfigError, ParseError
from hssfl.numkit import RngStream


def mixture(seed=0, classes=10, dim=8, per_class=30, separation=4.0, noise=1.0):
    return synth_mixture(classes, dim, per_class, separation, noise,
                         RngStream(seed, purpose="synth"))


class TestSynthMixture:
    def test_zero_noise_collapses_to_means(self):
        ds = mixture(noise=0.0)
        for c in range(ds.num_classes):
            rows = ds.features[ds.labels == c]
            assert np.all(rows == rows[0])

    def test_nearest_centroid_oracle(self):
        ds = mixture(seed=1, classes=2, separation=50.0, noise=0.5)
        means = np.stack([ds.features[ds.labels == c].mean(axis=0) for c in range(2)])
        d0 = np.linalg.norm(ds.features - means[0], axis=1)
        d1 = np.linalg.norm(ds.features - means[1], axis=1)
        pred = (d1 < d0).astype(int)
        assert np.mean(pred == ds.labels) == 1.0

    def test_deterministic(self):
        a, b = mixture(seed=2), mixture(seed=2)
        assert a.features.tobytes() == b.features.tobytes()
        assert np.array_equal(a.labels, b.labels)

    def test_mean_radius(self):
        ds = mixture(seed=3, noise=0.0, separation=7.0)
        for c in range(ds.num_classes):
            mean = ds.features[ds.labels == c][0]
            assert np.linalg.norm(mean) == pytest.approx(7.0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            mixture(classes=1)
        with pytest.raises(ConfigError):
            synth_mixture(3, 4, 0, 1.0, 1.0, RngStream(0))
        with pytest.raises(ConfigError):
            synth_mixture(3, 4, 5, -1.0, 1.0, RngStream(0))


class TestCsvIO:
    def test_round_trip(self, tmp_path):
        ds = mixture(seed=4, classes=3, per_class=5)
        path = str(tmp_path / "d.csv")
        save_csv(ds, path)
        back = load_csv(path)
        assert back.features.tobytes() == ds.features.tobytes()
        assert np.array_equal(back.labels, ds.labels)
        assert back.num_classes == ds.num_classes

    def test_hand_written_file(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("1.0,2.0,0\n3.5,-1.0,1\n0.0,0.25,2\n")
        ds = load_csv(str(path))
        assert np.array_equal(ds.features, [[1.0, 2.0], [3.5, -1.0], [0.0, 0.25]])
        assert list(ds.labels) == [0, 1, 2]
        assert ds.num_classes == 3

    def test_non_numeric_cell_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0,0\n1.0,zap,1\n")
        with pytest.raises(ParseError) as exc:
            load_csv(str(path))
        assert exc.value.line == 2

    def test_non_numeric_cell_after_blank_line_names_file_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0,0\n\n3.0,4.0,1\n1.0,zap,1\n")
        with pytest.raises(ParseError) as exc:
            load_csv(str(path))
        assert exc.value.line == 4

    def test_fractional_label_rejected(self, tmp_path):
        path = tmp_path / "frac.csv"
        path.write_text("1.0,0.5\n")
        with pytest.raises(ParseError):
            load_csv(str(path))

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_csv("/nonexistent/file.csv")


class TestPartitionNoniid:
    def test_classes_split_evenly(self):
        ds = mixture(seed=5)
        plan = partition_noniid(ds, 5, RngStream(5, purpose="part"))
        for idx in plan.client_indices:
            classes = set(ds.labels[list(idx)])
            assert len(classes) == 2

    def test_single_client_takes_all(self):
        ds = mixture(seed=6, classes=4)
        plan = partition_noniid(ds, 1, RngStream(6, purpose="part"))
        assert sorted(plan.client_indices[0]) == list(range(ds.size))

    def test_true_partition(self):
        ds = mixture(seed=7)
        plan = partition_noniid(ds, 5, RngStream(7, purpose="part"))
        seen = [i for idx in plan.client_indices for i in idx]
        assert sorted(seen) == list(range(ds.size))

    def test_zero_class_overlap(self):
        ds = mixture(seed=8)
        plan = partition_noniid(ds, 5, RngStream(8, purpose="part"))
        class_sets = [set(ds.labels[list(idx)]) for idx in plan.client_indices]
        for a in range(len(class_sets)):
            for b in range(a + 1, len(class_sets)):
                assert not (class_sets[a] & class_sets[b])

    def test_indivisible_rejected_with_hint(self):
        ds = mixture(seed=9, classes=7)
        with pytest.raises(ConfigError, match="iid"):
            partition_noniid(ds, 5, RngStream(9, purpose="part"))

    def test_more_clients_than_classes_rejected(self):
        ds = mixture(seed=10, classes=4)
        with pytest.raises(ConfigError, match="iid"):
            partition_noniid(ds, 8, RngStream(10, purpose="part"))


class TestPartitionIid:
    def test_single_client(self):
        ds = mixture(seed=11, classes=3)
        plan = partition_iid(ds, 1, RngStream(11, purpose="part"))
        assert sorted(plan.client_indices[0]) == list(range(ds.size))

    def test_balanced_shards(self):
        ds = mixture(seed=12, classes=3, per_class=11)
        plan = partition_iid(ds, 4, RngStream(12, purpose="part"))
        sizes = [len(idx) for idx in plan.client_indices]
        assert max(sizes) - min(sizes) <= 1
        seen = [i for idx in plan.client_indices for i in idx]
        assert sorted(seen) == list(range(ds.size))

    def test_class_frequencies_near_global(self):
        ds = mixture(seed=13, classes=5, per_class=2000, dim=2)
        plan = partition_iid(ds, 5, RngStream(13, purpose="part"))
        global_freq = np.bincount(ds.labels, minlength=5) / ds.size
        for idx in plan.client_indices:
            local = np.bincount(ds.labels[list(idx)], minlength=5) / len(idx)
            assert np.max(np.abs(local - global_freq)) < 0.05


class TestSampleRad:
    def test_whole_pool(self):
        ds = mixture(seed=14, classes=2, per_class=10)
        rad = sample_rad(ds, ds.size, RngStream(14, purpose="rad"))
        assert rad.shape == (ds.size, ds.dim)
        assert ds.reserved == set(range(ds.size))

    def test_reserved_rows_excluded_from_partitions(self):
        ds = mixture(seed=15)
        rad = sample_rad(ds, 40, RngStream(15, purpose="rad"))
        assert rad.shape == (40, ds.dim)
        plan = partition_noniid(ds, 5, RngStream(15, purpose="part"))
        shard_rows = {i for idx in plan.client_indices for i in idx}
        assert not (shard_rows & ds.reserved)
        plan2 = partition_iid(ds, 3, RngStream(16, purpose="part"))
        shard_rows2 = {i for idx in plan2.client_indices for i in idx}
        assert not (shard_rows2 & ds.reserved)

    def test_deterministic(self):
        a = mixture(seed=17)
        b = mixture(seed=17)
        ra = sample_rad(a, 30, RngStream(18, purpose="rad"))
        rb = sample_rad(b, 30, RngStream(18, purpose="rad"))
        assert ra.tobytes() == rb.tobytes()

    def test_too_large(self):
        ds = mixture(seed=19, classes=2, per_class=5)
        with pytest.raises(ConfigError):
            sample_rad(ds, ds.size + 1, RngStream(19, purpose="rad"))
