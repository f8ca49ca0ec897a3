import os

import numpy as np
import pytest

from vical import data, report


def _spec(**overrides):
    base = dict(
        n_classes=4, n_features=16, n_train=200, n_dev=100,
        separation=3.25, label_noise=0.1, seed=17,
    )
    base.update(overrides)
    return data.DatasetSpec(**base)


def test_generation_is_deterministic():
    a_train, a_dev = data.generate_dataset(_spec())
    b_train, b_dev = data.generate_dataset(_spec())
    assert np.array_equal(a_train.features, b_train.features)
    assert np.array_equal(a_train.labels, b_train.labels)
    assert np.array_equal(a_dev.features, b_dev.features)


def test_splits_are_disjoint_streams():
    train, dev = data.generate_dataset(_spec(n_train=100, n_dev=100))
    assert not np.array_equal(train.features, dev.features)
    other_train, _ = data.generate_dataset(_spec(seed=18))
    assert not np.array_equal(train.features, other_train.features)


def test_shapes_and_label_range():
    train, dev = data.generate_dataset(_spec())
    assert train.features.shape == (200, 16) and dev.features.shape == (100, 16)
    for split in (train, dev):
        assert split.labels.min() >= 0 and split.labels.max() < 4
        assert split.labels.dtype == np.int64


def test_center_pairwise_distances():
    centers = data.class_centers(_spec(separation=2.5))
    for i in range(4):
        for j in range(i + 1, 4):
            dist = np.linalg.norm(centers[i] - centers[j])
            assert abs(dist - 2.5) < 1e-12
    # embedding only touches the first C coordinates
    assert np.all(centers[:, 4:] == 0.0)


def test_noise_floor_caps_accuracy():
    # rho=0.5, C=2: the Bayes rule tops out at 0.5 + 0.25 = 0.75
    spec = _spec(
        n_classes=2, n_features=2, n_train=2, n_dev=20_000,
        separation=50.0, label_noise=0.5, seed=3,
    )
    _, dev = data.generate_dataset(spec)
    centers = data.class_centers(spec)
    dists = np.linalg.norm(dev.features[:, None, :] - centers[None], axis=2)
    bayes = np.argmin(dists, axis=1)
    acc = float(np.mean(bayes == dev.labels))
    assert abs(acc - 0.75) < 0.03


def test_clean_wide_separation_is_solvable():
    spec = _spec(
        n_classes=3, n_features=3, n_train=3, n_dev=5_000,
        separation=50.0, label_noise=0.0, seed=4,
    )
    _, dev = data.generate_dataset(spec)
    centers = data.class_centers(spec)
    dists = np.linalg.norm(dev.features[:, None, :] - centers[None], axis=2)
    assert float(np.mean(np.argmin(dists, axis=1) == dev.labels)) == 1.0


def test_spec_validation():
    with pytest.raises(data.DataError):
        data.validate_spec(_spec(n_classes=1))
    with pytest.raises(data.DataError):
        data.validate_spec(_spec(n_features=2))
    with pytest.raises(data.DataError):
        data.validate_spec(_spec(n_train=2))
    with pytest.raises(data.DataError):
        data.validate_spec(_spec(label_noise=1.0))
    with pytest.raises(data.DataError):
        data.validate_spec(_spec(label_noise=-0.1))
    with pytest.raises(data.DataError):
        data.validate_spec(_spec(separation=-1.0))
    # sizes past the ceiling are rejected before anything is allocated
    for big in ({"n_dev": 2**31}, {"n_train": 10**20},
                {"n_train": data.MAX_ELEMENTS // 16 - 99, "n_dev": 100}):
        with pytest.raises(data.DataError, match="at most"):
            data.validate_spec(_spec(**big))
    data.validate_spec(_spec(n_train=data.MAX_ELEMENTS // 16 - 100, n_dev=100))


def test_csv_round_trip(tmp_path):
    train, _ = data.generate_dataset(_spec(n_train=50))
    path = str(tmp_path / "train.csv")
    report.write_text(path, data.csv_text(train))
    back = data.load_csv(path)
    # repr round-trips float64 exactly
    assert np.array_equal(back.features, train.features)
    assert np.array_equal(back.labels, train.labels)


def test_csv_header_format():
    train, _ = data.generate_dataset(_spec(n_train=5, n_features=4, n_classes=4))
    lines = data.csv_text(train).split("\n")
    assert lines[0] == "feature_0,feature_1,feature_2,feature_3,label"
    assert len(lines) == 1 + 5 + 1 and lines[-1] == ""  # every line ends in a newline


def test_load_errors_name_the_line(tmp_path):
    path = tmp_path / "bad.csv"

    path.write_text("feature_0,label\n0.5,1\nxyz,0\n", encoding="utf-8")
    with pytest.raises(data.DataError, match="line 3: non-numeric"):
        data.load_csv(str(path))

    path.write_text("feature_0,label\n0.5,1.5\n", encoding="utf-8")
    with pytest.raises(data.DataError, match="line 2: label must be an integer"):
        data.load_csv(str(path))

    path.write_text("feature_0,label\n0.5,-2\n", encoding="utf-8")
    with pytest.raises(data.DataError, match="line 2: label out of range"):
        data.load_csv(str(path))

    path.write_text("feature_0,label\n0.5\n", encoding="utf-8")
    with pytest.raises(data.DataError, match="line 2: expected 2 cells"):
        data.load_csv(str(path))

    path.write_text("feature_0,wrong\n0.5,1\n", encoding="utf-8")
    with pytest.raises(data.DataError, match="header"):
        data.load_csv(str(path))

    path.write_text("", encoding="utf-8")
    with pytest.raises(data.DataError, match="empty"):
        data.load_csv(str(path))

    with pytest.raises(data.DataError, match="not found"):
        data.load_csv(str(tmp_path / "missing.csv"))

    path.write_bytes(b"\x89PNG\r\n\x1a\n\xff\xfe")
    with pytest.raises(data.DataError, match="cannot read .*bad.csv: 'utf-8' codec"):
        data.load_csv(str(path))
    if os.path.isfile("/proc/self/mem"):  # a file whose read fails with EIO
        with pytest.raises(data.DataError, match="cannot read /proc/self/mem"):
            data.load_csv("/proc/self/mem")


def test_label_noise_rate_is_close_to_rho():
    # flips hit ~rho of the labels; resampling can restore the original,
    # so the observed change rate is rho*(1-1/C)
    spec = _spec(n_train=20_000, label_noise=0.2, separation=0.0, seed=9)
    train, _ = data.generate_dataset(spec)
    clean_spec = _spec(n_train=20_000, label_noise=0.0, separation=0.0, seed=9)
    clean_train, _ = data.generate_dataset(clean_spec)
    changed = float(np.mean(train.labels != clean_train.labels))
    assert abs(changed - 0.2 * 0.75) < 0.02
