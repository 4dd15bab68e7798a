import itertools
import os
import stat

import numpy as np
import pytest

from avmoe.metrics import (
    CsvError, CsvTable, atomic_open, coeff_of_variation, read_table, spearman,
    write_table,
)


def test_spearman_identity_and_reversal():
    x = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert spearman(x, x) == pytest.approx(1.0)
    assert spearman(x, [-v for v in x]) == pytest.approx(-1.0)


def test_spearman_tie_matches_brute_force():
    x = [1.0, 2.0, 2.0, 3.0, 4.0]
    y = [0.3, 1.1, 0.9, 2.0, 2.5]

    # oracle: enumerate all rank assignments consistent with the tie and average
    def pearson(a, b):
        a, b = np.asarray(a, float), np.asarray(b, float)
        a, b = a - a.mean(), b - b.mean()
        return float((a * b).sum() / np.sqrt((a * a).sum() * (b * b).sum()))

    tied_positions = [1, 2]
    corrs = []
    for perm in itertools.permutations([2, 3]):
        rx = [1.0, 0, 0, 4.0, 5.0]
        rx[tied_positions[0]], rx[tied_positions[1]] = perm
        # average-rank convention equals the mean rank vector, so compute with it
        corrs.append(rx)
    avg_rx = np.mean(np.array(corrs, float), axis=0)
    ry = [1.0, 3.0, 2.0, 4.0, 5.0]
    expected = pearson(avg_rx, ry)
    assert spearman(x, y) == pytest.approx(expected, abs=1e-12)


def test_spearman_bounds_random():
    rng = np.random.default_rng(0)
    for _ in range(100):
        x = rng.normal(size=6)
        y = rng.normal(size=6)
        assert -1.0 <= spearman(x, y) <= 1.0


def test_spearman_constant_rejected():
    with pytest.raises(ValueError):
        spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


def test_cov_cases():
    assert coeff_of_variation([3.0, 3.0, 3.0]) == 0.0
    assert coeff_of_variation([0.0, 2.0]) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        coeff_of_variation([0.0, 0.0])


def test_cov_two_pass_oracle():
    rng = np.random.default_rng(1)
    v = rng.uniform(0.1, 5.0, size=20)
    m = sum(v) / len(v)
    var = sum((x - m) ** 2 for x in v) / len(v)
    assert coeff_of_variation(v) == pytest.approx(var ** 0.5 / m, abs=1e-12)


def test_csv_round_trip_empty(tmp_path):
    t = CsvTable(["a", "b"])
    path = str(tmp_path / "t.csv")
    write_table(t, path)
    assert read_table(path) == t


def test_csv_round_trip_bit_exact(tmp_path):
    t = CsvTable(["step", "value", "name"])
    t.append([1, -1.2345678901234567e-12, "alpha"])
    t.append([2, 3.7e300, "beta"])
    t.append([3, -0.0, "gamma"])
    path = str(tmp_path / "t.csv")
    write_table(t, path)
    back = read_table(path)
    for row_a, row_b in zip(t.rows, back.rows):
        assert row_a[0] == row_b[0]
        assert repr(row_a[1]) == repr(row_b[1])
        assert row_a[2] == row_b[2]


def test_failed_atomic_write_keeps_the_old_file(tmp_path):
    path = tmp_path / "summary.json"
    path.write_text("old")
    with pytest.raises(RuntimeError):
        with atomic_open(str(path)) as f:
            f.write("half written")
            raise RuntimeError("interrupted")
    assert path.read_text() == "old"
    assert [p.name for p in tmp_path.iterdir()] == ["summary.json"]


def test_written_file_gets_the_umask_mode(tmp_path):
    """A run artifact gets the mode ``open(path, "w")`` gives a new file,
    not a temp file's 0o600."""
    path = tmp_path / "steps.csv"
    old = os.umask(0o022)
    try:
        write_table(CsvTable(["a"], [[1]]), str(path))
    finally:
        os.umask(old)
    assert stat.S_IMODE(path.stat().st_mode) == 0o644


def test_csv_mismatched_row_width(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n1,2,3\n")
    with pytest.raises(CsvError, match="row 2"):
        read_table(str(path))


def test_csv_append_width_check():
    t = CsvTable(["a"])
    with pytest.raises(CsvError):
        t.append([1, 2])
