import csv
import itertools
import os
import stat

import numpy as np
import pytest

from avmoe.metrics import CsvError, CsvTable, _average_ranks, atomic_open, spearman, write_table


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


def loop_average_ranks(v):
    """The average ranks as a loop over the runs of equal sorted values."""
    order = np.argsort(v, kind="stable")
    ranks = np.empty(v.size, dtype=np.float64)
    i = 0
    while i < v.size:
        j = i
        while j + 1 < v.size and v[order[j + 1]] == v[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def test_average_ranks_match_the_loop():
    """Ties, NaNs (each its own run) and distinct values."""
    rng = np.random.default_rng(2)
    for _ in range(300):
        n = int(rng.integers(1, 9))
        v = rng.integers(0, 4, size=n).astype(float)
        if rng.uniform() < 0.3:
            v[rng.integers(n, size=2)] = np.nan
        if rng.uniform() < 0.2:
            v = rng.normal(size=n)
        assert _average_ranks(v).tobytes() == loop_average_ranks(v).tobytes()


def read_rows(path) -> list[list[str]]:
    with open(path, newline="") as f:
        return list(csv.reader(f))


def test_csv_round_trip_empty(tmp_path):
    path = str(tmp_path / "t.csv")
    write_table(CsvTable(["a", "b"]), path)
    assert read_rows(path) == [["a", "b"]]


def test_csv_round_trip_bit_exact(tmp_path):
    t = CsvTable(["step", "value", "name"])
    t.append([1, -1.2345678901234567e-12, "alpha"])
    t.append([2, 3.7e300, "beta"])
    t.append([3, -0.0, "gamma"])
    path = str(tmp_path / "t.csv")
    write_table(t, path)
    header, *rows = read_rows(path)
    assert header == t.header and len(rows) == len(t.rows)
    for row_a, row_b in zip(t.rows, rows):
        assert row_a[0] == int(row_b[0])
        assert np.float64(row_a[1]).tobytes() == np.float64(float(row_b[1])).tobytes()
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


def test_csv_append_width_check():
    t = CsvTable(["a"])
    with pytest.raises(CsvError):
        t.append([1, 2])
