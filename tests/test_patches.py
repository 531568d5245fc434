import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from conftest import straight_route_model, traces_from_fractions
from headwaylab import patches
from headwaylab.patches import (BinCounts, PatchError, PatchStructure, bin_counts,
                                jenks_cluster_counts, patch_of, read_patches, write_patches)


def test_patch_of_boundaries():
    ps = PatchStructure(10, [3, 7])
    assert patch_of(ps, 0.0) == 1
    assert patch_of(ps, 0.3) == 2  # f = b1 exactly -> next patch (half-open)
    assert patch_of(ps, 1 - 1e-9) == 3
    with pytest.raises(PatchError):
        patch_of(ps, 1.0)
    with pytest.raises(PatchError):
        patch_of(ps, -0.1)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 9), min_size=1, max_size=6),
       st.floats(0, 1, exclude_max=True))
def test_patches_partition_unit_interval(widths, f):
    gamma = sum(widths)
    breaks = list(itertools.accumulate(widths))[:-1]
    ps = PatchStructure(gamma, breaks)
    j = patch_of(ps, f)
    lo, hi = ps.spans()[j - 1]
    assert lo <= f < hi
    assert ps.n == len(widths)


def segmentation_ssd(d, cuts):
    """Within-segment SSD of d cut before each index in cuts."""
    edges = [0, *cuts, len(d)]
    total = 0.0
    for a, b in zip(edges, edges[1:]):
        seg = d[a:b]
        mean = sum(seg) / len(seg)
        total += sum((x - mean) ** 2 for x in seg)
    return total


def brute_force_objective(d, n):
    """Best within-segment SSD over all contiguous n-segmentations."""
    return min(segmentation_ssd(d, cuts)
               for cuts in itertools.combinations(range(1, len(d)), n - 1))


def test_jenks_matches_brute_force_small():
    rng = np.random.default_rng(0)
    for _ in range(30):
        gamma = int(rng.integers(4, 13))
        n = int(rng.integers(2, min(5, gamma)))
        counts = BinCounts(gamma, list(rng.integers(0, 50, size=gamma)))
        breaks = jenks_cluster_counts(counts, n).break_bins
        assert segmentation_ssd(counts.counts, breaks) == pytest.approx(
            brute_force_objective(counts.counts, n), abs=1e-9)


def test_jenks_degenerate_all_equal_leftmost():
    counts = BinCounts(8, [5] * 8)
    ps = jenks_cluster_counts(counts, 4)
    assert ps.break_bins == [1, 2, 3]


def test_jenks_deterministic():
    rng = np.random.default_rng(3)
    counts = BinCounts(20, list(rng.integers(0, 100, size=20)))
    a = jenks_cluster_counts(counts, 5)
    b = jenks_cluster_counts(counts, 5)
    assert a.break_bins == b.break_bins


def test_jenks_rejects_excess_classes():
    with pytest.raises(PatchError):
        jenks_cluster_counts(BinCounts(4, [1, 2, 3, 4]), 5)


def test_jenks_counts_recovers_steps():
    counts = BinCounts(12, [50, 52, 48, 9, 11, 10, 30, 31, 29, 28, 70, 71])
    ps = jenks_cluster_counts(counts, 4)
    assert ps.break_bins == [3, 6, 10]


def test_bin_counts_uniform_loop_chi_square():
    rm = straight_route_model(n_edges=10, edge_len=100.0, radius=30.0)
    # constant-speed loop sampled uniformly in time
    loop_s = 2000.0
    samples = []
    t = 0.0
    while t < 400000:
        samples.append((t, (t / loop_s) % 1.0))
        t += 35.0
    ts = traces_from_fractions(rm, samples)
    counts = bin_counts(ts, rm, gamma=20)
    res = stats.chisquare(counts.counts)
    assert res.pvalue > 0.01


def test_bin_counts_requires_matches():
    rm = straight_route_model(radius=1.0)
    from headwaylab.ingest import TraceSet
    ts = TraceSet({"v": [(0, 0.0, 500.0)]})
    with pytest.raises(PatchError):
        bin_counts(ts, rm, gamma=10)


def test_patches_file_roundtrip(tmp_path):
    ps = PatchStructure(40, [2, 8, 14, 18, 20, 26, 33])
    path = str(tmp_path / "p.txt")
    write_patches(ps, path)
    back = read_patches(path)
    assert back.break_bins == ps.break_bins
    assert back.gamma == ps.gamma


def test_patches_file_validation(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("0.0\n0.5\n0.9\n")
    with pytest.raises(PatchError):
        read_patches(str(p))
