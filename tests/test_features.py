"""Tests for feature enumeration, network evaluation, the piecewise Taylor
approximant, and the architecture audit."""

import itertools
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixnet import _kernel, features, netblocks
from fixnet.netblocks import BlockParams, exact_hat, f_hat, f_id, f_mult
from fixnet.errors import FeatureCountError, ParameterError
from fixnet.features import (
    ENTRY_BUDGET,
    FeatureDescriptor,
    FeatureSet,
    architecture_summary,
    count_features_cube,
    count_features_pp,
    enumerate_features_cube,
    enumerate_features_pp,
    eval_exact_target,
    eval_feature,
    multi_indices,
    partition_of_unity_check,
    scale_lower_bound,
    taylor_patch_P,
)
from fixnet.ridge import build_design_matrix
from fixnet.rng import Stream

from conftest import bitwise_equal

DIRECTIONS = np.array([[0.8, 0.6], [-0.35, 0.9]])


def test_multi_indices_enumeration():
    assert multi_indices(2, 2) == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]
    assert multi_indices(1, 0) == [(0,)]
    assert len(multi_indices(3, 4)) == math.comb(4 + 3, 3)


def test_feature_counts_match_formulas():
    for d, n_cap, m_grid in [(1, 0, 1), (2, 2, 2), (3, 1, 4), (2, 3, 0)]:
        feats = enumerate_features_cube(d, n_cap, m_grid, 1.0, 1e5)
        assert len(feats) == count_features_cube(d, n_cap, m_grid)
        assert len(feats) == (m_grid + 1) ** d * math.comb(n_cap + d, d)
    for r in (1, 2):
        feats = enumerate_features_pp(2, 2, 4, 1.0, 1e5, DIRECTIONS[:r])
        assert len(feats) == count_features_pp(2, 2, 4, r)
        assert len(feats) == r * 5 * 6


def test_cube_anchor_grid_placement():
    a, M = 0.7, 3
    feats = enumerate_features_cube(2, 1, M, a, 1e5)
    step = 2.0 * a / M
    for f in feats:
        assert f.kind == "cube"
        for idx, coord in zip(f.anchor_index, f.anchor):
            assert coord == pytest.approx(-a + idx * step, abs=1e-15)
        assert all(-a - 1e-12 <= c <= a + 1e-12 for c in f.anchor)


def test_line_anchor_grid_placement():
    A, M, d = 0.9, 4, 2
    half = math.sqrt(d) * A
    feats = enumerate_features_pp(d, 1, M, A, 1e5, DIRECTIONS)
    step = 2.0 * half / M
    for f in feats:
        assert f.kind == "line"
        assert f.half_width == pytest.approx(half, rel=1e-15)
        assert f.amplitude == A
        assert f.anchor == pytest.approx(-half + f.anchor_index * step, abs=1e-15)
        assert f.direction in (tuple(DIRECTIONS[0]), tuple(DIRECTIONS[1]))


def test_enumeration_order_is_lexicographic():
    feats = enumerate_features_cube(1, 1, 1, 1.0, 1e5)
    keys = [(f.anchor_index, f.multi_index) for f in feats]
    assert keys == [((0,), (0,)), ((0,), (1,)), ((1,), (0,)), ((1,), (1,))]
    line = enumerate_features_pp(2, 1, 1, 1.0, 1e5, DIRECTIONS)
    line_keys = [(f.direction_index, f.anchor_index, f.multi_index) for f in line]
    assert line_keys == sorted(line_keys)


def _reference_cube(d, N, M, a, R):
    # The enumeration as nested loops over descriptors, kept here as the
    # definition the FeatureSet must reproduce.
    step = 2.0 * a / M if M > 0 else 0.0
    js = [j for j in itertools.product(range(N + 1), repeat=d) if sum(j) <= N]
    return [FeatureDescriptor(kind="cube", d=d, degree_cap=N, multi_index=j,
                              anchor=tuple(-a + i * step for i in idx),
                              anchor_index=idx, M=M, half_width=float(a), R=R)
            for idx in itertools.product(range(M + 1), repeat=d) for j in js]


def _reference_line(d, N, M, A, R, directions):
    half = math.sqrt(d) * A
    step = 2.0 * half / M if M > 0 else 0.0
    js = [j for j in itertools.product(range(N + 1), repeat=d) if sum(j) <= N]
    return [FeatureDescriptor(kind="line", d=d, degree_cap=N, multi_index=j,
                              anchor=-half + i * step, anchor_index=i, M=M,
                              half_width=half, R=R, amplitude=float(A),
                              direction=tuple(float(v) for v in b),
                              direction_index=l)
            for l, b in enumerate(directions) for i in range(M + 1) for j in js]


@pytest.mark.parametrize("d, N, M", [(1, 0, 0), (1, 2, 3), (2, 0, 4), (2, 2, 0),
                                     (3, 1, 2), (2, 3, 1), (4, 2, 1)])
def test_enumeration_matches_the_reference_loops(d, N, M):
    cube = enumerate_features_cube(d, N, M, 0.7, 1e5)
    assert isinstance(cube, FeatureSet)
    assert len(cube) == count_features_cube(d, N, M)
    want = _reference_cube(d, N, M, 0.7, 1e5)
    assert list(cube) == want
    assert [cube[c] for c in range(-len(cube), len(cube))] == want + want
    assert cube[1::3] == want[1::3]
    for r in (1, 3):
        directions = Stream(d + N + M).uniform_matrix(r, d, low=-1.0, high=1.0)
        line = enumerate_features_pp(d, N, M, 0.9, 1e6, directions)
        assert len(line) == count_features_pp(d, N, M, r)
        want = _reference_line(d, N, M, 0.9, 1e6, directions)
        assert list(line) == want
        assert line[-1] == want[-1] and line[::5] == want[::5]
    with pytest.raises(IndexError):
        cube[len(cube)]


def test_multi_indices_stay_cheap_in_high_dimension():
    # Built from the prefix tree, not by filtering all (N+1)^d tuples
    # (3^40 here), and oversized tables are refused before any is built.
    table = multi_indices(40, 2)
    assert len(table) == math.comb(42, 2)
    assert table[:3] == [(0,) * 40, (0,) * 39 + (1,), (0,) * 39 + (2,)]
    assert table == sorted(table) and all(sum(j) <= 2 for j in table)
    # d = 2^24 + 1 makes 2^25 leaves.
    with pytest.raises(FeatureCountError, match="product-tree leaf count"):
        enumerate_features_cube(2**24 + 1, 0, 0, 1.0, 1e5)
    # a = 0.5 keeps (2a)^N = 1 within R, so the size screen refuses.
    with pytest.raises(FeatureCountError, match="about 10\\^"):
        enumerate_features_cube(10**9, 10**9, 10**9, 0.5, 1e5)


def test_tree_size_exponent():
    cube = enumerate_features_cube(2, 2, 1, 1.0, 1e5)[0]
    assert cube.s == math.ceil(math.log2(2 + 2))
    line = enumerate_features_pp(2, 2, 1, 1.0, 1e5, DIRECTIONS)[0]
    assert line.s == math.ceil(math.log2(2 + 1))


def test_feature_count_guard():
    # (M+1)^d alone exceeds the cap: 11^8 > 2^24.
    with pytest.raises(FeatureCountError):
        enumerate_features_cube(8, 2, 10, 1.0, 1e5)
    with pytest.raises(FeatureCountError):
        enumerate_features_pp(1, 0, ENTRY_BUDGET, 1.0, 1e5, np.array([[1.0]]))


def test_size_rule_boundary_allocates_nothing():
    # rows * J = 2^24 entries is admitted and one more is refused, the
    # same for the feature count (rows = 1) and for a fit's design.  A
    # projection set with d = 1, N = 0 and r = 1 has J = M + 1.
    assert features._checked_count("line", 1, 0, 2**24 - 1) == 2**24
    assert features._checked_count("line", 1, 0, 0, rows=2**24) == 1
    assert features._checked_count("line", 1, 0, 2**12 - 1, rows=2**12) == 2**12
    with pytest.raises(FeatureCountError, match=r"feature count J=16777217 "
                       r"exceeds the supported maximum 16777216"):
        features._checked_count("line", 1, 0, 2**24)
    with pytest.raises(FeatureCountError,
                       match=r"n=16777217 rows x J=1 features .* lower r, N or M"):
        features._checked_count("line", 1, 0, 0, rows=2**24 + 1)
    with pytest.raises(FeatureCountError, match=r"n=3 rows x J=5592406 .* lower N or M"):
        features._checked_count("cube", 1, 0, 5592405, rows=3)
    # A cube of d = 2^24 has exactly 2^24 leaves.
    assert features._checked_count("cube", 2**24, 0, 0) == 1
    # The design-work budget trials * (rows * J + 2^14) <= 2^30.
    assert features._checked_count("line", 1, 0, 0, rows=2**24, trials=63) == 1
    with pytest.raises(ParameterError, match="trials must be at most 63 for "
                       "n=16777216 rows and J=1 features"):
        features._checked_count("line", 1, 0, 0, rows=2**24, trials=64)
    # The multi-index table holds d entries per tree: a projection tree's
    # 2^s leaves do not grow with d, the table does (at d = 2,800 an
    # 81.9 GiB table).  The pp_fit and smooth_fit benchmark shapes pass.
    for d in (2800, 700):
        with pytest.raises(FeatureCountError, match=rf"d={d}, N=2 comes to"):
            features._checked_count("line", d, 2, 0, 1, rows=4, trials=50)
    assert features._checked_count("line", 6, 2, 16, 4, rows=100,
                                   trials=50) == 1904
    assert features._checked_count("cube", 4, 2, 2, rows=4000) == 1215


def test_enumeration_parameter_validation():
    with pytest.raises(ParameterError):
        enumerate_features_cube(0, 2, 2, 1.0, 1e5)
    with pytest.raises(ParameterError):
        enumerate_features_cube(2, 2, 2, 0.0, 1e5)
    with pytest.raises(ParameterError):
        enumerate_features_pp(2, 2, 2, 1.0, 1e5, np.array([[1.5, 0.0]]))
    with pytest.raises(ParameterError):
        enumerate_features_pp(2, 2, 2, 1.0, 1e5, np.zeros((0, 2)))
    with pytest.raises(ParameterError, match="^invalid grid parameters d=0"):
        enumerate_features_pp(0, 2, 2, 1.0, 1e5, np.zeros((1, 0)))
    for directions in (np.ones((2, 3)) / 2, np.ones(2) / 2):
        with pytest.raises(ParameterError,
                           match="^directions must be an r x 2 matrix, "
                                 + re.escape(f"got shape {directions.shape}") + "$"):
            enumerate_features_pp(2, 2, 2, 1.0, 1e5, directions)
    for N, M, A in ((-1, 2, 1.0), (2, -1, 1.0), (2, 2, 0.0), (2, 2, -1.0),
                    (2, 2, float("nan"))):
        with pytest.raises(ParameterError,
                           match=rf"^invalid grid parameters N={N}, M={M}, "
                                 rf"A={A}$"):
            enumerate_features_pp(2, N, M, A, 1e5, DIRECTIONS)
    for name, make in (("a", lambda h, R: enumerate_features_cube(2, 0, 2, h, R)),
                       ("A", lambda h, R: enumerate_features_pp(2, 0, 2, h, R,
                                                                DIRECTIONS))):
        with pytest.raises(ParameterError, match=rf"^invalid grid parameters "
                                                 rf"N=0, M=2, {name}=inf$"):
            make(math.inf, 1e6)
        for R in (0.0, -1.0, math.nan):
            with pytest.raises(ParameterError, match="^scale R must be positive"):
                make(1.0, R)


def test_exact_target_spot_values():
    f = enumerate_features_cube(2, 1, 2, 1.0, 1e5)[0]
    # First feature: anchor (-1, -1), multi-index (0, 0); hats have
    # half-width 2a/M = 1.
    assert f.anchor == (-1.0, -1.0) and f.multi_index == (0, 0)
    assert eval_exact_target(np.array([-1.0, -1.0]), f) == 1.0
    assert eval_exact_target(np.array([-0.5, -1.0]), f) == pytest.approx(0.5)
    assert eval_exact_target(np.array([0.5, -1.0]), f) == 0.0

    line = enumerate_features_pp(2, 1, 2, 1.0, 1e5, np.array([[0.6, 0.8]]))
    g = [f for f in line if f.multi_index == (1, 0) and f.anchor_index == 1][0]
    pt = np.array([0.5, -0.25])
    proj = 0.6 * 0.5 + 0.8 * -0.25
    want = 0.5 * exact_hat(proj, g.anchor, g.M, g.half_width)
    assert eval_exact_target(pt, g) == pytest.approx(want, rel=1e-12)


def _brute_force_network(xb, f):
    """Re-derive the evaluation from the public blocks: monomial leaves are
    identity blocks applied twice, tents are hat blocks, padding is 1, and
    the leaves fold pairwise through product netblocks."""
    params = BlockParams(R=f.R)
    leaves = []
    if f.kind == "cube":
        for l, j in enumerate(f.multi_index):
            for _ in range(j):
                leaves.append(f_id(f_id(xb[:, l] - f.anchor[l], params), params))
        hat_params = BlockParams(R=f.R, a=f.half_width, M=f.M)
        for k in range(f.d):
            leaves.append(f_hat(xb[:, k], f.anchor[k], hat_params))
    else:
        for l, j in enumerate(f.multi_index):
            for _ in range(j):
                leaves.append(f_id(f_id(xb[:, l], params), params))
        hat_params = BlockParams(R=f.R, a=f.half_width, M=f.M)
        leaves.append(f_hat(xb @ np.asarray(f.direction), f.anchor, hat_params))
    leaves.extend([np.ones(xb.shape[0])] * (2**f.s - len(leaves)))
    while len(leaves) > 1:
        leaves = [f_mult(leaves[2 * k], leaves[2 * k + 1], params) for k in range(len(leaves) // 2)]
    return leaves[0]


def test_network_evaluation_matches_brute_force_composition():
    xb = Stream(5).uniform_matrix(40, 2, low=-1.0, high=1.0)
    for f in enumerate_features_cube(2, 2, 2, 1.0, 1e5):
        assert np.max(np.abs(eval_feature(xb, f) - _brute_force_network(xb, f))) <= 1e-12
    for f in enumerate_features_pp(2, 2, 3, 1.0, 1e5, DIRECTIONS):
        assert np.max(np.abs(eval_feature(xb, f) - _brute_force_network(xb, f))) <= 1e-12


def test_network_error_decays_like_one_over_R():
    side = np.linspace(-1.0, 1.0, 21)
    gx, gy = np.meshgrid(side, side)
    grid = np.column_stack([gx.ravel(), gy.ravel()])

    def worst(feats):
        return max(float(np.max(np.abs(eval_feature(grid, f)
                                       - eval_exact_target(grid, f))))
                   for f in feats)

    cube_lo = worst(enumerate_features_cube(2, 2, 2, 1.0, 1e5))
    cube_hi = worst(enumerate_features_cube(2, 2, 2, 1.0, 1e8))
    line_lo = worst(enumerate_features_pp(2, 2, 4, 1.0, 1e5, DIRECTIONS))
    line_hi = worst(enumerate_features_pp(2, 2, 4, 1.0, 1e8, DIRECTIONS))
    # Three decades of scale must buy at least a factor 500 (and about
    # 1000 in practice) in the whole-network error.
    assert 500.0 <= cube_lo / cube_hi <= 2000.0
    assert 500.0 <= line_lo / line_hi <= 2000.0


def test_degenerate_single_anchor_grid():
    # M = 0 keeps one anchor at -a and turns every tent into the constant 1.
    feats = enumerate_features_cube(1, 2, 0, 1.0, 1e5)
    assert len(feats) == 3
    xs = np.linspace(-1.0, 1.0, 31)[:, None]
    for f in feats:
        exact = eval_exact_target(xs, f)
        want = (xs[:, 0] + 1.0) ** sum(f.multi_index)
        assert np.array_equal(exact, want)
        assert np.max(np.abs(eval_feature(xs, f) - exact)) <= 0.05


def test_eval_feature_refuses_a_point_of_another_dimension():
    cube = enumerate_features_cube(1, 1, 1, 1.0, 1e5)[0]
    with pytest.raises(ParameterError):
        eval_feature(np.zeros(3), cube)


def test_single_point_returns_scalar():
    cube = enumerate_features_cube(2, 1, 2, 1.0, 1e5)[0]
    out = eval_feature(np.array([0.1, -0.2]), cube)
    assert isinstance(out, float)


def test_taylor_patch_reproduces_polynomials():
    # A degree-2 polynomial with q=2 must be reproduced exactly (up to
    # rounding) because the tents form a partition of unity.
    coeff = {(0, 0): 1.0, (1, 0): 2.0, (0, 1): -3.0, (1, 1): 0.5, (2, 0): -0.75}

    def poly(x):
        x = np.atleast_2d(x)
        return sum(
            c * x[:, 0] ** j1 * x[:, 1] ** j2 for (j1, j2), c in coeff.items()
        )

    def oracle(anchor, alpha):
        # Exact partial derivative of the polynomial at the anchor.
        total = 0.0
        for (j1, j2), c in coeff.items():
            if j1 < alpha[0] or j2 < alpha[1]:
                continue
            factor = c
            factor *= math.perm(j1, alpha[0]) * math.perm(j2, alpha[1])
            total += (
                factor
                * anchor[0] ** (j1 - alpha[0])
                * anchor[1] ** (j2 - alpha[1])
            )
        return total

    pts = Stream(2).uniform_matrix(200, 2, low=-1.0, high=1.0)
    for m_grid in (1, 3, 6):
        got = taylor_patch_P(pts, oracle, m_grid, 1.0, 2)
        assert np.max(np.abs(got - poly(pts))) <= 1e-10


def test_taylor_patch_error_shrinks_with_grid():
    def oracle(anchor, alpha):
        k = alpha[0]
        return float(np.pi**k * np.sin(np.pi * anchor[0] + k * np.pi / 2.0))

    xs = np.linspace(-1.0, 1.0, 501)[:, None]
    errs = [
        float(np.max(np.abs(taylor_patch_P(xs, oracle, m, 1.0, 1) - np.sin(np.pi * xs[:, 0]))))
        for m in (4, 8)
    ]
    assert errs[1] < errs[0] / 2.0


def test_taylor_patch_guards():
    with pytest.raises(ParameterError):
        taylor_patch_P(np.zeros((1, 1)), lambda a, al: 0.0, 0, 1.0, 1)
    # A flat vector is one point of that dimension; absurd dimensions must
    # be refused rather than looping forever.
    with pytest.raises(FeatureCountError):
        taylor_patch_P(np.zeros(100), lambda a, al: 0.0, 4, 1.0, 1)


def test_partition_of_unity_check():
    pts1 = Stream(3).uniforms(500, low=-1.0, high=1.0)
    assert partition_of_unity_check(7, 1.0, 1, pts1) <= 1e-12
    pts2 = Stream(4).uniform_matrix(500, 2, low=-0.8, high=0.8)
    assert partition_of_unity_check(3, 0.8, 2, pts2) <= 1e-12
    with pytest.raises(ParameterError):
        partition_of_unity_check(3, 1.0, 2, pts1[:, None])


def test_architecture_summary_widths_and_depth():
    cube = enumerate_features_cube(2, 2, 1, 1.0, 1e5)[0]
    summary = architecture_summary(cube)
    assert summary.hidden_layers == cube.s + 2 == 4
    assert summary.widths == (24, 48, 8, 4)
    assert summary.width_cap == 24 * (2 + 2)
    assert max(summary.widths) <= summary.width_cap
    assert math.isfinite(summary.max_weight_magnitude)
    assert summary.max_weight_magnitude >= cube.R

    line = enumerate_features_pp(2, 2, 1, 1.0, 1e5, DIRECTIONS)[0]
    line_summary = architecture_summary(line)
    assert line_summary.width_cap == 24 * (2 + 1)
    assert max(line_summary.widths) <= line_summary.width_cap


def test_scale_lower_bound_at_the_benchmark_shapes():
    # The worst-case R of the approximation theory, read on request; no
    # supported R (at most 1e8) meets it at the benchmark's fit shapes.
    directions = Stream(3).uniform_matrix(4, 6, low=-1.0, high=1.0)
    pp = enumerate_features_pp(6, 2, 16, 1.0, 1e5, directions)
    assert scale_lower_bound(pp) == pytest.approx(6.994e13, rel=1e-4)
    assert scale_lower_bound(pp[0]) == scale_lower_bound(pp)
    cube = enumerate_features_cube(4, 2, 2, 1.0, 1e5)
    assert scale_lower_bound(cube) == pytest.approx(4.067e39, rel=1e-4)
    # A power in the bound overflows: no finite R meets it.
    huge = enumerate_features_pp(2, 0, 2, 1e300, 1e5, DIRECTIONS[:1])
    assert scale_lower_bound(huge) == math.inf
    # One tent and no monomial: the one kind of shape R = 1e6 meets.
    small = enumerate_features_pp(2, 0, 2, 1.0, 1e5, DIRECTIONS[:1])
    assert scale_lower_bound(small) == pytest.approx(4.463e5, rel=1e-4)
    assert scale_lower_bound(small) < 1e6


# ---------------------------------------------------------------------------
# the compiled plan of build_design_matrix against the single-feature oracle
# ---------------------------------------------------------------------------

def _level_widths(kind, d, N, M, r=1):
    return [left.size for left, _ in features._plan(kind, d, N, M, r)]


def test_plan_evaluates_each_node_once_per_anchor_sub_tuple():
    # Projection, d=6, N=2, M=16, r=4: 28 multi-indices over 4-leaf
    # trees, 68 (direction, anchor) groups.  Level 1 holds 7 tent pairs
    # per group and the 22 (one, one) and (monomial, monomial) products
    # once for all groups; the root level holds the 1,904 features.
    assert _level_widths("line", 6, 2, 16, 4) == [7 * 68 + 22, 1904]
    # Cube, d=4, N=2, M=2: 15 multi-indices over 8-leaf trees, 81 groups.
    assert _level_widths("cube", 4, 2, 2) == [127, 526, 1215]
    # Cube, d=2, N=2, M=2: 6 multi-indices over 4-leaf trees, 9 groups.
    # Level 1 has 8 distinct leaf pairs.  (tent 0, tent 1), (mono 1,
    # tent 0) and (mono 0, mono 1) depend on both anchors, 9 instances
    # each; (tent 1, one), (mono 1, mono 1), (mono 0, tent 0) and (mono 0,
    # mono 0) on one anchor, 3 each; (one, one) on none, 1.  That is 40,
    # where a per-group level holds 7 * 9 + 1 = 64.  The root level holds
    # the 9 * 6 = 54 features.
    assert _level_widths("cube", 2, 2, 2) == [9 * 3 + 3 * 4 + 1, 54]
    # A one-leaf tree has no product level.
    assert _level_widths("cube", 1, 0, 3) == []
    assert _level_widths("line", 3, 0, 3, 2) == []


def test_cube_design_is_bitwise_the_oracle_on_every_column():
    # The smooth-fit plan shape: three product levels of 127, 526 and
    # 1,215 instances.
    feats = enumerate_features_cube(4, 2, 2, 1.0, 1e6)
    x = Stream(21).uniform_matrix(8, 4, low=-1.0, high=1.0)
    design = features.eval_features(feats, x)
    assert design.shape == (8, 1215)
    for j, f in enumerate(feats):
        assert bitwise_equal(design[:, j], eval_feature(x, f)), (j, f)


def test_design_memory_is_bounded_by_the_block_budget(monkeypatch):
    # The widest level (1,215 roots) exceeds the budget, so rows are
    # folded one at a time.  Besides the design, the fold holds three
    # buffers of max(budget, widest) entries (seven on the numpy path)
    # that every block reuses (the bound allows ten); the leaf table of
    # 16 rows (16 x 25 values) is smaller than one of them.
    feats = enumerate_features_cube(4, 2, 2, 1.0, 1e6)
    x = Stream(22).uniform_matrix(16, 4, low=-1.0, high=1.0)
    budget = 256
    monkeypatch.setattr(features, "_BLOCK_ENTRY_BUDGET", budget)
    widest = max(_level_widths("cube", 4, 2, 2))
    assert widest > budget
    features.eval_features(feats, x[:1])  # compile and cache the plan
    tracemalloc.start()
    try:
        design = features.eval_features(feats, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < design.nbytes + 10 * max(budget, widest) * design.itemsize


@pytest.mark.parametrize("n", [2000, 8000])
def test_design_temporaries_do_not_grow_with_the_batch(n):
    # The pp_predict feature set: 68 tent columns, so leaf blocks of 238
    # rows, folded 17 rows at a time.  Besides the design, the call holds
    # one leaf block, the fold's buffers, one block's tent work and the
    # n x 4 projections, not an (n, 75) leaf table; the bound allows 16
    # arrays of the entry budget.
    directions = Stream(4).uniform_matrix(4, 6, low=-1.0, high=1.0)
    feats = enumerate_features_pp(6, 2, 16, 1.0, 1e5, directions)
    x = Stream(n).uniform_matrix(n, 6, low=-1.0, high=1.0)
    features.eval_features(feats, x[:1])  # compile the plan, cache constants
    tracemalloc.start()
    try:
        design = features.eval_features(feats, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert design.shape == (n, 1904)
    assert peak - design.nbytes < 16 * features._BLOCK_ENTRY_BUDGET * 8, peak


def _blocks(n, step):
    return [min(step, n - start) for start in range(0, n, step)]


@pytest.mark.parametrize("kind, d, N, M, n, leaf, fold", [
    # The pp_fit model: 68 tent columns and a widest level of 1,904.
    ("line", 6, 2, 16, 8811, 238, 17),
    # The smooth_fit design: 12 tent columns, widest level 1,215.
    ("cube", 4, 2, 2, 4000, 1352, 26),
    # One-leaf trees: no fold, blocks of 2^15 // (2 * 68) rows.
    ("line", 6, 0, 16, 1000, 240, None),
])
def test_design_rows_go_in_leaf_blocks_folded_in_sub_blocks(
        monkeypatch, kind, d, N, M, n, leaf, fold):
    # A leaf block is the largest multiple of the fold step up to
    # 2^15 // (2 * tents) rows, the fold step 2^15 // widest rows.
    x = Stream(23).uniform_matrix(n, d, low=-1.0, high=1.0)
    if kind == "cube":
        feats = enumerate_features_cube(d, N, M, 1.0, 1e6)
    else:
        directions = Stream(4).uniform_matrix(4, d, low=-1.0, high=1.0)
        feats = enumerate_features_pp(d, N, M, 1.0, 1e5, directions)
    hat_rows, fold_rows = [], []

    def hat_network(x, *args):
        hat_rows.append(x.shape[0])
        return hat(x, *args)

    def f_mult(x, y, params, **kwargs):
        if "scratch" in kwargs:  # the fold's calls, not the tents'
            fold_rows.append(x.shape[0])
        return mult(x, y, params, **kwargs)

    hat, mult = netblocks._hat_network, netblocks.f_mult
    monkeypatch.setattr(netblocks, "_hat_network", hat_network)
    monkeypatch.setattr(netblocks, "f_mult", f_mult)
    features.eval_features(feats, x)
    assert hat_rows == _blocks(n, leaf)
    levels = len(_level_widths(kind, d, N, M, 1 if kind == "cube" else 4))
    assert fold_rows == [rows for block in _blocks(n, leaf)
                         for rows in _blocks(block, fold or 1)
                         for _ in range(levels)]


@st.composite
def _feature_sets(draw):
    kind = draw(st.sampled_from(["cube", "line"]))
    d = draw(st.integers(1, 3 if kind == "cube" else 4))
    N = draw(st.integers(0, 3))
    M = draw(st.integers(0, 3 if kind == "cube" else 5))
    R = 10.0 ** draw(st.floats(1.0, 8.0))
    if kind == "cube":
        return enumerate_features_cube(d, N, M, 1.0, R)
    r = draw(st.integers(1, 3))
    entries = st.floats(-1.0, 1.0, allow_nan=False)
    directions = np.array(draw(st.lists(st.lists(entries, min_size=d, max_size=d),
                                        min_size=r, max_size=r)))
    if draw(st.booleans()):
        # Every direction twice: groups whose columns are equal, each
        # still evaluated from its own row of the direction matrix.
        directions = np.repeat(directions, 2, axis=0)
    return enumerate_features_pp(d, N, M, 1.0, R, directions)


@settings(max_examples=60, deadline=None)
@given(feats=_feature_sets(), n=st.integers(1, 40), point=st.booleans(),
       seed=st.integers(0, 2**16), budget=st.sampled_from([1, 5, 64, 2**14]))
def test_design_matrix_is_bitwise_the_single_feature_oracle(feats, n, point,
                                                            seed, budget):
    # Small entry budgets split the plan into many row and group blocks.
    d = feats.d
    x = Stream(seed).uniform_matrix(n, d, low=-1.2, high=1.2)
    if point:
        x = x[0]
    with mock.patch.object(features, "_BLOCK_ENTRY_BUDGET", budget):
        design = build_design_matrix(feats, x)
        assert design.values.shape == (1 if point else n, len(feats))
        for j, f in enumerate(feats):
            want = eval_feature(x, f)
            got = design.values[0, j] if point else design.values[:, j]
            assert bitwise_equal(got, want), (j, f)


def test_design_and_oracle_keep_their_bits_without_the_compiled_kernel(
        monkeypatch):
    # Where the kernel cannot be built, every f_mult takes its numpy
    # path: the designs of the two benchmark plan shapes keep their bits,
    # and eval_features still equals eval_feature.
    directions = Stream(31).uniform_matrix(4, 6, low=-1.0, high=1.0)
    sets = [enumerate_features_cube(4, 2, 2, 1.0, 1e6),
            enumerate_features_pp(6, 2, 16, 1.0, 1e6, directions)]
    points = [Stream(32).uniform_matrix(70, fs.d, low=-1.0, high=1.0)
              for fs in sets]
    want = [features.eval_features(fs, x) for fs, x in zip(sets, points)]
    monkeypatch.setattr(_kernel, "library", lambda: None)
    for fs, x, design in zip(sets, points, want):
        assert bitwise_equal(features.eval_features(fs, x), design)
    test_design_matrix_is_bitwise_the_single_feature_oracle()


def _benchmark_sets():
    """The plan shapes of the smooth_fit and pp_fit benchmark workloads."""
    directions = Stream(31).uniform_matrix(4, 6, low=-1.0, high=1.0)
    return [enumerate_features_cube(4, 2, 2, 1.0, 1e6),
            enumerate_features_pp(6, 2, 16, 1.0, 1e6, directions)]


def _skip_without_kernel():
    if _kernel.library() is None:
        pytest.skip("the compiled kernel cannot be built on this host")


# Signed zeros, subnormals, +-1e300, +-inf and NaN.
_EDGES = np.array([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, np.inf,
                   -np.inf, np.nan])


@pytest.mark.parametrize("kind, d, N, M, r", [("cube", 4, 2, 2, 1),
                                              ("line", 6, 2, 16, 4)])
def test_compiled_levels_are_bitwise_their_numpy_path(monkeypatch, kind, d,
                                                      N, M, r):
    # Every fold level of the two benchmark plan shapes as f_mult's index
    # form, on leaf values with edge values among them: NaN lands in the
    # same places, and every other entry has the numpy path's bits.
    _skip_without_kernel()
    V, _ = features._leaf_instances(kind, d, M, r)
    folds = features._plan(kind, d, N, M, r)
    rng = np.random.default_rng(V)
    values = rng.uniform(-1.5, 1.5, (5, V))
    values.flat[rng.choice(values.size, 60, replace=False)] = (
        rng.choice(_EDGES, 60))
    params = BlockParams(R=1e6)

    def levels():
        found, level = [], values
        for left, right in folds:
            level = f_mult(level, level, params, left=left, right=right)
            found.append(level)
        return found

    with np.errstate(all="ignore"):
        got = levels()
        monkeypatch.setattr(_kernel, "library", lambda: None)
        want = levels()
    assert len(got) == len(folds) >= 2
    for level, expected in zip(got, want):
        nan = np.isnan(expected)
        assert nan.any() and not nan.all()
        assert np.array_equal(np.isnan(level), nan)
        assert bitwise_equal(level[~nan], expected[~nan])


@pytest.mark.parametrize("budget, rows", [(2**15, 1412), (1000, 60)])
def test_compiled_design_is_bitwise_its_numpy_path(monkeypatch, budget,
                                                   rows):
    # At the entry budget, 1,412 rows take leaf blocks of 1,352 rows (cube)
    # and 238 (line), and the last fold sub-block of each last leaf block
    # is shorter than the fold step (26 and 17 rows).  At 1,000 entries,
    # below each plan's widest level, the fold takes one-row sub-blocks.
    # Some rows lie outside the cube.
    sets = _benchmark_sets()
    points = [Stream(33).uniform_matrix(rows, fs.d, low=-1.2, high=1.2)
              for fs in sets]
    monkeypatch.setattr(features, "_BLOCK_ENTRY_BUDGET", budget)
    want = [features.eval_features(fs, x) for fs, x in zip(sets, points)]
    monkeypatch.setattr(_kernel, "library", lambda: None)
    for fs, x, design in zip(sets, points, want):
        assert bitwise_equal(features.eval_features(fs, x), design)


def test_design_keeps_its_bits_without_the_vector_clones(tmp_path,
                                                         monkeypatch):
    # The kernel built with FIXNET_NO_CLONES defined, one generic version
    # of each loop, gives the designs of the build whose loader picks a
    # clone for this CPU.
    _skip_without_kernel()
    with open(_kernel.SOURCE, "rb") as f:
        source = b"#define FIXNET_NO_CLONES 1\n" + f.read()
    path = str(tmp_path / "_kernel-generic.so")
    _kernel._compile(source, path)
    generic = _kernel.bind(path)
    sets = _benchmark_sets()
    points = [Stream(34).uniform_matrix(70, fs.d, low=-1.2, high=1.2)
              for fs in sets]
    want = [features.eval_features(fs, x) for fs, x in zip(sets, points)]
    monkeypatch.setattr(_kernel, "library", lambda: generic)
    for fs, x, design in zip(sets, points, want):
        assert bitwise_equal(features.eval_features(fs, x), design)
