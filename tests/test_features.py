"""Tests for feature enumeration, network evaluation, the piecewise Taylor
approximant, and the architecture audit."""

import contextlib
import dataclasses
import itertools
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixnet import features, netblocks
from fixnet.netblocks import BlockParams, exact_hat, f_hat, f_id, f_mult
from fixnet.errors import FeatureCountError, ParameterError
from fixnet.features import (
    MAX_FEATURES,
    FeatureDescriptor,
    FeatureSet,
    _compile_tree,
    architecture_summary,
    count_features_cube,
    count_features_pp,
    enumerate_features_cube,
    enumerate_features_pp,
    eval_exact_target_cube,
    eval_exact_target_pp,
    eval_f_net,
    eval_f_net_pp,
    eval_feature,
    multi_indices,
    partition_of_unity_check,
    taylor_patch_P,
)
from fixnet.ridge import build_design_matrix
from fixnet.rng import Stream

DIRECTIONS = np.array([[0.8, 0.6], [-0.35, 0.9]])


@contextlib.contextmanager
def _silence_low_r():
    with warnings.catch_warnings():
        warnings.filterwarnings(
            "ignore", message="scale R is below", category=RuntimeWarning
        )
        yield


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
    with pytest.raises(FeatureCountError, match="product-tree leaf count"):
        enumerate_features_cube(10**7, 0, 0, 1.0, 1e5)
    with pytest.raises(FeatureCountError, match="about 10\\^"):
        enumerate_features_cube(10**9, 10**9, 10**9, 1.0, 1e5)


def test_tree_size_exponent():
    cube = enumerate_features_cube(2, 2, 1, 1.0, 1e5)[0]
    assert cube.s == math.ceil(math.log2(2 + 2))
    line = enumerate_features_pp(2, 2, 1, 1.0, 1e5, DIRECTIONS)[0]
    assert line.s == math.ceil(math.log2(2 + 1))


def test_feature_count_guard():
    # (M+1)^d alone exceeds the cap: 11^8 > 1e7.
    with pytest.raises(FeatureCountError):
        enumerate_features_cube(8, 2, 10, 1.0, 1e5)
    with pytest.raises(FeatureCountError):
        enumerate_features_pp(1, 0, MAX_FEATURES + 1, 1.0, 1e5, np.array([[1.0]]))


def test_enumeration_parameter_validation():
    with pytest.raises(ParameterError):
        enumerate_features_cube(0, 2, 2, 1.0, 1e5)
    with pytest.raises(ParameterError):
        enumerate_features_cube(2, 2, 2, 0.0, 1e5)
    with pytest.raises(ParameterError):
        enumerate_features_pp(2, 2, 2, 1.0, 1e5, np.array([[1.5, 0.0]]))
    with pytest.raises(ParameterError):
        enumerate_features_pp(2, 2, 2, 1.0, 1e5, np.zeros((0, 2)))


def test_exact_target_spot_values():
    f = enumerate_features_cube(2, 1, 2, 1.0, 1e5)[0]
    # First feature: anchor (-1, -1), multi-index (0, 0); hats have
    # half-width 2a/M = 1.
    assert f.anchor == (-1.0, -1.0) and f.multi_index == (0, 0)
    assert eval_exact_target_cube(np.array([-1.0, -1.0]), f) == 1.0
    assert eval_exact_target_cube(np.array([-0.5, -1.0]), f) == pytest.approx(0.5)
    assert eval_exact_target_cube(np.array([0.5, -1.0]), f) == 0.0

    line = enumerate_features_pp(2, 1, 2, 1.0, 1e5, np.array([[0.6, 0.8]]))
    g = [f for f in line if f.multi_index == (1, 0) and f.anchor_index == 1][0]
    pt = np.array([0.5, -0.25])
    proj = 0.6 * 0.5 + 0.8 * -0.25
    want = 0.5 * exact_hat(proj, g.anchor, g.M, g.half_width)
    assert eval_exact_target_pp(pt, g) == pytest.approx(want, rel=1e-12)


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
    with _silence_low_r():
        for f in enumerate_features_cube(2, 2, 2, 1.0, 1e5):
            assert np.max(np.abs(eval_f_net(xb, f) - _brute_force_network(xb, f))) <= 1e-12
        for f in enumerate_features_pp(2, 2, 3, 1.0, 1e5, DIRECTIONS):
            assert np.max(np.abs(eval_f_net_pp(xb, f) - _brute_force_network(xb, f))) <= 1e-12


def test_network_error_decays_like_one_over_R():
    side = np.linspace(-1.0, 1.0, 21)
    gx, gy = np.meshgrid(side, side)
    grid = np.column_stack([gx.ravel(), gy.ravel()])

    def worst(feats, exact):
        return max(
            float(np.max(np.abs(eval_feature(grid, f) - exact(grid, f)))) for f in feats
        )

    with _silence_low_r():
        cube_lo = worst(enumerate_features_cube(2, 2, 2, 1.0, 1e5), eval_exact_target_cube)
        cube_hi = worst(enumerate_features_cube(2, 2, 2, 1.0, 1e8), eval_exact_target_cube)
        line_lo = worst(enumerate_features_pp(2, 2, 4, 1.0, 1e5, DIRECTIONS), eval_exact_target_pp)
        line_hi = worst(enumerate_features_pp(2, 2, 4, 1.0, 1e8, DIRECTIONS), eval_exact_target_pp)
    # Three decades of scale must buy at least a factor 500 (and about
    # 1000 in practice) in the whole-network error.
    assert 500.0 <= cube_lo / cube_hi <= 2000.0
    assert 500.0 <= line_lo / line_hi <= 2000.0


def test_degenerate_single_anchor_grid():
    # M = 0 keeps one anchor at -a and turns every tent into the constant 1.
    feats = enumerate_features_cube(1, 2, 0, 1.0, 1e5)
    assert len(feats) == 3
    xs = np.linspace(-1.0, 1.0, 31)[:, None]
    with _silence_low_r():
        for f in feats:
            exact = eval_exact_target_cube(xs, f)
            want = (xs[:, 0] + 1.0) ** sum(f.multi_index)
            assert np.array_equal(exact, want)
            assert np.max(np.abs(eval_f_net(xs, f) - exact)) <= 0.05


def test_kind_dispatch_guards():
    cube = enumerate_features_cube(1, 1, 1, 1.0, 1e5)[0]
    line = enumerate_features_pp(1, 1, 1, 1.0, 1e5, np.array([[1.0]]))[0]
    with pytest.raises(ParameterError):
        eval_f_net(np.array([0.0]), line)
    with pytest.raises(ParameterError):
        eval_f_net_pp(np.array([0.0]), cube)
    with pytest.raises(ParameterError):
        eval_f_net(np.zeros(3), cube)


def test_single_point_returns_scalar():
    cube = enumerate_features_cube(2, 1, 2, 1.0, 1e5)[0]
    with _silence_low_r():
        out = eval_f_net(np.array([0.1, -0.2]), cube)
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


def test_low_scale_warning_fires():
    feats = enumerate_features_cube(2, 2, 2, 1.0, 1e5)
    with pytest.warns(RuntimeWarning, match="below the guaranteed-approximation"):
        eval_f_net(np.array([[0.0, 0.0]]), feats[0])


# ---------------------------------------------------------------------------
# the compiled plan of build_design_matrix against the single-feature oracle
# ---------------------------------------------------------------------------

def _bitwise_equal(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def test_projection_plan_shares_the_monomial_nodes():
    # d=6, N=2: 28 multi-indices over a 4-leaf tree.  Node de-duplication
    # leaves 7 + 28 per-group product blocks per group (84 without it) and
    # 22 shared (one, one) and (monomial, monomial) blocks for the call.
    # Each level lays its per-group nodes out by child class, (group,
    # group), (group, shared), (shared, group), one run of nodes each.
    def classes(plan):
        return [[((left[0], right[0]), hi - lo) for lo, hi, left, right in level]
                for level in plan.group_folds]

    plan = _compile_tree("line", multi_indices(6, 2), 2)
    assert plan.widths == (1, 7, 28)
    assert [left.size for left, _ in plan.shared_folds] == [22, 0]
    assert sorted(plan.roots.tolist()) == list(range(28))
    # Every per-group product has exactly one shared child.
    assert classes(plan) == [[((True, False), 1), ((False, True), 6)],
                             [((True, False), 7), ((False, True), 21)]]
    cube = _compile_tree("cube", multi_indices(2, 2), 2)
    assert cube.shared_leaves == (("one",),)
    # Cube monomials are anchor-shifted, so only padding is shared.
    assert cube.widths == (4, 7, 6)
    assert classes(cube) == [[((True, True), 6), ((True, False), 1)],
                             [((True, True), 5), ((True, False), 1)]]


@st.composite
def _feature_lists(draw):
    kind = draw(st.sampled_from(["cube", "line"]))
    d = draw(st.integers(1, 3 if kind == "cube" else 4))
    N = draw(st.integers(0, 3))
    M = draw(st.integers(0, 3 if kind == "cube" else 5))
    R = 10.0 ** draw(st.floats(1.0, 8.0))
    if kind == "cube":
        feats = enumerate_features_cube(d, N, M, 1.0, R)
    else:
        r = draw(st.integers(1, 3))
        entries = st.floats(-1.0, 1.0, allow_nan=False)
        directions = np.array(draw(st.lists(st.lists(entries, min_size=d, max_size=d),
                                            min_size=r, max_size=r)))
        feats = enumerate_features_pp(d, N, M, 1.0, R, directions)
    if draw(st.booleans()):
        return feats
    order = draw(st.permutations(range(len(feats))))
    start = draw(st.integers(0, len(feats) - 1))
    step = draw(st.integers(1, 3))
    return [feats[i] for i in order[start::step]]


@settings(max_examples=60, deadline=None)
@given(feats=_feature_lists(), n=st.integers(1, 40), point=st.booleans(),
       seed=st.integers(0, 2**16), budget=st.sampled_from([1, 5, 64, 2**14]))
def test_design_matrix_is_bitwise_the_single_feature_oracle(feats, n, point,
                                                            seed, budget):
    # feats is a whole FeatureSet or a permuted, sliced list of its
    # descriptors.  Small entry budgets split the plan into many row and
    # group blocks.
    d = feats[0].d
    x = Stream(seed).uniform_matrix(n, d, low=-1.2, high=1.2)
    if point:
        x = x[0]
    with _silence_low_r(), mock.patch.object(features, "_BLOCK_ENTRY_BUDGET", budget):
        design = build_design_matrix(feats, x, warn_out_of_domain=False)
        assert design.values.shape == (1 if point else n, len(feats))
        for j, f in enumerate(feats):
            want = eval_feature(x, f)
            got = design.values[0, j] if point else design.values[:, j]
            assert _bitwise_equal(got, want), (j, f)


def test_design_matrix_handles_uneven_groups():
    # A repeated direction merges two groups into one (that may hold a
    # multi-index twice), and slicing leaves the other group with fewer
    # multi-indices than the template tree has roots.
    directions = np.array([[0.5, -0.5], [0.5, -0.5], [0.0, 1.0]])
    x = Stream(7).uniform_matrix(5, 2, low=-1.0, high=1.0)
    with _silence_low_r():
        line = enumerate_features_pp(2, 1, 0, 1.0, 10.0, directions)
        for picks in ([0, 5, 6], [0, 5, 3, 6]):
            feats = [line[i] for i in picks]
            for budget in (1, 2**14):
                with mock.patch.object(features, "_BLOCK_ENTRY_BUDGET", budget):
                    design = build_design_matrix(feats, x, warn_out_of_domain=False)
                for j, f in enumerate(feats):
                    assert _bitwise_equal(design.values[:, j], eval_feature(x, f)), \
                        (picks, budget, j)


def test_design_matrix_mixes_feature_families():
    # Features of different kinds, scales and degree caps in one list each
    # get their own plan, and the columns keep the list order.  The two
    # cube lists differ only in the degree cap, hence in the tree depth.
    x = Stream(6).uniform_matrix(9, 2, low=-1.0, high=1.0)
    with _silence_low_r():
        feats = (enumerate_features_cube(2, 1, 2, 1.0, 1e5)[::4]
                 + enumerate_features_pp(2, 2, 3, 1.0, 1e6, DIRECTIONS)[::5]
                 + enumerate_features_cube(2, 3, 2, 1.0, 1e5)[::3])
        design = build_design_matrix(feats, x, warn_out_of_domain=False)
        for j, f in enumerate(feats):
            assert _bitwise_equal(design.values[:, j], eval_feature(x, f)), j


def test_design_matrix_refuses_descriptors_off_their_grid():
    # A descriptor list is evaluated as columns of FeatureSets rebuilt from
    # the descriptors' parameters, so one whose anchor is not the grid
    # value at its anchor index cannot be evaluated that way.
    feats = list(enumerate_features_pp(2, 1, 2, 1.0, 1e5, DIRECTIONS))
    feats[3] = dataclasses.replace(feats[3], anchor=feats[3].anchor + 1e-3)
    with _silence_low_r(), pytest.raises(ParameterError,
                                         match="not a feature of its enumeration"):
        build_design_matrix(feats, np.zeros((2, 2)), warn_out_of_domain=False)
