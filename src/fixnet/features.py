"""Feature construction: anchor grids, multi-index enumeration, and the
recursive product networks that evaluate one fixed-weight feature.

A cube feature approximates

    (x1-y1)^j1 ... (xd-yd)^jd * prod_k tent(x_k - y_k)

for a grid anchor y and a multi-index j, built as a balanced binary tree of
product blocks over 2^s leaves (s = ceil(log2(N+d))): the monomial factors
(each an identity block applied twice), one tent block per coordinate, and
constant-1 padding leaves.  A projection feature is the analogue for ridge
directions: monomials in the raw coordinates times a single tent in the
projected value b'x, with s = ceil(log2(N+1)).

Evaluations are vectorized: x may be a single point (d,) or a batch (n, d).

The enumerations return a FeatureSet, which holds the features of one
enumeration as arrays: the enumeration parameters, the anchor grid, the
direction matrix and the multi-index table, the values a saved model
stores.  Indexing or iterating a FeatureSet builds FeatureDescriptor
objects, one per feature.  eval_feature evaluates one descriptor by
folding its own leaves; it is the oracle for eval_features, which
evaluates a whole design matrix through a plan:

- the template tree of a (kind, d, N) is compiled once over every
  multi-index and cached, since every set of one (kind, d, N) has it;
- features sharing an anchor and direction form a group; the group of a
  column, its leaf values and its root node follow from the set's arrays
  by index arithmetic (a plain sequence of descriptors is first mapped
  onto FeatureSet columns);
- template nodes are de-duplicated by their child pair.  Shared nodes
  (only constant or raw-monomial leaves below) are evaluated once, not
  once per group; per-group nodes (a tent or an anchor-shifted monomial
  below) are evaluated for blocks of whole groups and rows, as many
  groups as fit first, a block holding at most _BLOCK_ENTRY_BUDGET (row,
  group, node) entries at its widest level;
- each distinct leaf is evaluated once, and the fold runs level by level.
  A level lays its per-group nodes out by child class (per-group with
  per-group, per-group with shared, shared with per-group), so each class
  is one f_mult call per block, written in place into its run of the
  level.  A shared child enters as a view broadcast over the groups, a
  per-group child as a view or one gather of the level below;
- a group's columns are contiguous in a FeatureSet, so each block is
  written to its rows and columns of the result by one np.take.

Every value passes through the same elementwise block recurrences, with
the same operands in the same order, as in eval_feature, so the plan's
columns equal eval_feature's bit for bit.
"""

import functools
import itertools
import math
import operator
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import netblocks
from .activation import admissibility_constants
from .netblocks import clamp_scale
from .errors import FeatureCountError, ParameterError

__all__ = [
    "FeatureDescriptor",
    "FeatureSet",
    "multi_indices",
    "enumerate_features_cube",
    "enumerate_features_pp",
    "eval_f_net",
    "eval_f_net_pp",
    "eval_feature",
    "eval_exact_target_cube",
    "eval_exact_target_pp",
    "approx_error_scale",
    "scale_lower_bound",
    "taylor_patch_P",
    "partition_of_unity_check",
    "architecture_summary",
    "ArchitectureSummary",
]

MAX_FEATURES = 10**7


def _tree_depth(kind, d, degree_cap):
    """s = ceil(log2(N + d)) for a cube feature, ceil(log2(N + 1)) for a
    projection feature: the product tree has 2**s leaves."""
    leaves = degree_cap + d if kind == "cube" else degree_cap + 1
    return (leaves - 1).bit_length()


@dataclass(frozen=True)
class FeatureDescriptor:
    """One fixed-weight subnetwork feature.

    kind "cube": anchor is a d-tuple on the grid in [-a, a]^d, direction is
    None, half_width = a.  kind "line": anchor is a scalar on the grid in
    [-sqrt(d)*A, sqrt(d)*A], direction is the d-vector b, half_width =
    sqrt(d)*A, and amplitude holds A itself.
    """

    kind: str
    d: int
    degree_cap: int
    multi_index: tuple
    anchor: tuple | float
    anchor_index: tuple | int
    M: int
    half_width: float
    R: float
    amplitude: float | None = None
    direction: tuple | None = None
    direction_index: int | None = None

    @property
    def s(self):
        return _tree_depth(self.kind, self.d, self.degree_cap)


def _frozen(array):
    array.flags.writeable = False
    return array


@functools.lru_cache(maxsize=16)
def _multi_index_table(d, N):
    """multi_indices(d, N) as a read-only (C(N+d, d), d) array.

    Column t is built from the prefix tree of the table: every node at
    depth t (a prefix of t + 1 entries) is repeated once per table row
    below it, which costs O(d * rows) however large d is.
    """
    if N == 0:
        return _frozen(np.zeros((1, d), dtype=np.intp))
    budget = np.array([N])
    table = np.empty((math.comb(N + d, d), d), dtype=np.intp)
    for t in range(d):
        children = budget + 1
        first = np.cumsum(children) - children
        value = np.arange(children.sum()) - np.repeat(first, children)
        budget = np.repeat(budget, children) - value
        rest = d - 1 - t
        below = np.array([math.comb(b + rest, rest) for b in range(N + 1)])
        table[:, t] = np.repeat(value, below[budget])
    return _frozen(table)


def multi_indices(d, N):
    """All d-tuples of nonnegative integers with sum <= N, lexicographic."""
    return [tuple(j) for j in _multi_index_table(d, N).tolist()]


def _count_or_raise(J, what="feature count J"):
    if J > MAX_FEATURES:
        raise FeatureCountError(
            f"{what}={J} exceeds the supported maximum {MAX_FEATURES}"
        )


def _checked_count(kind, d, N, M, r=1):
    """The feature count J of an enumeration (kind "cube" or "line", r
    directions), raising FeatureCountError when J or the C(N+d, d) * 2**s
    leaves of the shared product tree exceed MAX_FEATURES.  A float
    estimate of log J screens absurd parameters first, so they cost no
    big-integer arithmetic."""
    log_groups = d * math.log(M + 1) if kind == "cube" else math.log(r * (M + 1))
    log_J = (log_groups + math.lgamma(N + d + 1) - math.lgamma(N + 1)
             - math.lgamma(d + 1))
    if log_J > math.log(MAX_FEATURES) + 1.0:
        raise FeatureCountError(
            f"feature count J of about 10^{log_J / math.log(10):.0f} exceeds "
            f"the supported maximum {MAX_FEATURES}"
        )
    J = (count_features_cube(d, N, M) if kind == "cube"
         else count_features_pp(d, N, M, r))
    _count_or_raise(J)
    _count_or_raise(math.comb(N + d, d) << _tree_depth(kind, d, N),
                    "product-tree leaf count")
    return J


def count_features_cube(d, N, M):
    """Feature count of the cube enumeration, (M+1)^d * C(N+d, d)."""
    return (M + 1) ** d * math.comb(N + d, d)


def count_features_pp(d, N, M, r):
    """Feature count of the projection enumeration, r * (M+1) * C(N+d, d)."""
    return r * (M + 1) * math.comb(N + d, d)


class FeatureSet:
    """The features of one enumeration, held as arrays.

    A FeatureSet stores only what its features are made of: the
    enumeration parameters (kind, d, degree_cap N, M, half_width, R and,
    for kind "line", amplitude A), the anchor grid, the r x d direction
    matrix (kind "line") and the multi-index table, which is
    multi_indices(d, N) as a (K, d) array.  Column c is multi-index k of
    group g, with g, k = divmod(c, K).  Group g is the anchor-index tuple
    of rank g in lexicographic order (kind "cube"), or direction
    g // (M+1) at anchor g % (M+1) (kind "line").

    len() is the feature count J.  Indexing and iteration build the
    equal FeatureDescriptor objects (a slice gives a list of them); the
    design-matrix plan reads the arrays instead.  A FeatureSet carries the
    family attributes of its descriptors (kind, d, degree_cap, M,
    half_width, R, amplitude, s), so scale_lower_bound,
    approx_error_scale and architecture_summary accept it too.
    """

    def __init__(self, kind, d, degree_cap, M, half_width, R,
                 amplitude=None, directions=None):
        self.kind, self.d, self.degree_cap, self.M = kind, d, degree_cap, M
        self.half_width, self.R, self.amplitude = half_width, R, amplitude
        step = 2.0 * half_width / M if M > 0 else 0.0
        # Elementwise -half + i * step, the same double for every anchor
        # as the scalar expression.
        self.grid = _frozen(-half_width + np.arange(M + 1) * step)
        self.directions = (None if directions is None
                           else _frozen(np.array(directions, dtype=float)))
        self.multi_index_table = _multi_index_table(d, degree_cap)
        groups = ((M + 1) ** d if kind == "cube"
                  else len(self.directions) * (M + 1))
        self._len = groups * len(self.multi_index_table)

    @property
    def s(self):
        return _tree_depth(self.kind, self.d, self.degree_cap)

    def __len__(self):
        return self._len

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._descriptor(c) for c in range(*index.indices(len(self)))]
        c = operator.index(index)
        if c < 0:
            c += len(self)
        if not 0 <= c < len(self):
            raise IndexError(f"feature index {index} out of range for {len(self)}")
        return self._descriptor(c)

    def __iter__(self):
        return map(self._descriptor, range(len(self)))

    def __repr__(self):
        return (f"FeatureSet(kind={self.kind!r}, d={self.d}, "
                f"N={self.degree_cap}, M={self.M}, J={len(self)})")

    def _descriptor(self, c):
        g, k = divmod(c, len(self.multi_index_table))
        common = dict(kind=self.kind, d=self.d, degree_cap=self.degree_cap,
                      multi_index=tuple(self.multi_index_table[k].tolist()),
                      M=self.M, half_width=self.half_width, R=self.R)
        if self.kind == "cube":
            idx = tuple(int(i) for i in
                        np.unravel_index(g, (self.M + 1,) * self.d))
            return FeatureDescriptor(anchor=tuple(self.grid[list(idx)].tolist()),
                                     anchor_index=idx, **common)
        l, i = divmod(g, self.M + 1)
        return FeatureDescriptor(anchor=float(self.grid[i]), anchor_index=i,
                                 amplitude=self.amplitude,
                                 direction=tuple(self.directions[l].tolist()),
                                 direction_index=l, **common)


def enumerate_features_cube(d, N, M, a, R):
    """All (M+1)^d * C(N+d, d) cube features, as a FeatureSet ordered
    lexicographically by (anchor index tuple, multi-index)."""
    if d < 1 or N < 0 or M < 0:
        raise ParameterError(f"invalid grid parameters d={d}, N={N}, M={M}")
    if not a > 0:
        raise ParameterError(f"a must be positive, got {a!r}")
    R = clamp_scale(R)
    _checked_count("cube", d, N, M)
    return FeatureSet("cube", d, N, M, float(a), R)


def enumerate_features_pp(d, N, M, A, R, directions):
    """All r * (M+1) * C(N+d, d) projection features, as a FeatureSet
    ordered by (direction index, anchor index, multi-index)."""
    directions = np.asarray(directions, dtype=float)
    if directions.ndim != 2 or directions.shape[1] != d:
        raise ParameterError(
            f"directions must be an r x {d} matrix, got shape {directions.shape}"
        )
    r = directions.shape[0]
    if r < 1:
        raise ParameterError("at least one direction is required")
    if not np.all(np.abs(directions) <= 1.0 + 1e-12):  # NaN fails too
        raise ParameterError("direction components must lie in [-1, 1]")
    if N < 0 or M < 0 or not A > 0:
        raise ParameterError(f"invalid grid parameters N={N}, M={M}, A={A}")
    R = clamp_scale(R)
    _checked_count("line", d, N, M, r)
    return FeatureSet("line", d, N, M, math.sqrt(d) * A, R, float(A),
                      directions)


# ---------------------------------------------------------------------------
# network evaluation
# ---------------------------------------------------------------------------

def _as_batch(x, d):
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        if x.shape[0] != d:
            raise ParameterError(f"point has dimension {x.shape[0]}, feature expects {d}")
        return x[None, :], True
    if x.ndim != 2 or x.shape[1] != d:
        raise ParameterError(f"batch has shape {x.shape}, feature expects (n, {d})")
    return x, False


def _hat_leaf(x_scalar, anchor, M, half_width, R):
    # M = 0 degenerates to a constant tent of value 1; the network form
    # still evaluates fine because the input scale M/(2*half_width) is 0.
    # anchor may be an array broadcasting against x_scalar.
    prof = admissibility_constants()
    if R < prof.sup_d2 * (M + 1) / (2.0 * prof.d1_at_id):
        raise ParameterError(f"R={R:g} too small for a hat leaf with M={M}")
    return netblocks._hat_network(x_scalar, anchor, M, half_width, R)


def _fold_product_tree(leaves, R):
    params = netblocks.BlockParams(R=R)
    while len(leaves) > 1:
        leaves = [
            netblocks.f_mult(leaves[2 * k], leaves[2 * k + 1], params)
            for k in range(len(leaves) // 2)
        ]
    return leaves[0]


_LOW_R_MESSAGE = (
    "scale R is below the guaranteed-approximation threshold for this feature "
    "configuration; values stay finite but the stated error bound may not apply"
)


def _warn_if_low_R(f):
    if f.R < scale_lower_bound(f):
        warnings.warn(_LOW_R_MESSAGE, RuntimeWarning, stacklevel=3)


def _leaf_tokens(kind, multi_index, s):
    """The leaves of a product tree of depth s, in tree order, named without
    a group's anchor and direction: ("mono", l) once per unit of
    multi_index[l], then ("tent", k) for each tent (one per component for a
    cube feature, one for a projection feature), then ("one",) padding up
    to 2**s leaves."""
    tokens = [("mono", l) for l, j in enumerate(multi_index) for _ in range(j)]
    tents = len(multi_index) if kind == "cube" else 1
    tokens += [("tent", k) for k in range(tents)]
    return tokens + [("one",)] * (2 ** s - len(tokens))


def leaf_specs(f):
    """Hashable descriptions of the product-tree leaves of f, in tree order.

    Specs: ("monomial", component, shift) for an identity block applied
    twice to x[component] - shift; ("hat", component, anchor) for a cube
    tent; ("hat_line", direction, anchor) for the projected tent; ("one",)
    for constant padding.  Equal specs denote identical computations.  They
    are the _leaf_tokens of f with f's anchor and direction filled in.
    """
    cube = f.kind == "cube"
    specs = []
    for token in _leaf_tokens(f.kind, f.multi_index, f.s):
        if token[0] == "mono":
            specs.append(("monomial", token[1], f.anchor[token[1]] if cube else 0.0))
        elif token[0] == "tent":
            specs.append(("hat", token[1], f.anchor[token[1]]) if cube
                         else ("hat_line", f.direction, f.anchor))
        else:
            specs.append(token)
    return specs


def eval_leaf(spec, xb, f):
    """Evaluate one leaf spec on a batch xb of shape (n, d)."""
    kind = spec[0]
    n = xb.shape[0]
    if kind == "one":
        return np.ones(n)
    if kind == "monomial":
        _, l, shift = spec
        params = netblocks.BlockParams(R=f.R)
        return netblocks.f_id(netblocks.f_id(xb[:, l] - shift, params), params)
    if kind == "hat":
        _, k, anchor = spec
        return _hat_leaf(xb[:, k], anchor, f.M, f.half_width, f.R)
    _, direction, anchor = spec
    proj = xb @ np.asarray(direction)
    return _hat_leaf(proj, anchor, f.M, f.half_width, f.R)


def _eval_network(x, f):
    xb, single = _as_batch(x, f.d)
    _warn_if_low_R(f)
    leaves = [eval_leaf(spec, xb, f) for spec in leaf_specs(f)]
    out = _fold_product_tree(leaves, f.R)
    return float(out[0]) if single else out


def eval_f_net(x, f):
    """Evaluate a cube feature network at x ((d,) or (n, d))."""
    if f.kind != "cube":
        raise ParameterError("eval_f_net expects a cube feature")
    return _eval_network(x, f)


def eval_f_net_pp(x, f):
    """Evaluate a projection feature network at x ((d,) or (n, d))."""
    if f.kind != "line":
        raise ParameterError("eval_f_net_pp expects a projection feature")
    return _eval_network(x, f)


def eval_feature(x, f):
    """Dispatch on feature kind."""
    return eval_f_net(x, f) if f.kind == "cube" else eval_f_net_pp(x, f)


fold_product_tree = _fold_product_tree


# ---------------------------------------------------------------------------
# many features at once: the compiled product-tree plan
# ---------------------------------------------------------------------------

# Cap on (row, group, node) entries of one block of per-group tree nodes,
# counted at the widest tree level.  It bounds the fold's temporaries, and
# blocks this small stay in cache: on a 2-vCPU Xeon (2 MiB L2 per core)
# with numpy 2.4, the in-place f_mult takes 14-22 ns per entry on 2^14 and
# 2^15 entries, where its five block-sized arrays fit in L2, and 32-45 ns
# on 2^16 and 2^18 entries.  Smaller blocks pay the per-call cost of its
# 32 ufunc calls more often: design builds of both plan shapes (projection
# and cube) ran 5-15% faster at 2^15 than at 2^14.
_BLOCK_ENTRY_BUDGET = 2**15

# The classes of per-group tree nodes by the kind of their (left, right)
# children, True for per-group, in the order a level lays them out.
_GROUP_CLASSES = ((True, True), (True, False), (False, True))


def _side(children, group, picks):
    """One operand of a class of per-group nodes, as (group, index).

    A shared side (group False) indexes picks, the shared nodes gathered
    for the level's classes, by a slice: the children are appended to
    picks.  A per-group side indexes the previous level by a slice when
    its children are one node or a run of consecutive nodes, and by an
    index array otherwise.
    """
    if not group:
        picks.extend(children)
        return False, slice(len(picks) - len(children), len(picks))
    lo = children[0]
    if all(c == lo for c in children):
        return True, slice(lo, lo + 1)
    if children == list(range(lo, lo + len(children))):
        return True, slice(lo, lo + len(children))
    return True, np.array(children, dtype=np.intp)


@dataclass(frozen=True)
class _TreePlan:
    """The de-duplicated product trees of one feature family.

    Tree nodes are de-duplicated by their child pair.  A shared node has
    only constant-one or raw-monomial leaves below it, so it takes the
    same values in every group and is folded once for all of them; a
    per-group node has a tent or an anchor-shifted monomial below it.
    Level k + 1 folds shared_folds[k] (left and right indices into the
    shared nodes of level k) and the per-group nodes of group_folds[k].
    Those are laid out by child class (_GROUP_CLASSES), each class a run
    (lo, hi, left, right) of the level with operands from _side; a shared
    operand slices shared_picks[k], indices into the shared nodes of
    level k.  widths[k] counts the per-group nodes of level k, and
    roots[i] is the per-group root node of the i-th multi-index.
    """

    kind: str
    shared_leaves: tuple
    group_leaves: tuple
    shared_folds: tuple
    group_folds: tuple
    shared_picks: tuple
    widths: tuple
    roots: np.ndarray


def _compile_tree(kind, multi_index_list, s):
    """The _TreePlan of depth s over the given multi-indices."""
    per_group_token = {"one": False, "tent": True, "mono": kind == "cube"}
    nodes = ([], [])
    ids = {}
    rows = []
    for j in multi_index_list:
        row = []
        for token in _leaf_tokens(kind, j, s):
            if token not in ids:
                side = per_group_token[token[0]]
                ids[token] = (side, len(nodes[side]))
                nodes[side].append(token)
            row.append(ids[token])
        rows.append(row)
    shared_leaves, group_leaves = map(tuple, nodes)
    shared_folds, group_folds, shared_picks = [], [], []
    widths = [len(group_leaves)]
    while len(rows[0]) > 1:
        rows = [list(zip(row[0::2], row[1::2])) for row in rows]
        pairs = list(dict.fromkeys(pair for row in rows for pair in row))
        shared = [p for p in pairs if not (p[0][0] or p[1][0])]
        ids = {p: (False, i) for i, p in enumerate(shared)}
        classes, picks = [], []
        for cls in _GROUP_CLASSES:
            members = [p for p in pairs if (p[0][0], p[1][0]) == cls]
            if members:
                lo = len(ids) - len(shared)
                ids.update((p, (True, lo + i)) for i, p in enumerate(members))
                classes.append((lo, lo + len(members)) + tuple(
                    _side([p[side][1] for p in members], cls[side], picks)
                    for side in (0, 1)))
        rows = [[ids[p] for p in row] for row in rows]
        shared_folds.append(tuple(np.array([p[side][1] for p in shared],
                                           dtype=np.intp) for side in (0, 1)))
        group_folds.append(tuple(classes))
        shared_picks.append(np.array(picks, dtype=np.intp))
        widths.append(len(ids) - len(shared))
    assert all(row[0][0] for row in rows), "every feature has a tent leaf"
    roots = _frozen(np.array([row[0][1] for row in rows], dtype=np.intp))
    return _TreePlan(kind, shared_leaves, group_leaves, tuple(shared_folds),
                     tuple(group_folds), tuple(shared_picks), tuple(widths),
                     roots)


@functools.lru_cache(maxsize=16)
def _tree_plan(kind, d, N):
    """The _TreePlan over multi_indices(d, N), the tree of every feature
    set of one (kind, d, N), so each trial of a fit reuses it."""
    return _compile_tree(kind, multi_indices(d, N), _tree_depth(kind, d, N))


def _shared_levels(plan, xb, params):
    """Values of every shared node, one (n, nodes) array per level."""
    leaves = np.empty((xb.shape[0], len(plan.shared_leaves)))
    monos = [(p, t[1]) for p, t in enumerate(plan.shared_leaves)
             if t[0] == "mono"]
    leaves[:, [p for p, t in enumerate(plan.shared_leaves) if t[0] == "one"]] = 1.0
    if monos:
        # leaf_specs shifts these by 0.0, which leaves every x unchanged.
        comps = np.take(xb, [l for _, l in monos], axis=1)
        leaves[:, [p for p, _ in monos]] = netblocks.f_id(
            netblocks.f_id(comps, params), params)
    levels = [leaves]
    for left, right in plan.shared_folds:
        prev = levels[-1]
        if left.size:
            levels.append(netblocks.f_mult(np.take(prev, left, axis=1),
                                           np.take(prev, right, axis=1), params))
        else:
            levels.append(prev[:, :0])
    return levels


def _leaf_sources(fs, plan, groups, xb):
    """The per-group leaves of the given groups of a FeatureSet.

    Returns (sources, index).  A source (leaf name, input column) stands
    for the named leaf of the column against every anchor of fs.grid: a
    cube leaf has one source per component, and a projection tent one per
    direction, on its own product xb @ direction.  index maps (position
    in groups, per-group leaf) to a column of the source values laid side
    by side.
    """
    m1 = fs.M + 1
    index = np.empty((groups.size, len(plan.group_leaves)), dtype=np.intp)
    if fs.kind == "line":
        # The only per-group leaf of a projection tree is its tent.
        lines, position = np.unique(groups // m1, return_inverse=True)
        index[:, 0] = position * m1 + groups % m1
        return [("tent", xb @ np.array(fs.directions[l])) for l in lines], index
    sources = []
    for p, (name, comp) in enumerate(plan.group_leaves):
        sources.append((name, xb[:, comp]))
        index[:, p] = p * m1 + groups // m1 ** (fs.d - 1 - comp) % m1
    return sources, index


def _leaf_table(sources, fs, params):
    """(n, V) values of every source, side by side."""
    columns = []
    for name, column in sources:
        x = column[:, None]
        if name == "tent":
            columns.append(_hat_leaf(x, fs.grid, fs.M, fs.half_width, fs.R))
        else:
            columns.append(netblocks.f_id(netblocks.f_id(x - fs.grid, params),
                                          params))
    return np.concatenate(columns, axis=1)


def _class_operand(side, values, picked):
    """One operand of a class of per-group nodes (see _side): a view or
    one gather of the previous level's values, shape (rows, k, groups),
    or a (rows, k, 1) view of the level's picked shared nodes."""
    group, index = side
    source = values if group else picked
    if isinstance(index, slice):
        return source[:, index]
    return np.take(source, index, axis=1)


def _eval_groups(fs, groups, xb, out):
    """Write every column of the given groups of the FeatureSet fs into
    out, group i of groups to the contiguous columns i*K .. i*K + K - 1
    (K multi-indices), block by block of whole groups and rows.

    A block holds the values of a tree level as a (rows, nodes, groups)
    array, so the innermost axis of every f_mult ufunc runs over the
    block's groups, the shared children broadcast along it, and a class's
    run of nodes is one contiguous stretch per row.
    """
    plan = _tree_plan(fs.kind, fs.d, fs.degree_cap)
    params = netblocks.BlockParams(R=fs.R)
    K = len(fs.multi_index_table)
    n = xb.shape[0]
    widest = max(plan.widths)
    groups_per_block = max(1, min(groups.size, _BLOCK_ENTRY_BUDGET // widest))
    rows_per_block = max(1, _BLOCK_ENTRY_BUDGET // (groups_per_block * widest))
    sources, leaf_index = _leaf_sources(fs, plan, groups, xb)
    picked = [np.take(level, picks, axis=1)[:, :, None] for level, picks
              in zip(_shared_levels(plan, xb, params), plan.shared_picks)]
    table = _leaf_table(sources, fs, params)
    for start in range(0, groups.size, groups_per_block):
        stop = min(start + groups_per_block, groups.size)
        # Column g*K + k of the block takes root k of its group g.
        roots = (plan.roots * (stop - start)
                 + np.arange(stop - start)[:, None]).ravel()
        index = leaf_index[start:stop].T
        for r0 in range(0, n, rows_per_block):
            rows = slice(r0, r0 + rows_per_block)
            values = np.take(table[rows], index, axis=1)
            for level, classes in enumerate(plan.group_folds):
                prev, shared = values, picked[level][rows]
                values = np.empty((prev.shape[0], plan.widths[level + 1],
                                   prev.shape[2]))
                for lo, hi, left, right in classes:
                    netblocks.f_mult(_class_operand(left, prev, shared),
                                     _class_operand(right, prev, shared),
                                     params, out=values[:, lo:hi])
            # With mode="raise" np.take always buffers out; every index is
            # in range.
            np.take(values.reshape(values.shape[0], -1), roots, axis=1,
                    out=out[rows, start * K:stop * K], mode="clip")


def _column_sets(features):
    """(FeatureSet, its columns, output columns) triples covering a
    sequence of descriptors.

    The descriptors are split into families with one set of enumeration
    parameters, and each family becomes columns of one FeatureSet over
    the family's distinct direction vectors; a descriptor that is not the
    feature at its position in that set raises ParameterError.
    """
    families = {}
    for c, f in enumerate(features):
        key = (f.kind, f.d, f.degree_cap, f.M, f.half_width, f.R, f.amplitude)
        families.setdefault(key, []).append(c)
    triples = []
    for (kind, d, N, M, half, R, A), out_columns in families.items():
        members = [features[c] for c in out_columns]
        lines = (list(dict.fromkeys(f.direction for f in members))
                 if kind == "line" else None)
        fs = FeatureSet(kind, d, N, M, half, R, A, lines)
        rank = {j: k for k, j in enumerate(multi_indices(d, N))}
        line_of = {b: l for l, b in enumerate(lines or ())}
        columns = []
        for f in members:
            if kind == "cube":
                g = np.ravel_multi_index(f.anchor_index, (M + 1,) * d)
            else:
                g = line_of[f.direction] * (M + 1) + f.anchor_index
            c = int(g) * len(rank) + rank.get(f.multi_index, len(rank))
            if c >= len(fs) or replace(fs[c], direction_index=f.direction_index) != f:
                raise ParameterError(f"{f} is not a feature of its enumeration")
            columns.append(c)
        triples.append((fs, np.array(columns, dtype=np.intp),
                        np.array(out_columns, dtype=np.intp)))
    return triples


def eval_features(features, xb):
    """Evaluate many features on an (n, d) batch; returns an (n, J) array.

    features is a FeatureSet or a sequence of FeatureDescriptors.  The
    product tree of a (kind, d, N) is compiled once into a cached
    _TreePlan; the group of a column, its leaf sources and its root node
    follow from the set's arrays by index arithmetic.  Each distinct leaf
    is evaluated once and shared tree nodes once for all groups.
    Per-group nodes are folded for blocks of whole groups and rows, a
    block holding at most _BLOCK_ENTRY_BUDGET entries at its widest
    level, with one f_mult call per child class per level; a shared child
    enters as a view broadcast over the groups, and each block's columns,
    contiguous in a FeatureSet, are written by one np.take.  A sequence
    of descriptors is mapped onto FeatureSet columns (see _column_sets);
    the whole groups holding them are evaluated into a dense array, from
    which the columns are copied in list order.
    Every value goes through the same elementwise block recurrences as in
    eval_feature, so column j equals eval_feature(xb, features[j]) bit
    for bit.
    """
    n = xb.shape[0]
    out = np.empty((n, len(features)))
    if isinstance(features, FeatureSet):
        K = len(features.multi_index_table)
        _eval_groups(features, np.arange(len(features) // K), xb, out)
        return out
    for fs, columns, out_columns in _column_sets(features):
        K = len(fs.multi_index_table)
        groups, position = np.unique(columns // K, return_inverse=True)
        dense = np.empty((n, groups.size * K))
        _eval_groups(fs, groups, xb, dense)
        out[:, out_columns] = dense[:, position * K + columns % K]
    return out


# ---------------------------------------------------------------------------
# exact targets
# ---------------------------------------------------------------------------

def eval_exact_target_cube(x, f):
    """The idealized cube feature: shifted monomial times the product of tents."""
    xb, single = _as_batch(x, f.d)
    out = np.ones(xb.shape[0])
    for l, j in enumerate(f.multi_index):
        if j:
            out = out * (xb[:, l] - f.anchor[l]) ** j
    for k in range(f.d):
        out = out * netblocks.exact_hat(xb[:, k], f.anchor[k], f.M, f.half_width)
    return float(out[0]) if single else out


def eval_exact_target_pp(x, f):
    """The idealized projection feature: raw monomial times the tent in b'x."""
    xb, single = _as_batch(x, f.d)
    out = np.ones(xb.shape[0])
    for l, j in enumerate(f.multi_index):
        if j:
            out = out * xb[:, l] ** j
    proj = xb @ np.asarray(f.direction)
    out = out * netblocks.exact_hat(proj, f.anchor, f.M, f.half_width)
    return float(out[0]) if single else out


def approx_error_scale(f):
    """The R-scaling shape of the feature approximation error:
    3^(3*3^s) * w^(3*2^s) * M^3 / R with w = a (cube) or A (projection)."""
    w = f.half_width if f.kind == "cube" else f.amplitude
    return 3.0 ** (3 * 3 ** f.s) * w ** (3 * 2 ** f.s) * f.M ** 3 / f.R


def scale_lower_bound(f):
    """Smallest R for which the feature's guaranteed error bound applies."""
    prof = admissibility_constants()
    w = f.half_width if f.kind == "cube" else f.amplitude
    terms = [
        prof.sup_d2 * (f.M + 1) / (2.0 * prof.d1_at_id),
        9.0 * prof.sup_d2 * w / prof.d1_at_id,
        (20.0 * prof.sup_d3 / (3.0 * abs(prof.d2_at_sq)))
        * 3.0 ** (3 * 3 ** f.s) * w ** (3 * 2 ** f.s),
    ]
    hat_term = prof.hat_constant * f.M ** 3
    if f.kind == "line":
        hat_term *= f.d ** 1.5
    terms.append(hat_term)
    return max(terms)


# ---------------------------------------------------------------------------
# piecewise Taylor approximant and partition of unity
# ---------------------------------------------------------------------------

def taylor_patch_P(x, derivative_oracle, M, a, q):
    """Local convex combination of Taylor polynomials over the anchor grid.

    P(x) = sum_k poly_k(x) * prod_j tent(x_j - anchor_k_j), where poly_k is
    the order-q Taylor polynomial of the target around anchor k and
    derivative_oracle(anchor, alpha) returns the partial derivative of
    multi-order alpha at that anchor.  Because the tents form a partition
    of unity, P reproduces degree-<=q polynomials exactly.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    xb = x[None, :] if single else x
    d = xb.shape[1]
    if M < 1:
        raise ParameterError("taylor_patch_P needs M >= 1")
    _count_or_raise((M + 1) ** d)
    step = 2.0 * a / M
    orders = multi_indices(d, q)
    facts = [math.prod(math.factorial(t) for t in alpha) for alpha in orders]
    out = np.zeros(xb.shape[0])
    for idx in itertools.product(range(M + 1), repeat=d):
        anchor = np.array([-a + i * step for i in idx])
        weight = np.ones(xb.shape[0])
        for jdim in range(d):
            weight = weight * netblocks.exact_hat(xb[:, jdim], anchor[jdim], M, a)
        live = weight > 0
        if not np.any(live):
            continue
        diff = xb[live] - anchor
        poly = np.zeros(int(np.count_nonzero(live)))
        for alpha, fact in zip(orders, facts):
            term = derivative_oracle(anchor, alpha) / fact
            for jdim, power in enumerate(alpha):
                if power:
                    term = term * diff[:, jdim] ** power
            poly = poly + term
        out[live] += weight[live] * poly
    return float(out[0]) if single else out


def partition_of_unity_check(M, a, d, points):
    """Max deviation of the exact product-tent sum from 1 over the points."""
    if M < 1:
        raise ParameterError("partition_of_unity_check needs M >= 1")
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.shape[1] != d:
        raise ParameterError(f"points have dimension {pts.shape[1]}, expected {d}")
    _count_or_raise((M + 1) ** d)
    step = 2.0 * a / M
    total = np.zeros(pts.shape[0])
    for idx in itertools.product(range(M + 1), repeat=d):
        w = np.ones(pts.shape[0])
        for jdim in range(d):
            w = w * netblocks.exact_hat(pts[:, jdim], -a + idx[jdim] * step, M, a)
        total += w
    return float(np.max(np.abs(total - 1.0)))


# ---------------------------------------------------------------------------
# architecture audit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ArchitectureSummary:
    hidden_layers: int
    widths: tuple
    width_cap: int
    max_weight_magnitude: float


def architecture_summary(f):
    """Hidden-layer count and widths of the feature network, with the cap
    they must respect; also reports the largest frozen weight magnitude."""
    s = f.s
    widths = [6 * 2 ** s, 12 * 2 ** s] + [2 ** (s + 1 - i) for i in range(s)]
    cap = 24 * (f.degree_cap + f.d) if f.kind == "cube" else 24 * (f.degree_cap + 1)
    if any(w > cap for w in widths):
        raise AssertionError(f"width cap violated: widths={widths}, cap={cap}")
    prof = admissibility_constants()
    # Frozen weights in play: the product-block output scale R^2/(4|sigma''|)
    # (times coefficients up to 2), the identity-block output 4R, the tent
    # input scale M/(2*half_width), and the relu's R on its sigma input.
    max_weight = max(
        1.0,
        f.M / (2.0 * f.half_width),
        f.R,
        f.R / prof.d1_at_id,
        f.R ** 2 / (2.0 * abs(prof.d2_at_sq)),
    )
    if not math.isfinite(max_weight):
        raise AssertionError("non-finite network weight")
    return ArchitectureSummary(
        hidden_layers=s + 2,
        widths=tuple(widths),
        width_cap=cap,
        max_weight_magnitude=max_weight,
    )
