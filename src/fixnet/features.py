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

The grid rules on N, M, the half width h and R are stated once, in
_checked_grid, which both enumerations and both estimator configs call:
N >= 0, M >= 0 and a finite, positive h; R by netblocks.clamp_scale;
then (2h)^N <= R for N >= 1.  The enumerations check d >= 1 before it and
the one size rule, _checked_count, after it.

The enumerations return a FeatureSet, which holds the features of one
enumeration as arrays: the enumeration parameters, the anchor grid, the
direction matrix and the multi-index table, the values a saved model
stores.  Indexing or iterating a FeatureSet builds FeatureDescriptor
objects, one per feature.  eval_feature evaluates one descriptor by
folding its own leaves; it is the oracle for eval_features, which
evaluates every feature of a FeatureSet, the whole design matrix,
through a plan of instances:

- a leaf instance is a leaf with its anchor: a cube tent or
  anchor-shifted monomial of coordinate k at each anchor of k, a
  projection tent at each (direction, anchor), and the raw monomials and
  the constant one once each.  Their values are evaluated in row blocks,
  and each leaf block is folded before the next is evaluated;
- a node instance of the next level is a distinct pair of child
  instances, so a partial product is evaluated once per distinct
  sub-tuple of the anchors it depends on, and once for all features when
  it depends on none.  Instances are told apart by structure, never by
  value: each direction row has its own projection and tents.  The root
  level is the features themselves, in FeatureSet column order;
- the plan of a (kind, d, N, M, r) is compiled once by index arithmetic
  and cached, since every set of those parameters has it;
- rows are folded in blocks, each level of a block one f_mult call on
  two gathers of the level below, and the root level is written straight
  into the block's rows of the result.

Both kinds of row block are sized by one entry budget,
_BLOCK_ENTRY_BUDGET, so a build holds its result and temporaries of the
order of the budget, however many rows it has.

Every value passes through the same elementwise block recurrences, with
the same operands in the same order, as in eval_feature, so the plan's
columns equal eval_feature's bit for bit.
"""

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import netblocks
from .activation import admissibility_constants
from .data import as_batch
from .errors import FeatureCountError, ParameterError

__all__ = [
    "FeatureDescriptor",
    "FeatureSet",
    "multi_indices",
    "enumerate_features_cube",
    "enumerate_features_pp",
    "eval_feature",
    "eval_exact_target",
    "scale_lower_bound",
    "taylor_patch_P",
    "partition_of_unity_check",
    "architecture_summary",
    "ArchitectureSummary",
]

ENTRY_BUDGET = 2**24  # float64 entries (128 MiB); see _checked_count
# Entries one bench or rate run may compute; see _checked_loops.  The full
# benchmark protocol prices at about 2^35.2.
LOOP_BUDGET = 2**40


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


def _checked_count(kind, d, N, M, r=1, rows=1, trials=1):
    """The feature count J of an enumeration (kind "cube" or "line", r
    directions) under the one size rule: FeatureCountError when the
    C(N+d, d) * max(d, 2**s) tree leaves or multi-index table entries, or
    rows * J, exceed ENTRY_BUDGET,
    ParameterError when trials * (rows * J + 2^14) exceeds 2^30.  A float
    estimate of log J screens absurd parameters first, so they cost no
    big-integer arithmetic."""
    log_groups = d * math.log(M + 1) if kind == "cube" else math.log(r * (M + 1))
    try:
        log_J = (log_groups + math.lgamma(N + d + 1) - math.lgamma(N + 1)
                 - math.lgamma(d + 1))
    except OverflowError:  # lgamma of a count above about 1e305
        log_J = math.inf
    if log_J > math.log(ENTRY_BUDGET) + 1.0:
        raise FeatureCountError(
            f"feature count J of about 10^{log_J / math.log(10):.0f} exceeds "
            f"the supported maximum {ENTRY_BUDGET}"
        )
    J = (count_features_cube(d, N, M) if kind == "cube"
         else count_features_pp(d, N, M, r))
    # The C(N+d, d) trees have 2**s leaves each, and the multi-index table
    # holds d entries per tree; for a cube tree 2**s >= d.
    leaves = math.comb(N + d, d) * max(d, 1 << _tree_depth(kind, d, N))
    if leaves > ENTRY_BUDGET:
        raise FeatureCountError(
            f"product-tree leaf count or multi-index table of d={d}, N={N} "
            f"comes to {leaves} entries, above the supported maximum "
            f"{ENTRY_BUDGET}")
    if rows * J > ENTRY_BUDGET:
        size = (f"feature count J={J}" if rows == 1
                else f"design of n={rows} rows x J={J} features")
        keys = "N or M" if kind == "cube" else "r, N or M"
        raise FeatureCountError(f"{size} exceeds the supported maximum "
                                f"{ENTRY_BUDGET} entries; lower {keys}")
    limit = 2**30 // _fit_work(rows, J)
    if trials > limit:
        raise ParameterError(
            f"trials must be at most {limit} for n={rows} rows and J={J} "
            f"features: the budget is trials * (n * J + 2^14) <= 2^30"
        )
    return J


def _fit_work(rows, J, trials=1):
    """trials * (rows * J + 2^14): the price of trials fits on an n x J
    design, its entries plus 2^14 per fit."""
    return trials * (rows * J + 2**14)


def _fit_price(kind, d, N, M, r=1, rows=1, trials=1):
    """The _fit_work of a fit of trials trials on rows rows, or 0 when
    _checked_count refuses it, since such a fit stops before any work."""
    try:
        J = _checked_count(kind, d, N, M, r, rows, trials)
    except (FeatureCountError, ParameterError):
        return 0
    return _fit_work(rows, J, trials)


def _checked_loops(work, keys):
    """Refuse, before any draw, a bench or rate run whose loops price above
    LOOP_BUDGET entries: work sums the _fit_price of every fit and the rows
    x d of every sample it draws, and keys name what lowers it."""
    if work > LOOP_BUDGET:
        raise ParameterError(
            f"the run's loops come to about 2^{math.log2(work):.1f} entries, "
            f"above the supported maximum 2^{LOOP_BUDGET.bit_length() - 1}; "
            f"lower {keys}")


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
    half_width, R, amplitude, s), so scale_lower_bound and
    architecture_summary accept it too.
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
        self._len = (count_features_cube(d, degree_cap, M) if kind == "cube"
                     else count_features_pp(d, degree_cap, M,
                                            len(self.directions)))

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


def _checked_grid(N, M, name, h, R):
    """The clamped R of a grid whose parameters pass the grid rules, the
    one statement of them, which both enumerations and both estimator
    configs make: N >= 0, M >= 0 and a finite, positive half width h (a
    or A, as name says); R by netblocks.clamp_scale (positive, clamped at
    R_SUPPORTED_MAX with a warning); then (2h)^N <= R for N >= 1.

    Monomial partial products reach about (2h)^N, and a product block's
    expm1 overflows once |x +- y| / R passes about 709.  Where (2h)^N > R
    the block inputs pass R, so bound_mult already exceeds the values it
    approximates.  The test is made in logs, so no power overflows."""
    if N < 0 or M < 0 or not (h > 0 and math.isfinite(h)):
        raise ParameterError(f"invalid grid parameters N={N}, M={M}, {name}={h}")
    R = netblocks.clamp_scale(R)
    if N >= 1 and N * math.log(2.0 * h) > math.log(R):
        raise ParameterError(
            f"half width {name}={h:g} is too large for degree cap N={N} and "
            f"scale R={R:g}: (2*{name})^N must not exceed R"
        )
    return R


def enumerate_features_cube(d, N, M, a, R):
    """All (M+1)^d * C(N+d, d) cube features, as a FeatureSet ordered
    lexicographically by (anchor index tuple, multi-index).  d >= 1, the
    other parameters pass _checked_grid, and the set passes the size rule
    (_checked_count)."""
    if d < 1:
        raise ParameterError(f"invalid grid parameters d={d}: need d >= 1")
    R = _checked_grid(N, M, "a", a, R)
    _checked_count("cube", d, N, M)
    return FeatureSet("cube", d, N, M, float(a), R)


def enumerate_features_pp(d, N, M, A, R, directions):
    """All r * (M+1) * C(N+d, d) projection features, as a FeatureSet
    ordered by (direction index, anchor index, multi-index).  The r x d
    directions have components in [-1, 1] and r >= 1, d >= 1, the other
    parameters pass _checked_grid, and the set passes the size rule
    (_checked_count)."""
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
    if d < 1:
        raise ParameterError(f"invalid grid parameters d={d}: need d >= 1")
    R = _checked_grid(N, M, "A", A, R)
    _checked_count("line", d, N, M, r)
    return FeatureSet("line", d, N, M, math.sqrt(d) * A, R, float(A),
                      directions)


# ---------------------------------------------------------------------------
# network evaluation
# ---------------------------------------------------------------------------

def _fold_product_tree(leaves, R):
    params = netblocks.BlockParams(R=R)
    while len(leaves) > 1:
        leaves = [
            netblocks.f_mult(leaves[2 * k], leaves[2 * k + 1], params)
            for k in range(len(leaves) // 2)
        ]
    return leaves[0]


def leaf_specs(f):
    """Hashable descriptions of the product-tree leaves of f, in tree order.

    Specs: ("monomial", component, shift) for an identity block applied
    twice to x[component] - shift, once per unit of multi-index component;
    then ("hat", component, anchor) for each cube tent, or one
    ("hat_line", direction, anchor) for the projected tent; then ("one",)
    padding up to 2**s leaves.  Equal specs denote identical computations.
    """
    cube = f.kind == "cube"
    specs = [("monomial", l, f.anchor[l] if cube else 0.0)
             for l, j in enumerate(f.multi_index) for _ in range(j)]
    specs += ([("hat", k, f.anchor[k]) for k in range(f.d)] if cube
              else [("hat_line", f.direction, f.anchor)])
    return specs + [("one",)] * (2 ** f.s - len(specs))


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
        return netblocks._hat_network(xb[:, k], anchor, f.M, f.half_width,
                                      f.R)
    _, direction, anchor = spec
    proj = xb @ np.asarray(direction)
    return netblocks._hat_network(proj, anchor, f.M, f.half_width, f.R)


def eval_feature(x, f):
    """Evaluate the feature network f at x ((d,) or (n, d)) by folding its
    own leaves: the oracle of eval_features."""
    xb, single = as_batch(x, f.d)
    leaves = [eval_leaf(spec, xb, f) for spec in leaf_specs(f)]
    out = _fold_product_tree(leaves, f.R)
    return float(out[0]) if single else out


fold_product_tree = _fold_product_tree


# ---------------------------------------------------------------------------
# many features at once: the instance-level product-tree plan
# ---------------------------------------------------------------------------

# Cap on (row, instance) entries of one row block at the plan's widest
# level, which bounds the fold's temporaries, and, halved, on (row, tent)
# entries of one leaf block, which bounds the tent networks' (see
# eval_features); ridge reads its system in row blocks of this size.
# On a 2-vCPU Xeon (2 MiB L2 per core) with numpy 2.4 and f_mult's
# compiled kernel, interleaved builds of a 4,000-row cube design (d=4,
# N=2, M=2; widest level 1,215) and an 8,811-row projection design (d=6,
# N=2, M=16, r=4; widest level 1,904) took, in medians of 7 at budgets
# 2^13, 2^14, 2^15 and 2^16, in two rounds: cube 0.14-0.15, 0.11,
# 0.09-0.10, 0.09 s and projection 0.42, 0.34-0.36, 0.29-0.30,
# 0.28-0.29 s.  Smaller blocks pay the per-call cost of the gathers and
# of f_mult's four passes more often; 2^16 gains at most a tenth over
# 2^15 and doubles the fold's buffers.  The tents of that projection
# design (68 columns) took 46-53 ms in 481-row blocks, in medians of 7
# in two rounds, and 86-100 ms as one whole-batch table.
_BLOCK_ENTRY_BUDGET = 2**15


def _leaf_codes(kind, d, N):
    """The leaves of the product trees of one (kind, d, N), a (K, 2**s)
    array whose row k lists, in the order of leaf_specs, the leaves of
    multi-index k without a group's anchor and direction, coded: the
    monomial of coordinate l as l, tent k as d + k and the constant one
    as d + tents, with tents = d for a cube tree and 1 for a projection
    tree."""
    table = _multi_index_table(d, N)
    K, tents = len(table), d if kind == "cube" else 1
    sizes = table.sum(axis=1)
    width = 2 ** _tree_depth(kind, d, N)
    codes = np.full((K, width), d + tents, dtype=np.intp)
    rows = np.repeat(np.arange(K), sizes)
    codes[rows, np.arange(rows.size) - (np.cumsum(sizes) - sizes)[rows]] = (
        np.repeat(np.tile(np.arange(d), K), table.ravel()))
    codes[np.arange(K)[:, None], sizes[:, None] + np.arange(tents)] = (
        d + np.arange(tents))
    return codes


def _leaf_instances(kind, d, M, r):
    """The leaf instances of a FeatureSet, as (V, ids).

    V is the width of a leaf block of eval_features, whose columns hold
    the tents of coordinate k (cube) or direction k (line) at anchor i in
    column k * (M+1) + i, then the monomials, of coordinate l at anchor i
    (cube) or of coordinate l (line), then the constant one.  ids[g, code]
    is the column of the leaf coded code (see _leaf_codes) in group g: a
    cube tent or monomial of coordinate k at the anchor index of k in g,
    the projection tent of g, a raw monomial or the constant one.
    """
    m1 = M + 1
    if kind == "cube":
        places = m1 ** np.arange(d - 1, -1, -1)
        anchors = np.arange(m1 ** d)[:, None] // places % m1
        tents = np.arange(d) * m1 + anchors
        monos = d * m1 + tents
        V = 2 * d * m1 + 1
    else:
        tents = np.arange(r * m1)[:, None]
        monos = np.broadcast_to(r * m1 + np.arange(d), (len(tents), d))
        V = r * m1 + d + 1
    return V, np.hstack([monos, tents, np.full((len(tents), 1), V - 1)])


@functools.lru_cache(maxsize=16)
def _plan(kind, d, N, M, r):
    """The product trees of every feature of a FeatureSet, as instances.

    Returns one (left, right) pair of index arrays per tree level above
    the leaves: instance i of a level is the product of instances left[i]
    and right[i] of the level below, level 0 being the leaf blocks.  Below
    the root, an instance is a distinct pair of child instances, so a node
    is evaluated once per distinct sub-tuple of the anchors it depends on
    (once for all groups when it depends on none).  The root level holds
    the features in FeatureSet column order.  Template nodes, the nodes of
    the K trees without anchors, are de-duplicated first, so no array here
    has more than (groups, nodes per group) entries.
    """
    codes = _leaf_codes(kind, d, N)
    V, ids = _leaf_instances(kind, d, M, r)
    n_codes, folds = ids.shape[1], []
    while codes.shape[1] > 2:
        nodes, inverse = np.unique(codes[:, 0::2] * n_codes + codes[:, 1::2],
                                   return_inverse=True)
        codes = inverse.reshape(len(codes), -1)
        pairs = ids[:, nodes // n_codes] * V + ids[:, nodes % n_codes]
        instances, inverse = np.unique(pairs, return_inverse=True)
        ids, n_codes = inverse.reshape(pairs.shape), len(nodes)
        folds.append(tuple(map(_frozen, np.divmod(instances, V))))
        V = len(instances)
    if codes.shape[1] == 2:
        # Column g * K + k is the root of multi-index k in group g.
        folds.append(tuple(_frozen(ids[:, codes[:, side]].ravel())
                           for side in (0, 1)))
    return tuple(folds)


def eval_features(fs, xb):
    """Evaluate every feature of the FeatureSet fs on an (n, d) batch xb.

    Returns an (n, len(fs)) array whose column j equals
    eval_feature(xb, fs[j]) bit for bit.  The module docstring describes
    the plan that computes it.  Rows are taken in leaf blocks: each
    block's leaves are evaluated into one buffer, then folded in
    sub-blocks before the next block is evaluated.  With widest the
    widest level of the plan (_BLOCK_ENTRY_BUDGET when the trees have
    one leaf) and tents the number of tent columns,

        fold step = max(1, _BLOCK_ENTRY_BUDGET // widest),
        leaf step = the largest multiple of the fold step up to
                    _BLOCK_ENTRY_BUDGET // (2 * tents), and at least
                    one fold step.

    The fold runs in seven buffers of at most
    max(_BLOCK_ENTRY_BUDGET, widest) entries, which every sub-block
    reuses: one-row sub-blocks when J exceeds the budget, whose
    temporaries are the order of one design row.  Only half the budget
    goes to a leaf block because the fold's buffers stay allocated while
    the next block's tent networks run, and those hold about a dozen
    temporaries of the block's tent entries.  So besides its result a
    call holds one leaf block, the fold's buffers, the temporaries of
    one block's tent networks and, for a projection set, the n x r
    projections: not the (n, V) values of every leaf at once.
    """
    r = 1 if fs.kind == "cube" else len(fs.directions)
    folds = _plan(fs.kind, fs.d, fs.degree_cap, fs.M, r)
    params = netblocks.BlockParams(R=fs.R)
    n = xb.shape[0]
    out = np.empty((n, len(fs)))
    if fs.kind == "cube":
        inputs = xb
    else:
        # Each projection is its own matrix-vector product over the whole
        # batch, as in eval_leaf; a row block would move its bits.
        inputs = np.stack([xb @ np.array(b) for b in fs.directions], axis=1)
    tents = inputs.shape[1] * (fs.M + 1)
    widest = max((left.size for left, _ in folds),
                 default=_BLOCK_ENTRY_BUDGET)
    step = max(1, _BLOCK_ENTRY_BUDGET // widest)
    leaf_step = max(step, _BLOCK_ENTRY_BUDGET // (2 * tents) // step * step)
    # The leaves of a block, laid out as _leaf_instances indexes them.
    n_monos = tents if fs.kind == "cube" else fs.d
    leaves = np.empty((min(leaf_step, n), tents + n_monos + 1))
    leaves[:, -1] = 1.0
    anchors = np.tile(fs.grid, inputs.shape[1])
    # The temporaries of every fold sub-block live in these buffers.
    # Allocated per sub-block, arrays of this size come from mmap or from
    # a heap top that free() trims, depending on the heap's layout, and
    # then every sub-block faults their pages in again.  They are
    # allocated once the first leaf block's tent temporaries are freed:
    # allocated before, 50 builds of 100 rows x 1,904 features took 18.4k
    # page faults, not 1.8k.
    buffers = None

    def buffer(i, shape):
        return buffers[i, :shape[0] * shape[1]].reshape(shape)

    for first in range(0, n, leaf_step):
        rows = slice(first, first + leaf_step)
        points = np.repeat(inputs[rows], fs.M + 1, axis=1)
        block = leaves[:len(points)]
        block[:, :tents] = netblocks._hat_network(
            points, anchors, fs.M, fs.half_width, fs.R)
        # leaf_specs shifts projection monomials by 0.0, which leaves
        # every x unchanged.
        monos = points - anchors if fs.kind == "cube" else xb[rows]
        block[:, tents:-1] = netblocks.f_id(netblocks.f_id(monos, params),
                                            params)
        if not folds:
            # A one-leaf tree is the tent of its group g, leaf column g.
            out[rows] = block[:, :len(fs)]
            continue
        if buffers is None:
            buffers = np.empty((7, min(step, n) * widest))
        for start in range(0, len(block), step):
            values = block[start:start + step]
            sub = slice(first + start, first + start + len(values))
            for level, (left, right) in enumerate(folds, 1):
                shape = (values.shape[0], left.size)
                # mode="clip" (the indices are in range) keeps np.take from
                # gathering into a temporary of its own first.
                x = np.take(values, left, axis=1, mode="clip",
                            out=buffer(0, shape))
                y = np.take(values, right, axis=1, mode="clip",
                            out=buffer(1, shape))
                values = netblocks.f_mult(
                    x, y, params,
                    out=out[sub] if level == len(folds) else buffer(2, shape),
                    scratch=[buffer(i, shape) for i in range(3, 7)])
    return out


# ---------------------------------------------------------------------------
# exact targets
# ---------------------------------------------------------------------------

def eval_exact_target(x, f):
    """The idealized feature f: its monomial, shifted by the anchor (cube)
    or by 0.0 (line), times its exact tents (one per coordinate for a cube
    feature, the tent in b'x for a projection feature)."""
    xb, single = as_batch(x, f.d)
    cube = f.kind == "cube"
    out = np.ones(xb.shape[0])
    for l, j in enumerate(f.multi_index):
        if j:
            out = out * (xb[:, l] - (f.anchor[l] if cube else 0.0)) ** j
    tents = (zip(xb.T, f.anchor) if cube
             else [(xb @ np.asarray(f.direction), f.anchor)])
    for t, anchor in tents:
        out = out * netblocks.exact_hat(t, anchor, f.M, f.half_width)
    return float(out[0]) if single else out


def scale_lower_bound(f):
    """Smallest R for which the feature's guaranteed error bound applies.

    math.inf when a power in the bound overflows: no finite R meets it.
    """
    prof = admissibility_constants()
    w = f.half_width if f.kind == "cube" else f.amplitude
    try:
        taylor_term = ((20.0 * prof.sup_d3 / (3.0 * abs(prof.d2_at_sq)))
                       * 3.0 ** (3 * 3 ** f.s) * w ** (3 * 2 ** f.s))
    except OverflowError:
        taylor_term = math.inf
    terms = [
        prof.sup_d2 * (f.M + 1) / (2.0 * prof.d1_at_id),
        9.0 * prof.sup_d2 * w / prof.d1_at_id,
        taylor_term,
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
    xb, single = as_batch(x, x.shape[-1] if x.ndim else 0)
    d = xb.shape[1]
    if M < 1:
        raise ParameterError("taylor_patch_P needs M >= 1")
    _checked_count("cube", d, 0, M)  # the (M+1)^d anchors
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
    # Order 0 with the constant oracle 1 sums the product tents alone.
    total = taylor_patch_P(pts, lambda anchor, alpha: 1.0, M, a, 0)
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
