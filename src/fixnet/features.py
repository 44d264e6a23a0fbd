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
eval_feature evaluates one feature by folding its own leaves; it is the
oracle for eval_features, which evaluates a whole design matrix through
a plan compiled once per call:

- features sharing an anchor and direction form a group, and groups with
  one tree shape form a family with one template tree over the family's
  multi-indices;
- template nodes are de-duplicated by their child pair.  Shared nodes
  (only constant or raw-monomial leaves below) are evaluated once, not
  once per group; per-group nodes (a tent or an anchor-shifted monomial
  below) are evaluated for blocks of rows and groups, a block holding at
  most _BLOCK_ENTRY_BUDGET (row, group, node) entries at its widest level;
- each distinct leaf is evaluated once, and the fold runs level by level,
  one f_mult call per level per block.

Every value passes through the same elementwise block recurrences, with
the same operands in the same order, as in eval_feature, so the plan's
columns equal eval_feature's bit for bit.
"""

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import netblocks
from .activation import admissibility_constants
from .netblocks import clamp_scale
from .errors import FeatureCountError, ParameterError

__all__ = [
    "FeatureDescriptor",
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
        if self.kind == "cube":
            return math.ceil(math.log2(self.degree_cap + self.d))
        return math.ceil(math.log2(self.degree_cap + 1))


def multi_indices(d, N):
    """All d-tuples of nonnegative integers with sum <= N, lexicographic."""
    out = [j for j in itertools.product(range(N + 1), repeat=d) if sum(j) <= N]
    return out


def _count_or_raise(J):
    if J > MAX_FEATURES:
        raise FeatureCountError(
            f"feature count J={J} exceeds the supported maximum {MAX_FEATURES}"
        )


def count_features_cube(d, N, M):
    """Feature count of the cube enumeration, (M+1)^d * C(N+d, d)."""
    return (M + 1) ** d * math.comb(N + d, d)


def count_features_pp(d, N, M, r):
    """Feature count of the projection enumeration, r * (M+1) * C(N+d, d)."""
    return r * (M + 1) * math.comb(N + d, d)


def enumerate_features_cube(d, N, M, a, R):
    """All (M+1)^d * C(N+d, d) cube features, ordered lexicographically by
    (anchor index tuple, multi-index)."""
    if d < 1 or N < 0 or M < 0:
        raise ParameterError(f"invalid grid parameters d={d}, N={N}, M={M}")
    if not a > 0:
        raise ParameterError(f"a must be positive, got {a!r}")
    R = clamp_scale(R)
    J = (M + 1) ** d * math.comb(N + d, d)
    _count_or_raise(J)
    step = 2.0 * a / M if M > 0 else 0.0
    js = multi_indices(d, N)
    out = []
    for idx in itertools.product(range(M + 1), repeat=d):
        anchor = tuple(-a + i * step for i in idx)
        for j in js:
            out.append(FeatureDescriptor(
                kind="cube", d=d, degree_cap=N, multi_index=j,
                anchor=anchor, anchor_index=idx, M=M, half_width=float(a), R=R,
            ))
    return out


def enumerate_features_pp(d, N, M, A, R, directions):
    """All r * (M+1) * C(N+d, d) projection features, ordered by
    (direction index, anchor index, multi-index)."""
    directions = np.asarray(directions, dtype=float)
    if directions.ndim != 2 or directions.shape[1] != d:
        raise ParameterError(
            f"directions must be an r x {d} matrix, got shape {directions.shape}"
        )
    r = directions.shape[0]
    if r < 1:
        raise ParameterError("at least one direction is required")
    if np.any(np.abs(directions) > 1.0 + 1e-12):
        raise ParameterError("direction components must lie in [-1, 1]")
    if N < 0 or M < 0 or not A > 0:
        raise ParameterError(f"invalid grid parameters N={N}, M={M}, A={A}")
    R = clamp_scale(R)
    J = r * (M + 1) * math.comb(N + d, d)
    _count_or_raise(J)
    half = math.sqrt(d) * A
    step = 2.0 * half / M if M > 0 else 0.0
    js = multi_indices(d, N)
    out = []
    for l in range(r):
        b = tuple(float(v) for v in directions[l])
        for i in range(M + 1):
            u = -half + i * step
            for j in js:
                out.append(FeatureDescriptor(
                    kind="line", d=d, degree_cap=N, multi_index=j,
                    anchor=u, anchor_index=i, M=M, half_width=half, R=R,
                    amplitude=float(A), direction=b, direction_index=l,
                ))
    return out


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
# blocks this small stay in cache: on a 2-vCPU Xeon with numpy 2.4, f_mult
# on 2^14 entries takes 22 ns per entry, on 2^18 entries 55 ns.
_BLOCK_ENTRY_BUDGET = 2**14


def _group_key(f):
    # Everything except the multi-index: features sharing a key share every
    # leaf array and differ only in which leaves fill their trees.
    return (f.kind, f.d, f.degree_cap, f.anchor, f.direction, f.M,
            f.half_width, f.R)


def _gather(children):
    # Index arrays (positions, sources) of the per-group and of the shared
    # children among one side of a level's per-group node pairs.
    group = [(pos, c[1]) for pos, c in enumerate(children) if c[0]]
    shared = [(pos, c[1]) for pos, c in enumerate(children) if not c[0]]
    return tuple(np.array([t[k] for t in part], dtype=np.intp)
                 for part in (group, shared) for k in (0, 1))


@dataclass(frozen=True)
class _TreePlan:
    """The de-duplicated product trees of one feature family.

    Tree nodes are de-duplicated by their child pair.  A shared node has
    only constant-one or raw-monomial leaves below it, so it takes the
    same values in every group and is folded once for all of them; a
    per-group node has a tent or an anchor-shifted monomial below it.
    Level k + 1 folds shared_folds[k] (left and right indices into the
    shared nodes of level k) and group_folds[k] (left and right gathers,
    see _gather); widths[k] counts the per-group nodes of level k, and
    roots maps each multi-index to its per-group root node.
    """

    kind: str
    shared_leaves: tuple
    group_leaves: tuple
    shared_folds: tuple
    group_folds: tuple
    widths: tuple
    roots: dict


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
    shared_folds, group_folds, widths = [], [], [len(group_leaves)]
    while len(rows[0]) > 1:
        nodes = ([], [])
        ids = {}
        for i, row in enumerate(rows):
            merged = []
            for pair in zip(row[0::2], row[1::2]):
                if pair not in ids:
                    side = pair[0][0] or pair[1][0]
                    ids[pair] = (side, len(nodes[side]))
                    nodes[side].append(pair)
                merged.append(ids[pair])
            rows[i] = merged
        shared, group = nodes
        shared_folds.append(tuple(np.array([c[side][1] for c in shared],
                                           dtype=np.intp) for side in (0, 1)))
        group_folds.append(tuple(_gather([c[side] for c in group])
                                 for side in (0, 1)))
        widths.append(len(group))
    roots = {}
    for j, row in zip(multi_index_list, rows):
        per_group, index = row[0]
        assert per_group, "every feature has a tent leaf"
        roots[j] = index
    return _TreePlan(kind, shared_leaves, group_leaves, tuple(shared_folds),
                     tuple(group_folds), tuple(widths), roots)


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


def _leaf_sources(plan, heads, xb):
    """The distinct per-group leaves.

    Returns (sources, index).  A source (leaf name, input column, grid)
    stands for the named leaf of the column against every grid value; a
    cube leaf has one source per component, over the distinct grid values
    it takes across the groups, and a projection tent one per direction,
    over that direction's anchors, on the one product xb @ direction.
    index maps (group, per-group leaf) to a column of the source values
    laid side by side.
    """
    index = np.empty((len(heads), len(plan.group_leaves)), dtype=np.intp)
    sources = []
    offset = 0
    if plan.kind == "line":
        # The only per-group leaf of a projection tree is its tent.
        by_direction = {}
        for g, h in enumerate(heads):
            by_direction.setdefault(h.direction, []).append(g)
        for direction, members in by_direction.items():
            grid, inverse = np.unique([heads[g].anchor for g in members],
                                      return_inverse=True)
            sources.append(("tent", xb @ np.asarray(direction), grid))
            index[members, 0] = offset + inverse
            offset += grid.size
        return sources, index
    for p, (name, comp) in enumerate(plan.group_leaves):
        grid, inverse = np.unique([h.anchor[comp] for h in heads],
                                  return_inverse=True)
        sources.append((name, xb[:, comp], grid))
        index[:, p] = offset + inverse
        offset += grid.size
    return sources, index


def _leaf_table(sources, lead, params):
    """(n, V) values of every source, side by side."""
    columns = []
    for name, column, grid in sources:
        x = column[:, None]
        if name == "tent":
            columns.append(_hat_leaf(x, grid, lead.M, lead.half_width, lead.R))
        else:
            columns.append(netblocks.f_id(netblocks.f_id(x - grid, params),
                                          params))
    return np.concatenate(columns, axis=1)


def _operand(gather, prev, shared):
    """One side of a level's per-group f_mult, as a contiguous
    (rows, groups, nodes) array: per-group children are copied, shared
    ones broadcast over the groups."""
    gpos, gsrc, spos, ssrc = gather
    if not spos.size:
        return np.take(prev, gsrc, axis=2)
    rows, groups = prev.shape[:2]
    buf = np.empty((rows, groups, gpos.size + spos.size))
    buf[:, :, gpos] = np.take(prev, gsrc, axis=2)
    buf[:, :, spos] = np.take(shared, ssrc, axis=1)[:, None, :]
    return buf


def _eval_family(feature_list, group_cols, xb, out):
    """Write the columns of one family (features with one tree shape and
    one set of leaf parameters) into out, block by block of rows and
    groups."""
    heads = [feature_list[cols[0]] for cols in group_cols]
    lead = heads[0]
    params = netblocks.BlockParams(R=lead.R)
    multis = [[feature_list[c].multi_index for c in cols] for cols in group_cols]
    plan = _compile_tree(lead.kind,
                         list(dict.fromkeys(itertools.chain(*multis))), lead.s)
    sources, leaf_index = _leaf_sources(plan, heads, xb)

    width = plan.widths[-1]
    flat = np.concatenate([
        g * width + np.array([plan.roots[j] for j in m], dtype=np.intp)
        for g, m in enumerate(multis)
    ])
    cols = np.concatenate(group_cols)
    bounds = np.cumsum([0] + [len(c) for c in group_cols])

    n = xb.shape[0]
    widest = max(plan.widths)
    rows_per_block = max(1, min(n, _BLOCK_ENTRY_BUDGET // widest))
    groups_per_block = max(1, _BLOCK_ENTRY_BUDGET // (rows_per_block * widest))
    shared = _shared_levels(plan, xb, params)
    table = _leaf_table(sources, lead, params)
    for r0 in range(0, n, rows_per_block):
        rows = slice(r0, r0 + rows_per_block)
        for start in range(0, len(heads), groups_per_block):
            stop = min(start + groups_per_block, len(heads))
            values = np.take(table[rows], leaf_index[start:stop], axis=1)
            for level, (left, right) in enumerate(plan.group_folds):
                values = netblocks.f_mult(
                    _operand(left, values, shared[level][rows]),
                    _operand(right, values, shared[level][rows]), params)
            values = values.reshape(values.shape[0], -1)
            lo, hi = bounds[start], bounds[stop]
            out[rows, cols[lo:hi]] = np.take(
                values, flat[lo:hi] - start * width, axis=1)


def eval_features(feature_list, xb):
    """Evaluate many features on an (n, d) batch; returns an (n, J) array.

    Features are grouped by anchor and direction (_group_key), and groups
    with one tree shape form a family compiled into one _TreePlan.  Each
    distinct leaf is evaluated once, shared tree nodes once for all
    groups, and per-group nodes level by level in one f_mult call per
    block of rows and groups; a block holds at most _BLOCK_ENTRY_BUDGET
    entries at its widest level.
    Every value goes through the same elementwise block recurrences as in
    eval_feature, so column j equals eval_feature(xb, feature_list[j])
    bit for bit.
    """
    groups = {}
    for col, f in enumerate(feature_list):
        groups.setdefault(_group_key(f), []).append(col)
    families = {}
    for key, cols in groups.items():
        # The group key without anchor and direction.
        families.setdefault(key[:3] + key[5:], []).append(cols)
    out = np.empty((xb.shape[0], len(feature_list)))
    for group_cols in families.values():
        _eval_family(feature_list, group_cols, xb, out)
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
