"""The batched exact kernels against per-vertex and per-direction loops.

Every comparison runs on both array dtypes: int64 where the overflow bound
allows it, Python ints (dtype=object) where it does not (sphere-tangent
families in d >= 3 and float-lifted families always take that path).
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from dualdepth import (
    DegenerateInstanceError,
    GeneralPositionResult,
    Hyperplane,
    Instance,
    check_general_position,
    dual_depth,
    ensure_general_position,
    gen_instance,
    max_depth_point,
)
from dualdepth import depth, geometry, tverberg
from dualdepth.tverberg import _max_slack, form_simplex
from dualdepth.geometry import (
    DegenerateSubfamilyError,
    int_array,
    scale_to_int,
    solve_underdetermined,
    stacked_cofactors,
    vertex_blocks,
)

from conftest import (
    check_general_position_reference,
    cofactor_direction,
    dual_depth_reference,
    exact_dtype_of,
    form_simplex_reference,
    hemisphere_at_origin,
    hemisphere_depth_reference,
    int_rows,
    margin_lp,
    margin_rows,
    max_depth_point_reference,
    max_depth_point_unpruned,
    simplex_reference,
    solve_int_square,
    vertex_reference,
)

# (model, d, n); the n=30 and n=14 families span more than one vertex block
FAMILIES = [
    ("random-rational", 2, 12),
    ("random-rational", 2, 30),
    ("random-rational", 3, 14),
    ("random-rational", 4, 8),
    ("random-rational", 5, 8),
    ("perturbed-grid", 2, 10),
    ("perturbed-grid", 3, 9),
    ("perturbed-grid", 4, 8),
    ("perturbed-grid", 5, 7),
    ("uniform-sphere-tangent", 2, 10),
    ("uniform-sphere-tangent", 3, 9),
    ("uniform-sphere-tangent", 4, 7),
    ("uniform-sphere-tangent", 5, 7),
]


def _float_lifted(n, d, seed):
    """Hyperplanes with float coefficients lifted exactly, as the center search makes them."""
    rng = np.random.default_rng(seed)
    return Instance(d, [
        Hyperplane(tuple(Fraction(float(c)) for c in rng.normal(size=d)),
                   Fraction(float(rng.normal())))
        for _ in range(n)
    ])


def _vertex_dtype(F):
    return next(vertex_blocks(F))[1].dtype


def _normal_array(F):
    """F's normals as the rows of an array, with a bound on their entries."""
    A, max_abs = F.row_array()
    return A[:, :F.dim], max_abs


def _families():
    for model, d, n in FAMILIES:
        for seed in range(2):
            yield f"{model}-d{d}-n{n}-s{seed}", gen_instance(model, n, d, seed=seed)
    for d in (2, 3):
        yield f"float-lifted-d{d}", _float_lifted(10, d, seed=d)


CASES = list(_families())


@pytest.mark.parametrize("F", [F for _, F in CASES], ids=[name for name, _ in CASES])
def test_max_depth_point_matches_vertex_loop(F):
    assert max_depth_point(F) == max_depth_point_reference(F)


@pytest.mark.parametrize("F", [F for _, F in CASES], ids=[name for name, _ in CASES])
def test_dual_depth_matches_direction_loop(F):
    rng = np.random.default_rng(F.n * 10 + F.dim)
    points = [_meet(F.hyperplanes[:F.dim])]  # on d hyperplanes
    points += [
        tuple(Fraction(int(v), int(q)) for v, q in zip(rng.integers(-50, 51, F.dim),
                                                       rng.integers(1, 9, F.dim)))
        for _ in range(3)
    ]
    for x in points:
        assert dual_depth(F, x) == dual_depth_reference(F, x)


@pytest.mark.parametrize("F", [F for _, F in CASES], ids=[name for name, _ in CASES])
def test_pruning_with_few_probes_matches_vertex_loop(F, monkeypatch):
    # one or two probes give loose bounds, so more vertices reach the full product
    ref = max_depth_point_reference(F)
    for probes in (1, 2):
        monkeypatch.setattr(depth, "_PROBES", probes)
        assert max_depth_point(F) == ref


@pytest.mark.parametrize("F", [F for _, F in CASES], ids=[name for name, _ in CASES])
def test_full_counts_in_chunks_match_vertex_loop(F, monkeypatch):
    # one probe keeps many vertices, and they get their full counts three at a time
    J = sum(len(dirs) for _, dirs, _ in depth._edge_blocks(*_normal_array(F)))
    ref = max_depth_point_unpruned(F)
    monkeypatch.setattr(depth, "_PROBES", 1)
    monkeypatch.setattr(geometry, "_BUDGET", 3 * J)
    assert max_depth_point(F) == ref


@pytest.mark.parametrize("model,d,n,seed", [
    ("random-rational", 3, 24, 0),
    ("random-rational", 3, 24, 1),
    ("random-rational", 4, 16, 0),
    ("random-rational", 4, 16, 1),
    ("uniform-sphere-tangent", 3, 24, 0),
    ("uniform-sphere-tangent", 4, 16, 0),
])
def test_pruned_search_matches_unpruned_at_size(model, d, n, seed):
    # past the probe count: 276 edge directions at d=3, 560 at d=4
    F = gen_instance(model, n, d, seed=seed)
    assert max_depth_point(F) == max_depth_point_unpruned(F)


@pytest.mark.parametrize("seed", range(3))
def test_dual_depth_with_long_denominators(seed):
    # float-lifted and object-path families, at points x = X / L with
    # 30-digit denominators
    rng = np.random.default_rng(seed)
    cases = [_float_lifted(10, 2, seed), _float_lifted(10, 3, seed),
             gen_instance("uniform-sphere-tangent", 7, 4, seed=seed)]
    for F in cases:
        for _ in range(3):
            x = tuple(Fraction(int(rng.integers(-10**6, 10**6)) * 10**24 + int(rng.integers(10**6)),
                               10**29 + int(rng.integers(10**9)))
                      for _ in range(F.dim))
            assert max(c.denominator for c in x) > 10**28
            assert dual_depth(F, x) == dual_depth_reference(F, x)


@pytest.mark.parametrize("F", [F for _, F in CASES], ids=[name for name, _ in CASES])
def test_general_position_matches_subset_loop(F):
    assert check_general_position(F) == check_general_position_reference(F)


def test_bound_picks_dtype():
    # width 2: int64 while 2! * M^2 < 2^62, i.e. M <= 2^30
    assert exact_dtype_of([(2**30, -1)]) == np.int64
    assert exact_dtype_of([(2**31, -1)]) == object
    assert _vertex_dtype(gen_instance("random-rational", 8, 4, seed=0)) == np.int64
    assert _vertex_dtype(gen_instance("uniform-sphere-tangent", 2, 2, seed=0)) == np.int64
    # sphere-tangent coefficients reach ~2.3e7 in d=3: 4! * M^4 is far past 2^62
    assert _vertex_dtype(gen_instance("uniform-sphere-tangent", 5, 3, seed=0)) == object


def test_vertices_exact_just_under_the_bound():
    # d=2, entries up to 915000: 3! * M^3 is just under 2^62, so int64 is used
    rng = np.random.default_rng(5)
    hs = [
        Hyperplane(tuple(Fraction(int(c)) for c in rng.integers(900_000, 915_000, 2)
                         * rng.choice([-1, 1], 2)),
                   Fraction(int(rng.integers(-915_000, 915_000))))
        for _ in range(12)
    ]
    F = Instance(2, hs)
    normals, offsets = int_rows(F)
    for subsets, nums, den, R in vertex_blocks(F):
        assert nums.dtype == np.int64 and R.dtype == np.int64
        for sub, nu, de, r in zip(subsets.tolist(), nums.tolist(), den.tolist(), R.tolist()):
            sol = solve_int_square([normals[i] for i in sub], [offsets[i] for i in sub])
            assert sol == (tuple(nu), de)
            assert r == [b * de - sum(a * v for a, v in zip(normal, nu))
                         for normal, b in zip(normals, offsets)]
    assert max_depth_point(F) == max_depth_point_reference(F)


@pytest.mark.parametrize("scale", [1, 10**25])
def test_stacked_cofactors_match_cofactor_direction(scale):
    rng = np.random.default_rng(3)
    for k in range(1, 7):
        mats = [[[int(c) * scale for c in row] for row in mat]
                for mat in rng.integers(-60, 61, size=(30, k - 1, k))]
        arr = np.array(mats, dtype=np.int64 if scale == 1 else object).reshape(30, k - 1, k)
        out = stacked_cofactors(arr)
        for b in range(30):
            assert tuple(out[b].tolist()) == cofactor_direction(mats[b], k)


@pytest.mark.parametrize("scale", [1, 10**25])
def test_hemisphere_depth_matches_direction_loop(scale):
    rng = np.random.default_rng(11)
    for dim in (1, 2, 3, 4):
        for m in (1, 2, 5, 9):
            vecs = [tuple(int(c) * scale for c in v) for v in rng.integers(-4, 5, size=(m, dim))]
            vecs = [v for v in vecs if any(v)]
            if vecs:
                ints = [c for v in vecs for c in scale_to_int([Fraction(c) for c in v])]
                assert hemisphere_at_origin(ints, dim) == hemisphere_depth_reference(vecs, dim)


def test_hemisphere_depth_rank_deficient():
    # all in the plane x3 = 0, then all on one line: the witness is the null space's
    plane = [(1, 2, 0), (-3, 1, 0), (2, -5, 0), (1, 1, 0)]
    line = [(2, 4, 6), (-1, -2, -3), (3, 6, 9)]
    for vecs in (plane, line, [(10**30, 0, 0), (-1, 0, 0)]):
        got = hemisphere_at_origin([c for v in vecs for c in v], 3)
        assert got == hemisphere_depth_reference(vecs, 3)
        assert got[0] == 0


def _random_planes(n, d, seed, big=1):
    rng = np.random.default_rng(seed)
    return [
        Hyperplane(tuple(Fraction(int(c) * big) for c in rng.integers(-40, 41, d)),
                   Fraction(int(rng.integers(-40, 41)) * big, 7))
        for _ in range(n)
    ]


def _through(point, normal):
    normal = tuple(Fraction(c) for c in normal)
    return Hyperplane(normal, sum(a * b for a, b in zip(normal, point)))


def _meet(hs):
    """The common point of d hyperplanes in R^d, by the Cramer solve."""
    normals, offsets = int_rows(Instance(len(hs), hs))
    nums, den = solve_int_square(normals, offsets)
    return tuple(Fraction(v, den) for v in nums)


def _degenerate_families():
    # d=2: lines 2 and 4 parallel; (0, 1, 3) concurrent comes earlier in the
    # (d+1)-order, but every d-subset is checked first
    hs = _random_planes(6, 2, seed=1)
    hs[4] = Hyperplane(tuple(3 * c for c in hs[2].normal), hs[2].offset + 1)
    hs[3] = _through(_meet(hs[:2]), (7, -2))
    yield "parallel-after-concurrent", Instance(2, hs), (2, 4), "degenerate"
    # d=2: lines 1, 3, 5 share a point
    hs = _random_planes(7, 2, seed=2)
    p = _meet([hs[1], hs[3]])
    hs[5] = _through(p, (5, 11))
    yield "concurrent-135", Instance(2, list(hs)), (1, 3, 5), "concurrent"
    # d=2: two triples, (1, 3, 5) and the earlier (0, 4, 6)
    hs[6] = _through(_meet([hs[0], hs[4]]), (-6, 13))
    yield "two-concurrent-triples", Instance(2, hs), (0, 4, 6), "concurrent"
    # d=2: lines 2, 3, 5 and 6 through one point
    hs = _random_planes(8, 2, seed=7)
    p = _meet(hs[2:4])
    hs[5], hs[6] = _through(p, (3, 8)), _through(p, (-9, 2))
    yield "four-through-one-point", Instance(2, hs), (2, 3, 5), "concurrent"
    # d=3: planes 1, 2, 4, 6 share a point
    hs = _random_planes(8, 3, seed=3)
    p = _meet([hs[1], hs[2], hs[4]])
    hs[6] = _through(p, (2, -3, 5))
    yield "concurrent-1246", Instance(3, hs), (1, 2, 4, 6), "concurrent"
    # d=3 with coefficients past the int64 bound, concurrency at (0, 2, 3, 5)
    hs = _random_planes(7, 3, seed=4, big=10**12)
    p = _meet([hs[0], hs[2], hs[3]])
    hs[5] = _through(p, (10**13 + 1, -3, 5))
    yield "object-concurrent-0235", Instance(3, hs), (0, 2, 3, 5), "concurrent"
    # d=2, n=30: the parallel pair (27, 29) sits in the second vertex block,
    # after the concurrent triple (0, 1, 2) of the first
    hs = _random_planes(30, 2, seed=5)
    hs[29] = Hyperplane(tuple(-c for c in hs[27].normal), -hs[27].offset + 2)
    hs[2] = _through(_meet(hs[:2]), (1, 9))
    yield "parallel-second-block", Instance(2, hs), (27, 29), "degenerate"
    # d=2, n=30: concurrency only in the second block
    hs = _random_planes(30, 2, seed=6)
    hs[28] = _through(_meet([hs[20], hs[25]]), (4, -9))
    yield "concurrent-second-block", Instance(2, hs), (20, 25, 28), "concurrent"


DEGENERATE = list(_degenerate_families())


@pytest.mark.parametrize(
    "F,violation,reason",
    [case[1:] for case in DEGENERATE],
    ids=[case[0] for case in DEGENERATE],
)
def test_first_violation_matches_subset_loop(F, violation, reason):
    gp = check_general_position(F)
    assert gp == check_general_position_reference(F)
    assert (gp.ok, gp.violation, gp.reason) == (False, violation, reason)
    assert all(type(i) is int for i in gp.violation)


@pytest.mark.parametrize(
    "F", [case[1] for case in DEGENERATE], ids=[case[0] for case in DEGENERATE]
)
def test_center_raises_the_general_position_error(F):
    # a fresh copy has no cached verdict, so the vertex pass itself finds it
    fresh = Instance(F.dim, F.hyperplanes)
    with pytest.raises(DegenerateInstanceError) as got:
        max_depth_point(fresh)
    with pytest.raises(DegenerateInstanceError) as want:
        ensure_general_position(Instance(F.dim, F.hyperplanes))
    assert str(got.value) == str(want.value)
    assert fresh._gp == check_general_position_reference(F)


@pytest.mark.parametrize(
    "F", [case[1] for case in DEGENERATE], ids=[case[0] for case in DEGENERATE]
)
def test_center_scans_a_degenerate_instance_once(F, monkeypatch):
    passes = []
    real = geometry.vertex_blocks
    monkeypatch.setattr(geometry, "vertex_blocks", lambda *rows: passes.append(1) or real(*rows))
    fresh = Instance(F.dim, F.hyperplanes)
    with pytest.raises(DegenerateInstanceError) as got:
        max_depth_point(fresh)
    assert len(passes) == 1
    with pytest.raises(DegenerateInstanceError) as want:
        ensure_general_position(Instance(F.dim, F.hyperplanes))
    assert str(got.value) == str(want.value)
    assert fresh._gp == check_general_position_reference(F)


def test_center_caches_the_general_position_verdict():
    for name, F in CASES[::2]:
        fresh = Instance(F.dim, F.hyperplanes)
        assert fresh._gp is None, name
        assert max_depth_point(fresh) == max_depth_point(F)
        assert fresh._gp == GeneralPositionResult(True) == check_general_position_reference(F)


def _degenerate_d4():
    # d=4: planes 0 and 5 parallel, planes 1, 2, 3, 4 and 6 through one point
    hs = _random_planes(8, 4, seed=8)
    hs[5] = Hyperplane(tuple(2 * c for c in hs[0].normal), hs[0].offset + 3)
    hs[6] = _through(_meet(hs[1:5]), (1, -2, 3, 5))
    return Instance(4, hs)


SIMPLEX_CASES = (
    [(name, F) for name, F in CASES if 2 <= F.dim <= 4]
    + [(name, F) for name, F, *_ in DEGENERATE]
    + [("degenerate-d4", _degenerate_d4())]
)


@pytest.mark.parametrize("F", [F for _, F in SIMPLEX_CASES], ids=[name for name, _ in SIMPLEX_CASES])
def test_form_simplex_matches_vertex_loop(F):
    raised = 0
    for idx in itertools.combinations(range(F.n), F.dim + 1):
        try:
            ref = form_simplex_reference(F, idx)
        except DegenerateSubfamilyError as exc:
            with pytest.raises(DegenerateSubfamilyError) as got:
                form_simplex(F, idx)
            assert (got.value.indices, str(got.value)) == (exc.indices, str(exc)), idx
            raised += 1
        else:
            assert form_simplex(F, idx) == ref, idx
    # a (d+1)-subset is degenerate exactly where general position fails
    assert (raised > 0) == (not check_general_position(F).ok)


def test_form_simplex_degenerate_kinds():
    F = _degenerate_d4()
    with pytest.raises(DegenerateSubfamilyError, match="subfamily") as parallel:
        form_simplex(F, (0, 1, 2, 3, 5))
    assert parallel.value.indices == (0, 2, 3, 5)  # the vertex opposite plane 1
    with pytest.raises(DegenerateSubfamilyError, match="flat simplex") as flat:
        form_simplex(F, (1, 2, 3, 4, 6))
    assert flat.value.indices == (1, 2, 3, 4, 6)


SUBFAMILY_CASES = (
    CASES + [(name, F) for name, F, *_ in DEGENERATE] + [("degenerate-d4", _degenerate_d4())]
)


@pytest.mark.parametrize("F", [F for _, F in SUBFAMILY_CASES],
                         ids=[name for name, _ in SUBFAMILY_CASES])
def test_intersect_subfamily_matches_cramer_solve(F):
    # every d-subset's vertex as ``vertex_blocks`` computes it, against one Cramer solve each
    normals, offsets = int_rows(F)
    singular = 0
    for subsets, nums, den, R in vertex_blocks(F):
        for sub, nu, de, r in zip(subsets.tolist(), nums.tolist(), den.tolist(), R.tolist()):
            sol = solve_int_square([normals[i] for i in sub], [offsets[i] for i in sub])
            if sol is None:
                assert de == 0, sub
                singular += 1
            else:
                assert (tuple(nu), de) == sol, sub
            assert r == [b * de - sum(a * v for a, v in zip(normal, nu))
                         for normal, b in zip(normals, offsets)], sub
    # a d-subset is singular exactly where general position fails as "degenerate"
    assert (singular > 0) == (check_general_position(F).reason == "degenerate")


@pytest.mark.parametrize("F", [F for _, F in SUBFAMILY_CASES],
                         ids=[name for name, _ in SUBFAMILY_CASES])
def test_search_table_matches_form_simplex(F):
    # the searches' table, read past their general-position check so that
    # the degenerate families reach the simplex construction too
    simplex = tverberg._table_simplices(F, vertex_blocks(F))
    for idx in itertools.combinations(range(F.n), F.dim + 1):
        try:
            spec = form_simplex(F, idx)
        except DegenerateSubfamilyError as exc:
            with pytest.raises(DegenerateSubfamilyError) as got:
                simplex(idx)
            assert (got.value.indices, str(got.value)) == (exc.indices, str(exc)), idx
        else:
            vertices, rows = simplex(idx)
            assert all(len(v) == F.dim + 1 for v in vertices), idx
            assert tuple(tuple(Fraction(c, v[-1]) for c in v[:-1]) for v in vertices) \
                == spec.vertices, idx
            assert rows == margin_rows(spec.facets), idx


def test_search_table_families_take_both_dtypes():
    dtypes = {_vertex_dtype(F) for _, F in SUBFAMILY_CASES}
    assert dtypes == {np.dtype(np.int64), np.dtype(object)}


def _margin_lps(F):
    """Facets of 1, 2 (and in d <= 3, 3) random nondegenerate simplices of F."""
    d = F.dim
    rng = np.random.default_rng(F.n * 10 + d)
    simplices = []
    while len(simplices) < (3 if d <= 3 else 2):
        try:
            simplices.append(form_simplex(F, rng.choice(F.n, size=d + 1, replace=False).tolist()))
        except DegenerateSubfamilyError:
            continue
    return [[f for s in simplices[:k] for f in s.facets] for k in range(1, len(simplices) + 1)]


@pytest.mark.parametrize("F", [F for _, F in SUBFAMILY_CASES],
                         ids=[name for name, _ in SUBFAMILY_CASES])
def test_max_slack_matches_vertex_loop(F):
    for facets in _margin_lps(F):
        x, e = _max_slack(margin_rows(facets))
        c, A, b = margin_lp(facets)
        assert simplex_reference(c, A, b).value == e
        # the least optimal vertex, whatever the enumeration order
        assert vertex_reference(c, A, b) == (e, x + (e,))


def test_max_slack_families_take_both_dtypes():
    dtypes = {
        exact_dtype_of(margin_rows(facets))
        for _, F in SUBFAMILY_CASES for facets in _margin_lps(F)
    }
    assert dtypes == {np.dtype(np.int64), np.dtype(object)}


@pytest.mark.parametrize("size", [1, 7])
def test_max_slack_slices_keep_the_answer(size, monkeypatch):
    # every fourth family keeps each dimension, dtype and simplex count; at
    # most 500 bases per LP keeps one base per block fast
    lps = [margin_rows(facets) for _, F in SUBFAMILY_CASES[::4] for facets in _margin_lps(F)
           if math.comb(len(facets), F.dim + 1) <= 500]
    whole = [_max_slack(rows) for rows in lps]
    calls = []
    real = tverberg.cofactor_blocks

    def counting(M):
        for subsets, cof in real(M):
            calls.append(len(subsets))
            yield subsets, cof

    monkeypatch.setattr(tverberg, "cofactor_blocks", counting)
    sliced = []
    for rows in lps:
        # a budget of size bases' products with every row
        object_rows = exact_dtype_of(rows) == object
        entry = geometry._OBJECT_ENTRY if object_rows else 1
        monkeypatch.setattr(geometry, "_BUDGET", size * len(rows) * entry)
        sliced.append(_max_slack(rows))
    assert sliced == whole
    assert max(calls) == size


def _d1_families():
    # points on the line; in the last two, points 1 and 4 are the same point
    for model in ("random-rational", "perturbed-grid"):
        yield f"{model}-d1-n9", gen_instance(model, 9, 1, seed=0)
    hs = _random_planes(6, 1, seed=9)
    hs[4] = Hyperplane(tuple(-3 * c for c in hs[1].normal), -3 * hs[1].offset)
    yield "d1-concurrent-14", Instance(1, hs)
    yield "d1-concurrent-14-object", Instance(1, [
        Hyperplane(h.normal, h.offset * 10**20 + 1) if i in (0, 5) else h for i, h in enumerate(hs)
    ])


BOUNDARY_CASES = list(_d1_families()) + SUBFAMILY_CASES


def _cofactor_table(rows, r):
    """``stacked_cofactors`` of every r-subset of ``rows``, one subset per stack entry."""
    subsets = np.array(list(itertools.combinations(range(len(rows)), r)), dtype=np.intp)
    subsets = subsets.reshape(math.comb(len(rows), r), r)
    return subsets, stacked_cofactors(rows[subsets])


@pytest.mark.parametrize("size", [1, 7])
@pytest.mark.parametrize("F", [F for _, F in BOUNDARY_CASES],
                         ids=[name for name, _ in BOUNDARY_CASES])
def test_block_boundaries_keep_the_tables(F, size, monkeypatch):
    # vertex blocks of 1 and of 7 subsets: the children of most prefixes
    # cross a block boundary
    d = F.dim
    A, max_abs = F.row_array()
    rows = A.astype(geometry._exact_dtype(max_abs, d + 1))
    rows[:, d] *= -1
    subsets, cof = _cofactor_table(rows, d)
    vertices = cof * np.where(cof[:, d] < 0, -1, 1)[:, np.newaxis]
    N, max_abs = F.normal_ints()
    A = N.astype(geometry._exact_dtype(max_abs, d))
    dirs = _cofactor_table(A, d - 1)[1]
    dirs = dirs[(dirs != 0).any(axis=1)]
    entry = geometry._OBJECT_ENTRY if rows.dtype == object else 1
    monkeypatch.setattr(geometry, "_BUDGET", size * F.n * entry)

    blocks = list(vertex_blocks(F))
    assert [len(b[0]) for b in blocks[:-1]] == [size] * (len(blocks) - 1)
    assert np.concatenate([b[0] for b in blocks]).tolist() == subsets.tolist()
    assert np.concatenate([b[1] for b in blocks]).tolist() == vertices[:, :d].tolist()
    assert np.concatenate([b[2] for b in blocks]).tolist() == vertices[:, d].tolist()
    R = np.concatenate([b[3] for b in blocks])
    assert R.tolist() == (vertices @ -rows.T).tolist()
    # a float64 product where the residual bound (d+1)! * M^(d+1) proves it exact
    exact_float = geometry._stage_bound(F.row_array()[1], d + 1) < geometry._FLOAT_SAFE
    assert R.dtype == (np.float64 if exact_float else vertices.dtype)

    edges = list(depth._edge_blocks(*F.normal_ints()))
    assert np.concatenate([e[1] for e in edges]).tolist() == dirs.tolist()
    assert np.concatenate([e[2] for e in edges]).tolist() == (dirs @ A.T).tolist()

    fresh = Instance(d, F.hyperplanes)
    assert check_general_position(fresh) == check_general_position_reference(F)
    if fresh._gp.ok:
        assert max_depth_point(Instance(d, F.hyperplanes)) == max_depth_point_unpruned(F)
    else:
        with pytest.raises(DegenerateInstanceError) as got:
            max_depth_point(Instance(d, F.hyperplanes))
        assert str(got.value) == f"instance is not in general position: " \
            f"{fresh._gp.reason} subset {fresh._gp.violation}"


def test_boundary_families_take_both_dtypes_in_every_dimension():
    dtypes = {(F.dim, _vertex_dtype(F)) for _, F in BOUNDARY_CASES}
    assert dtypes == {(d, np.dtype(t)) for d in range(1, 6) for t in (np.int64, object)}


@pytest.mark.parametrize("d,n", [(3, 30), (4, 20)])
@pytest.mark.parametrize("seed", range(2))
def test_benchmark_shapes_match_references(d, n, seed):
    # the sizes of the largest benchmark instances, several vertex blocks each
    F = gen_instance("random-rational", n, d, seed=seed)
    assert len(list(vertex_blocks(F))) > 1
    assert max_depth_point(F) == max_depth_point_unpruned(F)
    rng = np.random.default_rng([d, n, seed])
    for _ in range(8):
        den = rng.integers(1, 17, size=d)
        num = rng.integers(-2 * den, 2 * den + 1)
        x = tuple(Fraction(int(a), int(b)) for a, b in zip(num, den))
        assert dual_depth(F, x) == dual_depth_reference(F, x)


@pytest.mark.parametrize("n,bound", [(400, 10**3), (60, 10**7)], ids=["int64", "object"])
def test_blocks_stay_within_the_budget(n, bound):
    rng = np.random.default_rng(n)
    normals = [tuple(int(c) for c in rng.integers(1, bound, 2) * rng.choice([-1, 1], 2))
               for _ in range(n)]
    offsets = [int(c) for c in rng.integers(-bound, bound, n)]
    F = Instance.from_rows(2, int_array([c for a, b in zip(normals, offsets) for c in (*a, b)], 3),
                           [1] * n)
    budget = geometry._BUDGET // (1 if bound < 10**5 else geometry._OBJECT_ENTRY)
    count = 0
    for subsets, _, _, R in vertex_blocks(F):
        assert R.shape == (len(subsets), n) and R.size <= budget
        # 3! * 10^9 is below 2^53, so R is a float64 product there
        assert R.dtype == (np.float64 if bound < 10**5 else object)
        count += len(subsets)
    assert count == math.comb(n, 2)
    for _, dirs, D in depth._edge_blocks(*_normal_array(F)):
        assert D.size <= geometry._BUDGET


# ---------------------------------------------------------------------------
# The float64 rung: products whose bound width! * M^width is below 2^53
# ---------------------------------------------------------------------------

def _largest_below(width):
    """The largest M with width! * M^width below 2^53."""
    M = int((2**53 / math.factorial(width)) ** (1 / width)) + 2
    while geometry._stage_bound(M, width) >= geometry._FLOAT_SAFE:
        M -= 1
    return M


def _wide_family(n, d, M, seed):
    """n integer hyperplanes in general position, entries in [-M, M], one of them M."""
    rng = np.random.default_rng([n, d, M, seed])
    while True:
        rows = [[int(v) for v in rng.integers(-M, M + 1, d + 1)] for _ in range(n)]
        rows[0][0] = M
        if all(any(r[:d]) for r in rows):
            F = Instance.from_rows(d, int_array([c for r in rows for c in r], d + 1), [1] * n)
            if check_general_position(F).ok:
                return F


# (d, width of the rung's product, M): each rung's bound with M just below
# it and M just past it, and d=2 at M = 10^5, where R reaches 6 * 10^15
RUNG_EDGES = [(d, w, M + k) for d in (2, 3, 4) for w in (d, d + 1)
              for M in [_largest_below(w)] for k in (0, 1)] + [(2, 3, 10**5)]
N_AT = {2: 9, 3: 8, 4: 7}


def _tables(F):
    """Every vertex table entry and edge direction product of F, as Python numbers."""
    vertices = [(s.tolist(), nums.tolist(), den.tolist(), R.tolist())
                for s, nums, den, R in vertex_blocks(F)]
    A, max_abs = F.row_array()
    edges = [(dirs.tolist(), D.tolist())
             for _, dirs, D in depth._edge_blocks(A[:, :F.dim], max_abs)]
    return vertices, edges


def _answers(F, points):
    F = Instance.from_rows(F.dim, F.row_array(), F.dens())  # builds its own edge table
    return max_depth_point(F), [dual_depth(F, x) for x in points]


@pytest.mark.parametrize("d,width,M", RUNG_EDGES,
                         ids=[f"d{d}-width{w}-M{M}" for d, w, M in RUNG_EDGES])
def test_rung_edges_match_int64_object_and_references(d, width, M, monkeypatch):
    F = _wide_family(N_AT[d], d, M, seed=0)
    assert F.row_array()[1] == M
    below = geometry._stage_bound(M, width) < geometry._FLOAT_SAFE
    # the product that this family's M puts at the edge runs in float64 below it only
    if width == d:
        dtypes = {D.dtype for *_, D in depth._edge_blocks(F.row_array()[0][:, :d], M)}
    else:
        dtypes = {R.dtype for *_, R in vertex_blocks(F)}
    assert (dtypes == {np.dtype(np.float64)}) == below
    rng = np.random.default_rng(M)
    points = [_meet(F.hyperplanes[:d])] + [
        tuple(Fraction(int(v), int(q)) for v, q in zip(rng.integers(-M, M, d), rng.integers(1, 9, d)))
        for _ in range(3)
    ]
    tables, answers = _tables(F), _answers(F, points)
    assert answers == (max_depth_point_reference(F), [dual_depth_reference(F, x) for x in points])
    # no float64 product, then no int64 either: the same tables and answers
    monkeypatch.setattr(geometry, "_FLOAT_SAFE", 0)
    assert (_tables(F), _answers(F, points)) == (tables, answers)
    monkeypatch.setattr(geometry, "_NUMPY_SAFE", 0)
    assert {nums.dtype for _, nums, _, _ in vertex_blocks(F)} == {np.dtype(object)}
    assert (_tables(F), _answers(F, points)) == (tables, answers)


def test_edge_products_are_bounded_by_the_normals_alone(monkeypatch):
    # offsets past int64 with normals of at most 50: the rows are Python
    # ints, but the edge products of both searches stay float64
    rng = np.random.default_rng(7)
    normals = [tuple(int(v) for v in rng.integers(-50, 51, 3)) for _ in range(8)]
    offsets = [int(v) * 10**15 + 1 for v in rng.integers(-10**6, 10**6, 8)]
    F = Instance.from_rows(3, int_array([c for a, b in zip(normals, offsets) for c in (*a, b)], 4),
                           [1] * 8)
    assert F.row_array()[0].dtype == object and F.normal_ints()[1] <= 50
    dtypes = []
    real = depth._edge_blocks
    monkeypatch.setattr(depth, "_edge_blocks",
                        lambda *a: (b for b in real(*a) if not dtypes.append(b[-1].dtype)))
    points = [_meet(F.hyperplanes[:3]), (Fraction(10**20, 7), Fraction(-3), Fraction(1, 2))]
    assert _answers(F, points) == (max_depth_point_reference(F),
                                   [dual_depth_reference(F, x) for x in points])
    assert set(dtypes) == {np.dtype(np.float64)}


@pytest.mark.parametrize("past", [False, True], ids=["int64", "object"])
def test_side_product_at_the_int64_edge(past):
    # x = (1/L, -1/L): the side product's bound is M * (2 + L)
    F = _wide_family(9, 2, 114501, seed=1)
    M = F.row_array()[1]
    L = geometry._NUMPY_SAFE // M - (-1 if past else 3)
    assert (M * (2 + L) >= geometry._NUMPY_SAFE) == past
    x = (Fraction(1, L), Fraction(-1, L))
    signs = tuple((v > 0) - (v < 0) for v in
                  (sum(a * c for a, c in zip(h.normal, x)) - h.offset for h in F.hyperplanes))
    assert depth.signature_of(F, x) == signs
    assert dual_depth(F, x) == dual_depth_reference(F, x)


def test_side_of_a_huge_point_against_no_hyperplanes():
    assert depth.signature_of(Instance(2, []), (10**30, Fraction(1, 10**30))) == ()
    assert dual_depth(Instance(2, []), (10**30, 1)) == (0, (1, 0))


# ---------------------------------------------------------------------------
# The edge table kept on the instance, and the blocks streamed past its cap
# ---------------------------------------------------------------------------

# the bounds that send every product to the int64 rung, then to Python ints
RUNGS = [{}, {"_FLOAT_SAFE": 0}, {"_FLOAT_SAFE": 0, "_NUMPY_SAFE": 0}]


def _on_hyperplanes(F):
    """A point on the first k hyperplanes of F, for k = 1, ..., min(d, n), where they meet."""
    rows, d = F.row_array()[0].tolist(), F.dim
    points = [solve_underdetermined([r[:d] for r in rows[:k]], [r[d] for r in rows[:k]])
              for k in range(1, min(d, F.n) + 1)]
    return [p for p in points if p is not None]


@pytest.mark.parametrize("F", [F for _, F in CASES], ids=[name for name, _ in CASES])
def test_edge_table_matches_references_on_each_rung(F, monkeypatch):
    points = _on_hyperplanes(F) + [tuple(Fraction(k - 1, 3) for k in range(F.dim))]
    want = max_depth_point_reference(F), [dual_depth_reference(F, x) for x in points]
    for bounds in RUNGS:
        for name, value in bounds.items():
            monkeypatch.setattr(geometry, name, value)
        assert max_depth_point_unpruned(F) == want[0]
        for cap in (depth._TABLE_CAP, 0):  # kept on the instance, then streamed
            monkeypatch.setattr(depth, "_TABLE_CAP", cap)
            assert _answers(F, points) == want


def _low_rank_families():
    """Normals spanning less than R^d, d = 1, and fewer hyperplanes than d."""
    yield "parallel-d2", Instance(2, [Hyperplane((1, 2), k) for k in (-3, 0, 1, 4, 9)])
    yield "plane-d3", Instance(3, [Hyperplane((a, b, 0), c) for a, b, c in
                                   [(1, 2, 1), (-3, 1, 2), (2, -5, 0), (1, 1, -4), (4, 1, 3)]])
    yield "line-d3", Instance(3, [Hyperplane((k, 2 * k, 3 * k), k + 1) for k in (1, -1, 3, 2)])
    yield "object-plane-d4", Instance(4, [
        Hyperplane((a * 10**20, b, c, 0), e) for a, b, c, e in
        [(1, 2, 1, 5), (-3, 1, 2, 0), (2, -5, 0, 1), (1, 1, -4, 2), (4, 1, 3, -7)]])
    yield from _d1_families()
    for n, d in ((1, 2), (1, 3), (2, 3), (2, 4), (3, 4)):
        yield f"n{n}-d{d}", Instance(d, _random_planes(n, d, seed=n + d))


LOW_RANK = list(_low_rank_families())


@pytest.mark.parametrize("F", [F for _, F in LOW_RANK], ids=[name for name, _ in LOW_RANK])
def test_edge_table_on_low_rank_and_small_families(F, monkeypatch):
    rng = np.random.default_rng(F.n * 10 + F.dim)
    points = _on_hyperplanes(F) + [
        tuple(Fraction(int(v), int(q)) for v, q in zip(rng.integers(-20, 21, F.dim),
                                                       rng.integers(1, 9, F.dim)))
        for _ in range(3)
    ]
    want = [dual_depth_reference(F, x) for x in points]
    for cap in (depth._TABLE_CAP, 0):
        monkeypatch.setattr(depth, "_TABLE_CAP", cap)
        fresh = Instance.from_rows(F.dim, F.row_array(), F.dens())
        assert [dual_depth(fresh, x) for x in points] == want


def test_edge_table_is_built_once_and_kept_only_under_the_cap(monkeypatch):
    F = gen_instance("random-rational", 12, 3, seed=1)
    builds = []
    real = depth._edge_blocks
    monkeypatch.setattr(depth, "_edge_blocks", lambda *a: builds.append(a) or real(*a))
    points = [(Fraction(k, 3), Fraction(-1), Fraction(1, k + 1)) for k in range(8)]
    answers = _answers(F, points)
    fresh = Instance.from_rows(F.dim, F.row_array(), F.dens())
    assert (max_depth_point(fresh), [dual_depth(fresh, x) for x in points]) == answers
    assert len(builds) == 2  # one per instance
    (subsets, dirs, T), = fresh._edges
    assert subsets.shape == (66, 2) and dirs.shape == (66, 3) and T.shape == (66, 24)
    # 66 directions times 12 normals past the cap: each call streams the blocks
    monkeypatch.setattr(depth, "_TABLE_CAP", 66 * 12 - 1)
    del builds[:]
    assert _answers(F, points) == answers and len(builds) == 9


def test_edge_table_is_kept_from_the_second_query(monkeypatch):
    F = gen_instance("random-rational", 12, 3, seed=1)
    builds = []
    real = depth._edge_blocks
    monkeypatch.setattr(depth, "_edge_blocks", lambda *a: builds.append(a) or real(*a))
    points = [(Fraction(k, 3), Fraction(-1), Fraction(1, k + 1)) for k in range(8)]
    want = [dual_depth_reference(F, x) for x in points]
    assert dual_depth(F, points[0]) == want[0] and F._edges == () and len(builds) == 1
    assert [dual_depth(F, x) for x in points] == want and len(builds) == 2
    assert max_depth_point(F) == max_depth_point_reference(F) and len(builds) == 2


def test_edge_table_of_many_blocks(monkeypatch):
    F = gen_instance("random-rational", 20, 3, seed=2)
    monkeypatch.setattr(geometry, "_BUDGET", 20 * 16)  # 190 subsets in 12 blocks
    outside = (Fraction(10**6), Fraction(10**6 + 1), Fraction(-(10**6)))
    inside = max_depth_point_reference(F).point
    want = {x: dual_depth_reference(F, x) for x in (outside, inside)}
    assert want[outside][0] == 0 < want[inside][0]
    for first, second in ((outside, inside), (inside, outside), (outside, outside)):
        fresh = Instance.from_rows(F.dim, F.row_array(), F.dens())
        # the second query keeps every block, also one at depth 0
        for x in (first, second, outside, inside):
            assert dual_depth(fresh, x) == want[x]
        assert len(fresh._edges) == 12
        assert max_depth_point(fresh) == max_depth_point_reference(F)
