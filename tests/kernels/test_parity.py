"""Kernel parity: every kernel must agree with its scalar formula in
:mod:`tests.kernels.reference` bit-for-bit.

Counted I/O depends on heap order, heap order depends on float keys, so
"close enough" is not enough — the block kernels must reproduce Python's
left-fold float arithmetic exactly.  Coordinates are drawn both from
arbitrary finite floats and from a coarse grid (``i / 8``) that
manufactures the exact ties where ordering bugs would hide.
"""

import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.baselines import index_merge, skyline_algs
from repro.kernels import dominate, mindist, sigops
from repro.kernels.dominate import (
    _BLOCK_SCAN_BUDGET,
    _GENERIC_PROBE,
    _ONE_PASS_PAIRS,
    _PROBE_CHARGE,
    _PROBE_CHUNK,
    _SCALAR_PROBE,
    _SEED_CHUNK,
    DominationBuffer,
)
from repro.rtree.geometry import dominates
from tests.kernels import reference

pytestmark = pytest.mark.kernels

# Tie-prone grid: duplicates and exact per-dimension equality.
grid = st.integers(min_value=0, max_value=8).map(lambda i: i / 8)
coords = st.one_of(
    st.floats(
        min_value=-1e6, max_value=1e6, allow_nan=False, width=64
    ),
    grid,
)


def point_blocks(min_dims=1, max_dims=4, max_rows=12):
    return st.integers(min_value=min_dims, max_value=max_dims).flatmap(
        lambda d: st.lists(
            st.tuples(*([coords] * d)), min_size=0, max_size=max_rows
        )
    )


def rect_blocks(max_dims=4, max_rows=10):
    def to_rects(rows):
        lows = [
            tuple(min(a, b) for a, b in zip(lo, hi)) for lo, hi in rows
        ]
        highs = [
            tuple(max(a, b) for a, b in zip(lo, hi)) for lo, hi in rows
        ]
        return lows, highs

    return st.integers(min_value=1, max_value=max_dims).flatmap(
        lambda d: st.tuples(
            st.lists(
                st.tuples(
                    st.tuples(*([coords] * d)),
                    st.tuples(*([coords] * d)),
                ),
                min_size=0,
                max_size=max_rows,
            ).map(to_rects),
            st.tuples(*([coords] * d)),
        )
    )


#: Every function and class the oracle defines.
ORACLE = [
    name
    for name, obj in vars(reference).items()
    if getattr(obj, "__module__", None) == reference.__name__
]
#: The product's kernels under the oracle's names.
PRODUCT = SimpleNamespace(
    **{
        name: getattr(module, name)
        for module in (mindist, dominate, sigops, skyline_algs, index_merge)
        for name in ORACLE
        if hasattr(module, name)
    }
)


def against_oracle(fn):
    """``fn`` run on the oracle and on the product."""
    return fn(reference), fn(PRODUCT)


def test_every_oracle_function_has_its_product_kernel():
    assert sorted(vars(PRODUCT)) == sorted(ORACLE)


# --------------------------------------------------------------------------- #
# mindist kernels
# --------------------------------------------------------------------------- #


@given(point_blocks())
def test_sum_block_parity(rows):
    scalar, vector = against_oracle(lambda m: m.sum_block(rows))
    assert scalar == vector
    assert all(isinstance(v, float) for v in vector)


@given(point_blocks())
def test_linear_score_parity(rows):
    dims = len(rows[0]) if rows else 2
    weights = tuple((-1.0) ** d * (d + 1) / 4 for d in range(dims))
    scalar, vector = against_oracle(
        lambda m: m.linear_score_block(weights, rows)
    )
    assert scalar == vector


@given(rect_blocks())
def test_linear_lower_bound_parity(block):
    (lows, highs), point = block
    weights = tuple(
        (-1.0) ** d * (d + 1) / 4 for d in range(len(point))
    )
    scalar, vector = against_oracle(
        lambda m: m.linear_lower_bound_block(weights, lows, highs)
    )
    assert scalar == vector


# pow(Δ, 2) != Δ·Δ in the last ulp for these inputs (found by hypothesis
# during PR 11); every arm squares by multiplying, so they must agree.
@given(rect_blocks())
@example(
    block=(
        ([(-778950.7699998809,)], [(-778950.7699998809,)]),
        (-999669.0,),
    )
)
def test_wsd_parity(block):
    (lows, highs), target = block
    weights = tuple((d + 1) / 8 for d in range(len(target)))
    scalar, vector = against_oracle(
        lambda m: m.wsd_score_block(weights, target, lows)
    )
    assert scalar == vector
    scalar, vector = against_oracle(
        lambda m: m.wsd_lower_bound_block(
            weights, target, lows, highs
        )
    )
    assert scalar == vector


@given(rect_blocks())
@example(
    block=(
        ([(0.0, 0.375)], [(0.0, 1.0)]),
        (0.0, 2.1309737344068661e-13),
    )
)
def test_separable_parity(block):
    (lows, highs), target = block
    terms = [
        (d, "linear" if d % 2 == 0 else "squared", (d + 1) / 4, t)
        for d, t in enumerate(target)
    ]
    scalar, vector = against_oracle(
        lambda m: m.separable_score_block(terms, lows)
    )
    assert scalar == vector
    scalar, vector = against_oracle(
        lambda m: m.separable_lower_bound_block(terms, lows, highs)
    )
    assert scalar == vector


@given(rect_blocks())
def test_mindist_and_transform_parity(block):
    (lows, highs), point = block
    scalar, vector = against_oracle(
        lambda m: m.mindist_block(lows, highs, point)
    )
    assert scalar == vector
    scalar, vector = against_oracle(
        lambda m: m.transform_points_block(lows, point)
    )
    assert scalar == vector
    scalar, vector = against_oracle(
        lambda m: m.transform_rect_lowers_block(lows, highs, point)
    )
    assert scalar == vector


@given(point_blocks(min_dims=2), st.data())
def test_rows_round_trip_and_feed_every_kernel(rows, data):
    """``as_rows`` is the representation block callers hand from kernel to
    kernel: a matrix in the product, the tuples themselves in the oracle.
    Either must read back as the same tuples, project and gather like
    them, and feed the other kernels to the same bits."""
    dims = len(rows[0]) if rows else 2
    subspace = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=dims - 1),
            min_size=1,
            max_size=dims,
            unique=True,
        )
    )
    picks = data.draw(
        st.lists(st.integers(min_value=0, max_value=max(len(rows) - 1, 0)))
        if rows
        else st.just([])
    )
    query_point = tuple(0.5 for _ in range(dims))

    def run(m):
        block = m.as_rows(rows)
        projected = m.project_rows(block, subspace)
        image = m.transform_points_rows(block, query_point)
        buffer = m.DominationBuffer(dims, points=rows[: len(rows) // 2])
        return (
            m.row_tuples(block),
            m.row_tuples(block, picks),
            m.row_tuples(projected),
            m.sum_block(projected),
            m.row_tuples(image),
            m.sum_block(image),
            buffer.dominates_block(block),
        )

    scalar, vector = against_oracle(run)
    assert scalar == vector
    assert scalar[0] == [tuple(map(float, row)) for row in rows]
    assert scalar[1] == [scalar[0][i] for i in picks]
    assert scalar[2] == [tuple(r[d] for d in subspace) for r in scalar[0]]


@given(rect_blocks())
def test_rect_lowers_rows_parity(block):
    (lows, highs), point = block

    def run(m):
        image = m.transform_rect_lowers_rows(
            m.as_rows(lows), m.as_rows(highs), point
        )
        return m.row_tuples(image), m.sum_block(image)

    scalar, vector = against_oracle(run)
    assert scalar == vector
    assert scalar[0] == reference.transform_rect_lowers_block(
        lows, highs, point
    )


def test_matrix_input_matches_tuple_input():
    """Columnar callers hand ndarrays; same bits must come out."""
    rows = [(0.125, 0.25, 0.5), (0.75, 0.125, 0.375), (0.5, 0.5, 0.5)]
    matrix = np.asarray(rows, dtype=np.float64)
    weights = (0.4, 0.35, 0.25)
    assert mindist.linear_score_block(
        weights, matrix
    ) == reference.linear_score_block(weights, rows)
    assert mindist.sum_block(matrix) == reference.sum_block(rows)


# --------------------------------------------------------------------------- #
# domination kernels
# --------------------------------------------------------------------------- #


@settings(max_examples=60)
@given(point_blocks(min_dims=2, max_dims=3, max_rows=20), st.data())
def test_domination_buffer_parity(rows, data):
    if not rows:
        return
    dims = len(rows[0])
    split = data.draw(st.integers(min_value=0, max_value=len(rows)))
    buffered, probes = rows[:split], rows[split:]

    def run(m):
        buffer = m.DominationBuffer(dims, points=buffered)
        return (
            [buffer.dominates_point(p) for p in probes],
            buffer.dominates_block(probes),
            len(buffer),
        )

    scalar, vector = against_oracle(run)
    assert scalar == vector


@settings(max_examples=60)
@given(point_blocks(min_dims=2, max_dims=3, max_rows=20), st.data())
def test_dominated_mask_parity(rows, data):
    # Repeated tids exercise the same-tid exclusion.
    tids = [
        data.draw(st.integers(min_value=0, max_value=5)) for _ in rows
    ]
    pairs = list(zip(tids, rows))
    scalar, vector = against_oracle(lambda m: m.dominated_mask(pairs))
    assert scalar == vector


@settings(max_examples=60)
@given(point_blocks(min_dims=2, max_dims=3, max_rows=20))
def test_prefix_dominated_mask_parity(rows):
    scalar, vector = against_oracle(
        lambda m: m.prefix_dominated_mask(rows)
    )
    assert scalar == vector


def test_buffer_escalation_covers_long_buffers():
    """Force several escalating chunks: a staircase none of whose steps
    dominate the probe except the very last buffered point."""
    staircase = [(float(i), float(2000 - i)) for i in range(2000)]
    probe = (1999.5, 1.5)  # only (1999, 1) dominates it
    for m in (reference, PRODUCT):
        buffer = m.DominationBuffer(2, points=staircase)
        assert buffer.dominates_point(probe) is True
        assert buffer.dominates_block([probe, (-1.0, -1.0)]) == [
            True,
            False,
        ]


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.tuples(grid, grid, grid), min_size=1, max_size=20),
    st.tuples(grid, grid, grid),
    st.data(),
)
def test_dominates_point_since_matches_the_scalar_suffix_scan(
    buffered, probe, data
):
    """``dominates_point(p, since)`` looks at ``points[since:]`` only, in
    the oracle and the product (``since == len`` and ``since > len`` see
    nothing); the seeded test below crosses the loop / matrix switch-over."""
    since = data.draw(st.integers(min_value=0, max_value=len(buffered) + 2))
    expected = any(dominates(s, probe) for s in buffered[since:])
    for m in (reference, PRODUCT):
        buffer = m.DominationBuffer(3, points=buffered)
        assert buffer.dominates_point(probe, since) is expected
        assert buffer.dominates_point(buffered[0], len(buffered)) is False


def grid_points(rng, dims, n):
    """``n`` seeded points on the tie-prone ``i / 8`` grid."""
    return [
        tuple(rng.randrange(9) / 8 for _ in range(dims)) for _ in range(n)
    ]


@pytest.mark.parametrize("dims", [1, 2, 3, 4, 5])
@pytest.mark.parametrize(
    "n_buffered",
    [
        1,
        _GENERIC_PROBE,
        _GENERIC_PROBE + 1,
        _SCALAR_PROBE,
        _SCALAR_PROBE + 1,
        _PROBE_CHUNK + _SCALAR_PROBE + 9,
    ],
)
def test_dominates_point_since_at_every_offset(n_buffered, dims):
    """Seeded: windows ``points[since:]`` on both sides of every regime of
    the point probe — the loop written out for widths 2–4 (≤
    ``_SCALAR_PROBE`` rows), the generic loop of widths 1 and 5 (≤
    ``_GENERIC_PROBE``), the per-dimension chunks (one and two of them) —
    with exact ties: an equal point never dominates."""
    rng = random.Random(10 * n_buffered + dims)
    points = grid_points(rng, dims, n_buffered)
    probes = [
        points[0],
        points[-1],
        (0.0,) * dims,
        (1.0,) * dims,
        *grid_points(rng, dims, 3),
    ]
    offsets = {0, 1, n_buffered // 2, n_buffered, n_buffered + 3} | {
        max(0, n_buffered - window)
        for bound in (1, _GENERIC_PROBE, _SCALAR_PROBE, _PROBE_CHUNK)
        for window in (bound, bound + 1)
    }
    oracle = reference.DominationBuffer(dims, points=points)
    buffer = DominationBuffer(dims, points=points)
    for since in offsets:
        for probe in probes:
            assert buffer.dominates_point(
                probe, since
            ) is oracle.dominates_point(probe, since), (since, probe)


@pytest.mark.parametrize("dims", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("past_bound", [False, True])
def test_a_point_probe_up_to_the_bound_makes_no_numpy_call(past_bound, dims):
    """Counted, not timed: a window of up to ``_SCALAR_PROBE`` rows
    (``_GENERIC_PROBE`` for a width without its own loop) is answered from
    the tuples alone — with the matrix taken away it still agrees with the
    oracle on the tie grid at every ``since`` — and one row more reaches
    the matrix."""
    bound = _SCALAR_PROBE if 2 <= dims <= 4 else _GENERIC_PROBE
    rng = random.Random(dims)
    points = grid_points(rng, dims, bound + 4)
    probes = [points[-1], (0.0,) * dims, *grid_points(rng, dims, 6)]
    oracle = reference.DominationBuffer(dims, points=points)
    buffer = DominationBuffer(dims, points=points)
    buffer._arr = None  # any numpy use now raises
    for since in (4, 5, 4 + bound // 2, len(points)):
        for probe in probes:
            assert buffer.dominates_point(
                probe, since
            ) is oracle.dominates_point(probe, since), (since, probe)
    if past_bound:
        with pytest.raises(TypeError):
            buffer.dominates_point((1.0,) * dims, 3)


@pytest.mark.parametrize(
    "probe_with",
    [
        lambda buffer, probe: buffer.dominates_point(probe),
        lambda buffer, probe: buffer.dominates_point(probe, 1),
        lambda buffer, probe: buffer.dominates_block([probe]),
        lambda buffer, probe: buffer.dominates_block(
            np.asarray([probe] * 50), packed=True
        ),
    ],
    ids=["point", "point-since", "block", "block-escalating"],
)
@pytest.mark.parametrize("n_buffered", [0, 1, _SCALAR_PROBE + 1, 200])
@pytest.mark.parametrize("width", [2, 4])
def test_a_probe_of_the_wrong_width_is_refused(probe_with, n_buffered, width):
    """Every probe path checks the probe's width as ``add`` does — the
    point loop, the per-dimension chunks, the one-pass and escalating
    block tests and the empty buffer — instead of answering from a prefix
    of its coordinates or failing in numpy."""
    buffer = DominationBuffer(
        3, points=[(i / 8, i / 8, 1.0) for i in range(n_buffered)]
    )
    with pytest.raises(ValueError, match="buffer expects 3"):
        probe_with(buffer, (0.5,) * width)
    with pytest.raises(ValueError, match="buffer expects 3"):
        buffer.add((0.5,) * width)


@pytest.mark.parametrize("dims", [1, 2, 3, 4])
@pytest.mark.parametrize(
    "n_buffered, n_probes",
    [
        (0, 3),
        (5, 0),
        (1, 1),
        (_SEED_CHUNK, 64),
        (_SEED_CHUNK + 1, 64),
        # On the one-pass bound, and one pair past it from both sides.
        (64, _ONE_PASS_PAIRS // 64),
        (65, _ONE_PASS_PAIRS // 64),
        (64, _ONE_PASS_PAIRS // 64 + 1),
        # Past the bound with a buffer that fits the first chunk.
        (_SEED_CHUNK, _ONE_PASS_PAIRS // _SEED_CHUNK + 1),
        (600, 64),
    ],
)
def test_dominates_block_matches_the_scalar_oracle(n_buffered, n_probes, dims):
    """One pass over a small buffer, escalating chunks over a large one:
    the verdicts — as a list and packed into one integer, bit ``j`` for
    probe ``j`` — are the scalar oracle's."""
    rng = random.Random(1000 * n_buffered + 10 * n_probes + dims)
    # An anti-correlated staircase keeps most probes alive past the first
    # chunk; the grid manufactures exact ties and equal points.
    points = [
        (i / max(1, n_buffered), 1.0 - i / max(1, n_buffered))[:dims]
        + tuple(rng.randrange(9) / 8 for _ in range(dims - 2))
        for i in range(n_buffered)
    ]
    probes = grid_points(rng, dims, n_probes)
    if points and probes:
        probes[-1] = points[-1]
    oracle = reference.DominationBuffer(dims, points=points)
    expected = oracle.dominates_block(probes)
    packed = oracle.dominates_block(probes, packed=True)
    buffer = DominationBuffer(dims, points=points)
    assert buffer.dominates_block(probes) == expected
    assert buffer.dominates_block(probes, packed=True) == packed
    if probes:
        rows = np.asarray(probes)
        assert buffer.dominates_block(rows) == expected
        assert buffer.dominates_block(rows, packed=True) == packed


def tie_grid_block(rng, dims, n_buffered, n_probes):
    """A buffer and a block on the ``i / 8`` grid with ``±0.0`` mixed in,
    the block holding copies of buffered points (equal: not dominated)
    and points a step off them on one coordinate (exact ties elsewhere)."""

    def signed(point):
        return tuple(-0.0 if x == 0.0 and rng.random() < 0.5 else x for x in point)

    points = [signed(p) for p in grid_points(rng, dims, n_buffered)]
    probes = [signed(p) for p in grid_points(rng, dims, n_probes)]
    for j in range(0, n_probes, 3):
        p = list(points[rng.randrange(n_buffered)])
        if j % 2:
            d = rng.randrange(dims)
            p[d] += rng.choice((-1, 1)) / 8
        probes[j] = signed(p)
    return points, probes


@pytest.mark.parametrize("dims", [2, 3, 4])
@pytest.mark.parametrize(
    "n_buffered, n_probes",
    [
        (1, 1),
        (1, 40),
        (7, 12),
        (23, 56),
        (64, 64),
        (6, _BLOCK_SCAN_BUDGET // _PROBE_CHARGE),
        (7, _BLOCK_SCAN_BUDGET // _PROBE_CHARGE + 1),
    ],
)
def test_the_block_loop_matches_the_scalar_oracle_on_the_tie_grid(
    n_buffered, n_probes, dims
):
    """The written-out block loop of widths 2–4 — alone, or with the pass
    that takes over when its budget runs out — gives the oracle's
    verdicts, as a list and packed, from tuples and from a matrix."""
    rng = random.Random(100 * n_buffered + n_probes + dims)
    points, probes = tie_grid_block(rng, dims, n_buffered, n_probes)
    oracle = reference.DominationBuffer(dims, points=points)
    buffer = DominationBuffer(dims, points=points)
    expected = oracle.dominates_block(probes)
    packed = oracle.dominates_block(probes, packed=True)
    assert 0 < packed < (1 << n_probes) - 1 or n_probes < 3
    for rows in (probes, np.asarray(probes)):
        assert buffer.dominates_block(rows) == expected
        assert buffer.dominates_block(rows, packed=True) == packed


@pytest.mark.parametrize("dims", [2, 3, 4])
def test_a_block_within_the_budget_makes_no_numpy_call(dims):
    """Counted, not timed: with the matrix taken away, a BBS-sized block
    the loop decides within its budget — 56 probes against 8 points stay
    within it even if every probe misses the witness — still gets the
    oracle's verdicts, from tuples and from a matrix; a block past the
    budget reaches the matrix."""
    rng = random.Random(dims)
    points, probes = tie_grid_block(rng, dims, 8, 56)
    assert (_PROBE_CHARGE + 8) * 56 <= _BLOCK_SCAN_BUDGET
    oracle = reference.DominationBuffer(dims, points=points)
    buffer = DominationBuffer(dims, points=points)
    buffer._arr = None  # any numpy use now raises
    for rows in (probes, np.asarray(probes)):
        assert buffer.dominates_block(rows) == oracle.dominates_block(rows)
        assert buffer.dominates_block(
            rows, packed=True
        ) == oracle.dominates_block(rows, packed=True)
    undominated = [(-1.0,) * dims] * (_BLOCK_SCAN_BUDGET // 8)
    with pytest.raises(TypeError):
        buffer.dominates_block(undominated)


@pytest.mark.parametrize("dims", [2, 3, 4])
@pytest.mark.parametrize("n_buffered, n_probes", [(16, 56), (23, 56), (64, 64)])
def test_an_undominated_block_hands_numpy_only_the_undecided_probes(
    n_buffered, n_probes, dims, monkeypatch
):
    """A staircase none of whose steps dominates any probe: every probe
    misses the witness and scans the whole buffer, so the loop decides
    probes until the next miss would overdraw its budget — ``charge·m +
    n·(j+1) > budget`` — and one pass tests exactly the probes from there
    on."""
    points = [
        (i / n_buffered, 1.0 - i / n_buffered, *(0.0,) * (dims - 2))
        for i in range(n_buffered)
    ]
    probes = [
        (2.0 - j / n_probes, j / n_probes - 1.0, *(0.5,) * (dims - 2))
        for j in range(n_probes)
    ]
    calls = []
    block_dominates = dominate._block_dominates

    def recording(block, tested, dims, other=None):
        calls.append((len(block), [tuple(row) for row in tested.tolist()]))
        return block_dominates(block, tested, dims, other)

    monkeypatch.setattr(dominate, "_block_dominates", recording)
    buffer = DominationBuffer(dims, points=points)
    assert buffer.dominates_block(probes) == [False] * n_probes
    decided = next(
        j
        for j in range(n_probes + 1)
        if _PROBE_CHARGE * n_probes + n_buffered * (j + 1) > _BLOCK_SCAN_BUDGET
    )
    assert 0 < decided < n_probes
    assert calls == [(n_buffered, probes[decided:])]


@pytest.mark.parametrize("dims", [2, 3])
def test_escalation_tests_only_the_probes_the_oracle_leaves_alive(
    dims, monkeypatch
):
    """Past the one-pass bound, each buffer chunk is tested against the
    probes no earlier chunk dominated — exactly those the oracle finds
    undominated by the buffer prefix before that chunk — so dead probes
    cost nothing after the chunk that killed them."""
    rng = random.Random(dims)
    n = 600
    points = [
        (i / n, 1.0 - i / n, *grid_points(rng, dims - 2, 1)[0])
        for i in range(n)
    ]
    probes = [
        (i / 64 + 0.001, 1.0 - i / 64 + 0.001, *(1.0,) * (dims - 2))
        for i in range(64)
    ]
    assert n * len(probes) > _ONE_PASS_PAIRS
    # A small tensor budget keeps the chunks short enough to see several.
    monkeypatch.setattr(dominate, "_TENSOR_BUDGET", 64)
    calls = []
    block_dominates = dominate._block_dominates

    def recording(block, tested, dims, other=None):
        calls.append((len(block), [tuple(row) for row in tested.tolist()]))
        return block_dominates(block, tested, dims, other)

    monkeypatch.setattr(dominate, "_block_dominates", recording)
    verdicts = DominationBuffer(dims, points=points).dominates_block(probes)
    assert verdicts == reference.DominationBuffer(
        dims, points=points
    ).dominates_block(probes)
    assert len(calls) > 2
    start = 0
    for rows, tested in calls:
        prefix = reference.DominationBuffer(dims, points=points[:start])
        alive = [p for p in probes if not prefix.dominates_point(p)]
        assert tested == alive, start
        start += rows
    assert start == n or not calls[-1][1]


# --------------------------------------------------------------------------- #
# signature algebra and the baselines' batch paths
# --------------------------------------------------------------------------- #


@settings(max_examples=40)
@given(st.data())
def test_sigops_parity_on_both_sides_of_the_word_threshold(data):
    """Few words reduce as integers, many through the uint64 matrix; both
    give the oracle's ``reduce`` and ``bit_count`` answers."""
    nbits = data.draw(st.integers(min_value=1, max_value=640))
    words = (nbits + 63) // 64
    count = data.draw(
        st.sampled_from(
            [1, 2, max(1, sigops._NUMPY_THRESHOLD // words) + 1]
        )
    )
    masks = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=(1 << nbits) - 1),
            min_size=count,
            max_size=count,
        )
    )
    for name in ("or_masks", "and_masks", "popcount_masks"):
        scalar, vector = against_oracle(
            lambda m: getattr(m, name)(masks, nbits)
        )
        assert scalar == vector, name
    # Decoded nodes of mixed widths: one popcount per width, summed.
    nodes = [(nbits, mask) for mask in masks] + [(nbits + 1, 1 << nbits)]
    assert sigops.popcount_bitarrays(nodes) == sum(m.bit_count() for m in masks) + 1


@settings(max_examples=60)
@given(point_blocks(min_dims=1, max_dims=3, max_rows=40), st.data())
def test_sfs_skyline_parity(rows, data):
    """The chunked SFS reports the oracle's skyline in the oracle's order
    ``(Σ point, point, tid)``, from tuples and from a matrix alike."""
    tids = data.draw(st.permutations(range(len(rows))))
    points = list(zip(tids, rows))
    scalar, vector = against_oracle(lambda m: m.sfs_skyline(points))
    assert scalar == vector
    if rows:
        matrix = np.asarray(rows, dtype=np.float64)
        assert skyline_algs.sfs_skyline(points, matrix=matrix) == scalar


@pytest.mark.parametrize("chunk", [1, 3, 64])
@pytest.mark.parametrize("dims", [2, 3])
def test_sfs_skyline_parity_across_chunks(chunk, dims, monkeypatch):
    """Chunk boundaries land inside the skyline: a chunk's survivors are
    filtered against the buffer *and* against each other."""
    rng = random.Random(100 * chunk + dims)
    # A staircase (every point on the skyline) plus tie-prone grid noise.
    rows = [
        (i / 200, 1.0 - i / 200, *grid_points(rng, 1, 1)[0])[:dims]
        for i in range(200)
    ] + grid_points(rng, dims, 300)
    points = list(enumerate(rows))
    rng.shuffle(points)
    monkeypatch.setattr(skyline_algs, "_SFS_CHUNK", chunk)
    assert skyline_algs.sfs_skyline(points) == reference.sfs_skyline(points)


@given(
    st.lists(
        st.lists(st.integers(min_value=0, max_value=30), max_size=20),
        max_size=5,
    )
)
def test_intersect_postings_parity(postings):
    """Same tids, and the same postings read: the product stops at the
    oracle's first empty intersection, so the lists after it are never
    fetched (never counted as ``BINDEX`` pages)."""

    def run(m):
        read = []

        def lazily():
            for posting in postings:
                read.append(posting)
                yield posting

        return m.intersect_postings(lazily()), read

    scalar, vector = against_oracle(run)
    assert scalar == vector
