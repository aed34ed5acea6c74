"""Decomposition into page-sized partials and the retrieval protocol."""

import random
from collections import deque
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitmap.bitarray import mask_positions
from repro.bitmap.compression import compress
from repro.core import partial as partial_module
from repro.core.partial import (
    PartialSignature,
    compress_masks,
    decompose,
    edit_blobs,
    retrieval_refs,
)
from repro.core.sid import child_sid, sid_of_path
from repro.core.signature import Signature
from repro.core.store import SignatureStore
from repro.storage.counters import SSIG
from repro.storage.disk import SimulatedDisk
from tests.core.test_store import CELL, count_compressions, stored_bytes
from tests.reference import ancestor_sids, reassemble

FANOUT = 4

path_sets = st.sets(
    st.lists(
        st.integers(min_value=1, max_value=FANOUT), min_size=1, max_size=4
    ).map(tuple),
    max_size=40,
)


def test_empty_signature_yields_no_partial():
    partials = decompose(Signature(FANOUT), page_size=4096)
    assert partials == []
    assert reassemble(partials, FANOUT) == Signature(FANOUT)


def test_small_signature_fits_one_partial():
    signature = Signature.from_paths([(1, 2), (3, 4)], FANOUT)
    partials = decompose(signature, page_size=4096)
    assert len(partials) == 1
    assert partials[0].ref_sid == 0
    assert set(partials[0].blobs) == set(signature.masks())


def test_partial_size_accounting():
    signature = Signature.from_paths([(1, 2)], FANOUT)
    (partial,) = decompose(signature, page_size=4096)
    assert partial.size_bytes > 0
    # PartialSignature computes its own size when not provided.
    clone = PartialSignature(ref_sid=0, blobs=dict(partial.blobs))
    assert clone.size_bytes == partial.size_bytes


def test_partials_respect_page_budget():
    paths = [(a, b, c) for a in (1, 2, 3) for b in (1, 2, 3) for c in (1, 2)]
    signature = Signature.from_paths(paths, FANOUT)
    page = 64
    partials = decompose(signature, page_size=page)
    assert len(partials) > 1
    for partial in partials:
        # A partial may exceed the page only if it holds a single node
        # whose blob alone is larger than the budget.
        if len(partial.blobs) > 1:
            assert partial.size_bytes <= page
    assert reassemble(partials, FANOUT) == signature


def test_first_partial_is_root_referenced():
    signature = Signature.from_paths([(1, 1, 1), (2, 2, 2)], FANOUT)
    partials = decompose(signature, page_size=48)
    assert partials[0].ref_sid == 0
    assert 0 in partials[0].blobs  # the root node itself is coded first


def test_every_node_coded_exactly_once():
    paths = [(a, b) for a in range(1, 5) for b in range(1, 5)]
    signature = Signature.from_paths(paths, FANOUT)
    partials = decompose(signature, page_size=56)
    seen: set[int] = set()
    for partial in partials:
        overlap = seen & set(partial.blobs)
        assert not overlap
        seen |= set(partial.blobs)
    assert seen == set(signature.masks())


def test_refs_are_ancestors_of_their_contents():
    """Every partial's nodes lie in the subtree of its reference — the
    property the retrieval protocol depends on."""
    paths = [(a, b, c) for a in (1, 2) for b in (1, 2, 3) for c in (1, 2, 3)]
    signature = Signature.from_paths(paths, FANOUT)
    for partial in decompose(signature, page_size=40):
        ref_path = ()
        if partial.ref_sid:
            from tests.reference import path_of_sid

            ref_path = path_of_sid(partial.ref_sid, FANOUT)
        for sid in partial.blobs:
            from tests.reference import path_of_sid

            node_path = path_of_sid(sid, FANOUT)
            assert node_path[: len(ref_path)] == ref_path


def test_retrieval_refs_order():
    path = (2, 1, 3)
    refs = retrieval_refs(sid_of_path(path, FANOUT), FANOUT)
    assert refs == ancestor_sids(path, FANOUT)
    assert retrieval_refs(0, FANOUT) == [0]
    assert refs[0] == 0
    assert refs[-1] == sid_of_path(path, FANOUT)


def test_retrieval_protocol_always_finds_the_node():
    """Simulate the paper's protocol: probe ancestor references in order;
    some prefix of them must locate every represented node."""
    paths = [(a, b, c) for a in (1, 2, 3, 4) for b in (1, 2) for c in (1, 2)]
    signature = Signature.from_paths(paths, FANOUT)
    partials = {p.ref_sid: p for p in decompose(signature, page_size=40)}
    for sid in signature.masks():
        found = False
        for ref in retrieval_refs(sid, FANOUT):
            partial = partials.get(ref)
            if partial is not None and sid in partial:
                found = True
                break
        assert found, f"node {sid} unreachable via ancestor references"


def test_decode_roundtrips_bits():
    signature = Signature.from_paths([(1, 2), (2, 1)], FANOUT)
    (partial,) = decompose(signature, page_size=4096)
    assert partial.decode() == signature.masks()


def test_fingerprint_covers_ref_size_sids_and_every_blob_byte():
    blobs = {0: b"\x00\x04\x03", 1: b"\x00\x04\x01", 7: b"\x00\x04\x08"}
    partial = PartialSignature(ref_sid=0, blobs=blobs)
    fingerprint = partial.page_checksum
    reordered = PartialSignature(ref_sid=0, blobs=dict(reversed(blobs.items())))
    assert reordered.page_checksum == fingerprint
    damaged = [
        PartialSignature(ref_sid=1, blobs=blobs),
        PartialSignature(ref_sid=0, blobs=blobs, size_bytes=partial.size_bytes + 1),
        PartialSignature(ref_sid=0, blobs={0: blobs[0], 1: blobs[1], 8: blobs[7]}),
        PartialSignature(ref_sid=0, blobs={0: blobs[0], 1: blobs[1]}),
        PartialSignature(ref_sid=0, blobs={0: blobs[0], 1: blobs[7], 7: blobs[1]}),
        # One byte moved between adjacent blobs: the joined bytes and the
        # size stay, only the blob lengths say where a node ends.
        PartialSignature(
            ref_sid=0,
            blobs={0: blobs[0][:-1], 1: blobs[0][-1:] + blobs[1], 7: blobs[7]},
        ),
    ]
    for sid, blob in blobs.items():
        for index in range(len(blob)):
            flipped = bytearray(blob)
            flipped[index] ^= 0x10
            damaged.append(
                PartialSignature(ref_sid=0, blobs={**blobs, sid: bytes(flipped)})
            )
    fingerprints = {other.page_checksum for other in damaged}
    assert fingerprint not in fingerprints
    assert len(fingerprints) == len(damaged)
    # A partial is a value: its page checksum is computed once, so no field
    # of a stored one may change under it.
    store = SignatureStore(SimulatedDisk(), fanout=FANOUT)
    store.put_signature(CELL, Signature.from_paths([(1, 2), (2, 1)], FANOUT))
    (page_id,) = store.directory_snapshot()[CELL.cell_id].values()
    partial = store.disk.peek(page_id).payload
    with pytest.raises(TypeError):
        partial.blobs[0] = b"\xff\x00\xff"
    with pytest.raises(TypeError):
        del partial.blobs[0]
    with pytest.raises(FrozenInstanceError):
        partial.ref_sid = 1
    store.disk.read(page_id, SSIG)  # still verifies


@settings(max_examples=40, deadline=None)
@given(path_sets, st.sampled_from([32, 48, 64, 4096]))
def test_reassembly_roundtrip_property(paths, page_size):
    signature = Signature.from_paths(paths, FANOUT)
    partials = decompose(signature, page_size=page_size)
    assert reassemble(partials, FANOUT) == signature


@settings(max_examples=30, deadline=None)
@given(path_sets)
def test_protocol_completeness_property(paths):
    signature = Signature.from_paths(paths, FANOUT)
    partials = {p.ref_sid: p for p in decompose(signature, page_size=36)}
    for sid in signature.masks():
        assert any(
            ref in partials and sid in partials[ref]
            for ref in retrieval_refs(sid, FANOUT)
        )


# --------------------------------------------------------------------------- #
# the packer against the tree walk it replaced; rewrites from stored blobs
# --------------------------------------------------------------------------- #


def as_bytes(partials):
    """Everything a stored partial is: reference, blob order, blob bytes, size."""
    return [
        (p.ref_sid, list(p.blobs.items()), p.size_bytes) for p in partials
    ]


def bfs_sids(signature, start_sid):
    """Breadth-first SIDs of the subtree at ``start_sid``, by walking the
    signature tree bit by bit — what ``decompose`` did before it packed from
    sorted SIDs.  Lives here so the oracle shares nothing with ``pack``."""
    if not signature.node(start_sid):
        return
    queue = deque([start_sid])
    while queue:
        sid = queue.popleft()
        yield sid
        for position in mask_positions(signature.node(sid)):
            child = child_sid(sid, position + 1, signature.fanout)
            if signature.node(child):
                queue.append(child)


def reference_decompose(signature, page_size, codec="adaptive"):
    """The packing loop as first written — every node compressed, every BFS
    seed tried, every subtree walked through the bit arrays."""
    compressed = {
        sid: compress(signature.fanout, mask, codec)
        for sid, mask in signature.masks().items()
    }
    coded: set[int] = set()
    partials = []
    for seed in bfs_sids(signature, 0):
        blobs: dict[int, bytes] = {}
        size = partial_module._PART_HEADER_BYTES
        for sid in bfs_sids(signature, seed):
            if sid in coded:
                continue
            cost = partial_module._NODE_OVERHEAD_BYTES + len(compressed[sid])
            if blobs and size + cost > page_size:
                break
            blobs[sid] = compressed[sid]
            coded.add(sid)
            size += cost
        if blobs:
            partials.append(
                PartialSignature(ref_sid=seed, blobs=blobs, size_bytes=size)
            )
    return partials


PAGE_SIZES = [32, 48, 64, 128, 4096]
CODECS = ["adaptive", "raw"]


@st.composite
def trees(draw):
    """(fanout, tuple paths): fan-out 2 / 4 / 64, leaves at depth 1-4."""
    fanout = draw(st.sampled_from([2, 4, 64]))
    component = st.integers(min_value=1, max_value=fanout)
    depth = draw(st.integers(min_value=1, max_value=4))
    paths = draw(
        st.sets(
            st.lists(component, min_size=depth, max_size=depth).map(tuple),
            max_size=40,
        )
    )
    return fanout, paths


@settings(max_examples=150, deadline=None)
@given(trees(), st.sampled_from(PAGE_SIZES), st.sampled_from(CODECS))
def test_decompose_is_byte_identical_to_the_tree_walk(tree, page_size, codec):
    fanout, paths = tree
    signature = Signature.from_paths(paths, fanout)
    assert as_bytes(decompose(signature, page_size, codec)) == as_bytes(
        reference_decompose(signature, page_size, codec)
    )


@pytest.mark.parametrize("codec", CODECS)
@pytest.mark.parametrize("page_size", PAGE_SIZES)
@pytest.mark.parametrize("fanout", [2, 4, 64])
def test_decompose_of_a_full_tree_matches_the_tree_walk(fanout, page_size, codec):
    """Dense trees of depth 3: many seeds, and at the small pages budgets
    that run out in the middle of a level."""
    width = range(1, min(fanout, 4) + 1)
    signature = Signature.from_paths(
        [(a, b, c) for a in width for b in width for c in (1, fanout)], fanout
    )
    partials = decompose(signature, page_size, codec)
    assert as_bytes(partials) == as_bytes(
        reference_decompose(signature, page_size, codec)
    )
    if page_size in (32, 4096):
        assert (len(partials) == 1) == (page_size == 4096)


def test_a_page_budget_that_breaks_mid_level_resumes_at_the_first_child():
    """Raw fan-out-4 blobs cost 4 bytes a node: a 32-byte page holds the
    root and three of its four children; the fourth waits for its own seed,
    after the first child's subtree."""
    signature = Signature.from_paths(
        [(a, b) for a in (1, 2, 3, 4) for b in (1, 2)], FANOUT
    )
    partials = decompose(signature, page_size=32, codec="raw")
    assert [(p.ref_sid, list(p.blobs)) for p in partials] == [
        (0, [0, 1, 2, 3]),
        (4, [4]),
    ]
    assert as_bytes(partials) == as_bytes(
        reference_decompose(signature, page_size=32, codec="raw")
    )


def test_a_seed_whose_subtree_is_already_coded_references_no_partial():
    """The root's partial takes the first level and the subtree of child 1
    whole; seed 1 then finds nothing left to pack and seed 2 carries on."""
    signature = Signature.from_paths(
        [(1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 3, 1), (3, 1, 1)], FANOUT
    )
    one, two, three = (sid_of_path((a,), FANOUT) for a in (1, 2, 3))
    partials = decompose(signature, page_size=16 + 5 * 4, codec="raw")
    assert [p.ref_sid for p in partials] == [0, two, three]
    assert list(partials[0].blobs) == [0, one, two, three, sid_of_path((1, 1), FANOUT)]
    assert as_bytes(partials) == as_bytes(
        reference_decompose(signature, page_size=16 + 5 * 4, codec="raw")
    )


def count_walks(monkeypatch):
    """Record the seed of every subtree walk ``pack`` starts."""
    walks = []
    real = partial_module._subtree_sids

    def counting(order, seed, fanout):
        walks.append(seed)
        return real(order, seed, fanout)

    monkeypatch.setattr(partial_module, "_subtree_sids", counting)
    return walks


def page_fill(signature, codec="adaptive"):
    """The bytes of one partial holding every node of ``signature``."""
    blobs = compress_masks(signature.masks(), signature.fanout, codec)
    return partial_module._PART_HEADER_BYTES + sum(
        partial_module._NODE_OVERHEAD_BYTES + len(blob) for blob in blobs.values()
    )


def test_decompose_makes_one_pass_when_the_cell_fits_a_page(monkeypatch):
    """A cell that fits a page is packed with no walk at all — neither a
    seed's subtree nor a node's — and is the page the walk would make."""
    signature = Signature.from_paths(
        [(a, b, c) for a in (1, 2, 3) for b in (1, 2) for c in (1, 2)], FANOUT
    )
    walks = count_walks(monkeypatch)
    (only,) = decompose(signature, page_size=4096)
    assert walks == []
    assert list(only.blobs) == sorted(signature.masks())
    assert as_bytes([only]) == as_bytes(reference_decompose(signature, 4096))


@pytest.mark.parametrize("codec", CODECS)
@pytest.mark.parametrize("fanout", [2, 4, 64])
def test_the_one_page_pass_is_the_walk_at_the_page_boundary(
    monkeypatch, fanout, codec
):
    """At a page exactly as large as the cell the one pass packs it; one
    byte less and the walk runs — both byte-identical to the tree walk."""
    width = range(1, min(fanout, 3) + 1)
    signature = Signature.from_paths(
        [(a, b, c) for a in width for b in width for c in (1, fanout)], fanout
    )
    fill = page_fill(signature, codec)
    walks = count_walks(monkeypatch)
    for page_size, one_page in [(fill, True), (fill - 1, False)]:
        walks.clear()
        partials = decompose(signature, page_size, codec)
        assert as_bytes(partials) == as_bytes(
            reference_decompose(signature, page_size, codec)
        )
        assert (len(partials) == 1) == one_page
        assert (walks == []) == one_page


def test_the_one_page_pass_leaves_an_empty_cell_and_an_oversized_node_alone(
    monkeypatch,
):
    """An empty cell is no partial; a lone node larger than the page is
    still packed by the walk, into one over-full partial."""
    walks = count_walks(monkeypatch)
    empty = Signature.from_paths([], 64)
    assert as_bytes(decompose(empty, page_size=32)) == as_bytes(
        reference_decompose(empty, page_size=32)
    )
    lone = Signature.from_paths([(a,) for a in range(1, 65)], 64)
    page_size = page_fill(lone, "raw") - 1
    (partial,) = decompose(lone, page_size, "raw")
    assert partial.size_bytes > page_size
    assert walks == [0]
    assert as_bytes([partial]) == as_bytes(
        reference_decompose(lone, page_size, "raw")
    )


def moved(paths, fanout, rng, n_moves):
    """Tuples on the distinct slots ``paths`` after ``n_moves`` leaves,
    joins and moves — a slot one tuple vacates may be refilled by another —
    merged per tuple like one op's changes: the paths that left, the ones
    that joined, and the signature of the slots held afterwards."""
    start = dict(enumerate(sorted(paths)))
    now = dict(start)
    depth = len(next(iter(paths), (1, 1)))
    for step in range(n_moves):
        action = rng.choice(["leave", "join", "move"])
        path = tuple(rng.randint(1, fanout) for _ in range(depth))
        if action == "leave" and now:
            del now[rng.choice(sorted(now))]
        elif path not in now.values():
            tid = rng.choice(sorted(now)) if action == "move" and now else -1 - step
            now[tid] = path
    removed, added = [], []
    for tid in sorted(start.keys() | now.keys()):
        old, new = start.get(tid), now.get(tid)
        if old != new:
            removed += [old] if old is not None else []
            added += [new] if new is not None else []
    return removed, added, Signature.from_paths(now.values(), fanout)


@settings(max_examples=100, deadline=None)
@given(
    trees(),
    st.sampled_from(PAGE_SIZES),
    st.sampled_from(CODECS),
    st.randoms(use_true_random=False),
    st.integers(min_value=1, max_value=4),
)
def test_rewrite_from_stored_blobs_is_byte_identical(
    tree, page_size, codec, rng, n_moves
):
    """The store's read-modify-write — stored bits edited along the moved
    paths, nodes added and removed, blobs that change length — ends on the
    pages a from-scratch tree walk of the new signature would write."""
    fanout, paths = tree
    store = SignatureStore(SimulatedDisk(page_size=page_size), fanout, codec=codec)
    store.put_signature(CELL, Signature.from_paths(paths, fanout))
    removed, added, after = moved(paths, fanout, rng, n_moves)
    store.put_signature(CELL, removed=removed, added=added)
    assert stored_bytes(store, CELL) == as_bytes(
        reference_decompose(after, page_size, codec)
    )


def test_a_maintenance_stream_crosses_the_one_page_boundary_both_ways():
    """Tuples join one at a time until the cell spills onto a second page,
    move, then leave until it fits one again: after every rewrite the
    stored pages are the ones a from-scratch decompose would write."""
    every = [(a, b, c) for a in (1, 2, 3, 4) for b in (1, 2, 3, 4) for c in (1, 4)]
    random.Random(5).shuffle(every)
    start, joining, spare = every[:4], every[4:24], every[24:28]
    page_size = (
        page_fill(Signature.from_paths(start, FANOUT))
        + page_fill(Signature.from_paths(start + joining, FANOUT))
    ) // 2
    store = SignatureStore(SimulatedDisk(page_size=page_size), FANOUT)
    store.put_signature(CELL, Signature.from_paths(start, FANOUT))
    steps = (
        [([], [path]) for path in joining]
        + [([old], [new]) for old, new in zip(joining, spare)]
        + [([path], []) for path in reversed(spare)]
        + [([path], []) for path in reversed(joining[len(spare):])]
    )
    now, n_partials = list(start), []
    for removed, added in steps:
        store.put_signature(CELL, removed=removed, added=added)
        now = [path for path in now if path not in removed] + added
        assert stored_bytes(store, CELL) == as_bytes(
            decompose(Signature.from_paths(now, FANOUT), page_size)
        )
        n_partials.append(store.n_partials(CELL))
    assert sorted(now) == sorted(start)
    assert n_partials[0] == n_partials[-1] == 1 < max(n_partials)


def test_reused_nodes_are_not_compressed_again(monkeypatch):
    paths = [(a, b, c) for a in (1, 2, 3) for b in (1, 2) for c in (1, 2)]
    store = SignatureStore(SimulatedDisk(page_size=48), FANOUT)
    store.put_signature(CELL, Signature.from_paths(paths, FANOUT))
    changed = {0, sid_of_path((2,), FANOUT), sid_of_path((2, 1), FANOUT)}
    compressed = count_compressions(monkeypatch)
    store.put_signature(CELL, removed=[(2, 1, 1)], added=[(2, 1, 3)])
    assert len(compressed) == len(changed)
    after = [path for path in paths if path != (2, 1, 1)] + [(2, 1, 3)]
    assert stored_bytes(store, CELL) == as_bytes(
        reference_decompose(Signature.from_paths(after, FANOUT), page_size=48)
    )


def test_edit_blobs_decodes_and_compresses_only_the_moved_paths_nodes(
    monkeypatch,
):
    """The bit edit works on the cell's compressed nodes: it decodes the
    nodes on the moved paths and nothing else, compresses those it keeps
    and drops the ones that emptied — and every blob then equals the
    compressed node of the signature generated afresh."""
    paths = [(a, b, c) for a in (1, 2, 3) for b in (1, 2) for c in (1, 2)]
    before = Signature.from_paths(paths, FANOUT)
    blobs = compress_masks(before.masks(), FANOUT)
    removed = [(3, 2, 1), (3, 2, 2)]  # node (3, 2) empties
    added = [(4, 1, 1)]  # node (4,) and (4, 1) appear
    decoded = []
    real_decompress = partial_module.decompress
    monkeypatch.setattr(
        partial_module,
        "decompress",
        lambda blob: decoded.append(blob) or real_decompress(blob),
    )
    compressed = count_compressions(monkeypatch)
    edit_blobs(blobs, removed, added, FANOUT)
    n_decoded, n_compressed = len(decoded), len(compressed)
    after = Signature.from_paths(
        [path for path in paths if path not in removed] + added, FANOUT
    )
    assert blobs == compress_masks(after.masks(), FANOUT)
    on_paths = {sid_of_path(prefix, FANOUT) for prefix in [(), (3,), (3, 2), (4,), (4, 1)]}
    assert n_decoded == len(on_paths & set(before.masks())) == 3
    assert n_compressed == len(on_paths) - 1 == 4
