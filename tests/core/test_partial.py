"""Decomposition into page-sized partials and the retrieval protocol."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import partial as partial_module
from repro.core.partial import (
    PartialSignature,
    decompose,
    reassemble,
    retrieval_refs,
)
from repro.core.sid import ancestor_sids, sid_of_path
from repro.core.signature import Signature

FANOUT = 4

path_sets = st.sets(
    st.lists(
        st.integers(min_value=1, max_value=FANOUT), min_size=1, max_size=4
    ).map(tuple),
    max_size=40,
)


def test_empty_signature_yields_one_empty_partial():
    partials = decompose(Signature(FANOUT), page_size=4096)
    assert len(partials) == 1
    assert partials[0].ref_sid == 0
    assert partials[0].blobs == {}
    assert reassemble(partials, FANOUT) == Signature(FANOUT)


def test_small_signature_fits_one_partial():
    signature = Signature.from_paths([(1, 2), (3, 4)], FANOUT)
    partials = decompose(signature, page_size=4096)
    assert len(partials) == 1
    assert partials[0].ref_sid == 0
    assert set(partials[0].blobs) == set(signature.node_sids())


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
    assert seen == set(signature.node_sids())


def test_refs_are_ancestors_of_their_contents():
    """Every partial's nodes lie in the subtree of its reference — the
    property the retrieval protocol depends on."""
    paths = [(a, b, c) for a in (1, 2) for b in (1, 2, 3) for c in (1, 2, 3)]
    signature = Signature.from_paths(paths, FANOUT)
    for partial in decompose(signature, page_size=40):
        ref_path = ()
        if partial.ref_sid:
            from repro.core.sid import path_of_sid

            ref_path = path_of_sid(partial.ref_sid, FANOUT)
        for sid in partial.blobs:
            from repro.core.sid import path_of_sid

            node_path = path_of_sid(sid, FANOUT)
            assert node_path[: len(ref_path)] == ref_path


def test_retrieval_refs_order():
    path = (2, 1, 3)
    refs = retrieval_refs(path, FANOUT)
    assert refs == ancestor_sids(path, FANOUT)
    assert refs[0] == 0
    assert refs[-1] == sid_of_path(path, FANOUT)


def test_retrieval_protocol_always_finds_the_node():
    """Simulate the paper's protocol: probe ancestor references in order;
    some prefix of them must locate every represented node."""
    paths = [(a, b, c) for a in (1, 2, 3, 4) for b in (1, 2) for c in (1, 2)]
    signature = Signature.from_paths(paths, FANOUT)
    partials = {p.ref_sid: p for p in decompose(signature, page_size=40)}
    from repro.core.sid import path_of_sid

    for sid in signature.node_sids():
        node_path = path_of_sid(sid, FANOUT)
        found = False
        for ref in retrieval_refs(node_path, FANOUT):
            partial = partials.get(ref)
            if partial is not None and sid in partial:
                found = True
                break
        assert found, f"node {sid} unreachable via ancestor references"


def test_decode_roundtrips_bits():
    signature = Signature.from_paths([(1, 2), (2, 1)], FANOUT)
    (partial,) = decompose(signature, page_size=4096)
    decoded = partial.decode()
    for sid, bits in decoded.items():
        assert bits == signature.node(sid)


@settings(max_examples=40, deadline=None)
@given(path_sets, st.sampled_from([32, 48, 64, 4096]))
def test_reassembly_roundtrip_property(paths, page_size):
    signature = Signature.from_paths(paths, FANOUT)
    partials = decompose(signature, page_size=page_size)
    assert reassemble(partials, FANOUT) == signature


@settings(max_examples=30, deadline=None)
@given(path_sets)
def test_protocol_completeness_property(paths):
    from repro.core.sid import path_of_sid

    signature = Signature.from_paths(paths, FANOUT)
    partials = {p.ref_sid: p for p in decompose(signature, page_size=36)}
    for sid in signature.node_sids():
        node_path = path_of_sid(sid, FANOUT)
        assert any(
            ref in partials and sid in partials[ref]
            for ref in retrieval_refs(node_path, FANOUT)
        )


# --------------------------------------------------------------------------- #
# blob reuse and early exit: same bytes, less work
# --------------------------------------------------------------------------- #


def as_bytes(partials):
    """Everything a stored partial is: reference, blob order, blob bytes, size."""
    return [
        (p.ref_sid, list(p.blobs.items()), p.size_bytes) for p in partials
    ]


def reference_decompose(signature, page_size, codec="adaptive"):
    """The packing loop as first written — every node compressed, every BFS
    seed tried — kept here as the oracle for the reuse input and the early
    exit."""
    compressed = {
        sid: partial_module.compress(signature.node(sid), codec)
        for sid in signature.node_sids()
    }
    if not compressed:
        return [PartialSignature(ref_sid=0, blobs={})]
    coded: set[int] = set()
    partials = []
    for seed in partial_module._bfs_sids(signature, 0):
        blobs: dict[int, bytes] = {}
        size = partial_module._PART_HEADER_BYTES
        for sid in partial_module._bfs_sids(signature, seed):
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


@settings(max_examples=60, deadline=None)
@given(
    path_sets,
    st.sampled_from([32, 48, 64, 4096]),
    st.sampled_from(["adaptive", "raw"]),
    st.randoms(use_true_random=False),
)
def test_decompose_with_reused_blobs_is_byte_identical(
    paths, page_size, codec, rng
):
    signature = Signature.from_paths(paths, FANOUT)
    expected = reference_decompose(signature, page_size, codec)
    assert as_bytes(decompose(signature, page_size, codec)) == as_bytes(expected)
    stored = {sid: blob for p in expected for sid, blob in p.blobs.items()}
    reuse = {sid: blob for sid, blob in stored.items() if rng.random() < 0.7}
    assert as_bytes(
        decompose(signature, page_size, codec, reuse=reuse)
    ) == as_bytes(expected)


def test_reused_nodes_are_not_compressed_again(monkeypatch):
    signature = Signature.from_paths(
        [(a, b, c) for a in (1, 2, 3) for b in (1, 2) for c in (1, 2)], FANOUT
    )
    stored = {
        sid: blob
        for p in decompose(signature, page_size=48)
        for sid, blob in p.blobs.items()
    }
    changed = {0, sid_of_path((2,), FANOUT), sid_of_path((2, 1), FANOUT)}
    compressed = []
    real = partial_module.compress

    def counting(bits, codec="adaptive"):
        compressed.append(bits)
        return real(bits, codec)

    monkeypatch.setattr(partial_module, "compress", counting)
    reuse = {sid: blob for sid, blob in stored.items() if sid not in changed}
    decompose(signature, page_size=48, reuse=reuse)
    assert len(compressed) == len(changed)


def test_decompose_stops_seeding_once_every_node_is_coded(monkeypatch):
    signature = Signature.from_paths(
        [(a, b, c) for a in (1, 2, 3) for b in (1, 2) for c in (1, 2)], FANOUT
    )
    walks = []
    real = partial_module._bfs_sids

    def counting(sig, start_sid):
        walks.append(start_sid)
        return real(sig, start_sid)

    monkeypatch.setattr(partial_module, "_bfs_sids", counting)
    (only,) = decompose(signature, page_size=4096)
    assert set(only.blobs) == set(signature.node_sids())
    # The seed enumeration and the first pack — not one walk per node.
    assert walks == [0, 0]
