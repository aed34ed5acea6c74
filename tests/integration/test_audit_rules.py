"""Every rule of the consistency audit fires, and fires alone.

``PCubeSystem.verify_consistency`` reports one line per broken invariant.
A rule that no corruption can trigger guards nothing, so each rule has one
seeded corruption here that makes exactly that rule report, and no other.
"""

from __future__ import annotations

from dataclasses import replace
from unittest import mock

import pytest

from repro.core.integrity import apex_masks
from repro.core.partial import PartialSignature
from repro.cube.cuboid import Cell
from repro.data.synthetic import SyntheticConfig, generate_relation
from repro.storage.faults import SimulatedCrash
from repro.system import build_system

CONFIG = SyntheticConfig(
    n_tuples=300, n_boolean=2, cardinality=3, n_preference=2, seed=5
)


def first_cell(system) -> Cell:
    return min(
        system.pcube.cuboids[0].group(system.relation), key=lambda c: c.cell_id
    )


def interrupt_a_commit(system):
    """The op is applied in full; only its commit record never lands."""
    with mock.patch.object(system.wal, "commit", side_effect=SimulatedCrash):
        with pytest.raises(SimulatedCrash):
            system.insert((0, 0), (0.5, 0.5))


def drop_a_heap_row(system):
    """The last heap page loses its last row (the row stays in memory)."""
    relation = system.relation
    system.disk.peek(relation._page_ids[-1]).payload.pop()


def index_a_ghost(system):
    """The R-tree gains an entry for a tid no relation row has."""
    system.rtree.insert(len(system.relation) + 7, (0.999, 0.999))


def garble_a_blob(system):
    """One stored node blob stops decoding; its page still verifies."""
    cell = first_cell(system)
    for page_id in system.pcube.store.directory_snapshot()[cell.cell_id].values():
        page = system.disk.peek(page_id)
        sid = max(page.payload.blobs)
        damaged = {**page.payload.blobs, sid: b"\xff\x00\xff"}
        page.payload = replace(page.payload, blobs=damaged)
        page.seal()
        return


def flip_a_bit(system):
    """One set bit of a cell's deepest node is cleared, stored through
    ``put_signature`` so every page verifies and every blob decodes."""
    pcube = system.pcube
    cell = first_cell(system)
    signature = pcube.signature_of(cell)
    sid = max(signature.masks())
    bits = signature.node(sid)
    signature.set_node(sid, bits ^ bits & -bits)
    pcube.store.put_signature(cell, signature)


def set_a_free_slot_bit(system):
    """One bit is set on a free child slot of a node the cell already has,
    stored through ``put_signature`` so every page verifies and every blob
    decodes."""
    pcube = system.pcube
    cell = first_cell(system)
    signature = pcube.signature_of(cell)
    apex = apex_masks(system.rtree.all_paths(), pcube.fanout)
    for sid, mask in sorted(signature.masks().items()):
        free = ~apex[sid] & ((1 << pcube.fanout) - 1)
        if free:
            signature.set_node(sid, mask | free & -free)
            pcube.store.put_signature(cell, signature)
            return
    raise AssertionError("every node of the cell is full")


def store_a_stranger(system):
    """The store holds a cell no group-by can produce."""
    pcube = system.pcube
    stranger = Cell(("A1",), (99,))
    pcube.store.put_signature(stranger, pcube.signature_of(first_cell(system)))


def store_an_emptied_cell(system):
    """Every member of a cell is deleted, then the cell is stored again as
    one empty partial: a cell no live row derives, which a build leaves
    absent."""
    cell = first_cell(system)
    for tid in system.pcube.cuboids[0].group(system.relation)[cell]:
        system.delete(tid)
    assert not system.pcube.store.has_cell(cell)
    system.pcube.store.replace_partials(cell, [PartialSignature(ref_sid=0, blobs={})])


def quarantine_a_cell(system):
    system.pcube.store.quarantine(first_cell(system), "seeded")


def leak_a_page(system):
    """A signature page the directory does not reference."""
    system.disk.allocate(f"{system.pcube.tag}:sig", payload=None)


RULES = {
    "WAL holds an interrupted maintenance operation": interrupt_a_commit,
    "relation rows never reached a heap page": drop_a_heap_row,
    "R-tree tids diverge from live tids": index_a_ghost,
    ": unreadable (": garble_a_blob,
    "stored signature diverges from the R-tree partition": flip_a_bit,
    "bits on free slots, outside the apex": set_a_free_slot_bit,
    "store holds unknown cell 'A1=99'": store_a_stranger,
    "store holds unknown cell 'A1=0'": store_an_emptied_cell,
    " is quarantined": quarantine_a_cell,
    "signature pages no directory references": leak_a_page,
}


@pytest.mark.parametrize("rule", sorted(RULES))
def test_each_rule_fires_alone(rule):
    system = build_system(
        generate_relation(CONFIG), fanout=6, rtree_method="insert"
    )
    assert system.verify_consistency().ok
    RULES[rule](system)
    problems = system.verify_consistency().problems
    assert len(problems) == 1, problems
    assert rule in problems[0]
