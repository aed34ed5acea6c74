"""Paged B+-trees.

A baseline structure only, used two ways, mirroring the paper's setup:

* one B+-tree per boolean dimension for the *Boolean-first* baseline
  (Section VI-A: "We use B+-tree to index each boolean dimension");
* posting-list access for the *Index-merge* baseline [14].

Whoever measures those baselines builds the trees
(:func:`~repro.baselines.boolean_first.build_boolean_indexes`); a served
system keeps none, and the signature store finds a partial through its
in-memory directory (:mod:`repro.core.store`).
"""

from repro.btree.btree import BPlusTree

__all__ = ["BPlusTree"]
