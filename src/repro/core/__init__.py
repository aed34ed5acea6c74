"""P-Cube core: the signature measure and its life cycle.

This package is the paper's primary contribution (Section IV):

* :mod:`repro.core.sid` — path ⇄ SID arithmetic;
* :mod:`repro.core.signature` — the signature tree of one cube cell;
* :mod:`repro.core.ops` — signature union and (recursive) intersection for
  online assembly from atomic cuboids (Fig. 3);
* :mod:`repro.core.partial` — compression + decomposition into page-sized
  partial signatures, and the ancestor-reference retrieval protocol;
* :mod:`repro.core.store` — the on-disk signature store, indexed by
  (cell id, SID) with a B+-tree;
* :mod:`repro.core.readers` — the lazily loading boolean-prune readers
  queries ask, one per cell, assembled per conjunction or disjunction;
* :mod:`repro.core.counted` — counted signatures for O(depth) maintenance;
* :mod:`repro.core.maintenance` — incremental updates from R-tree path
  changes (Section IV-B.3);
* :mod:`repro.core.pcube` — the cube itself: build, retrieve, assemble,
  maintain.
"""

from repro.core.pcube import PCube
from repro.core.signature import Signature
from repro.core.sid import path_of_sid, sid_of_path

__all__ = ["PCube", "Signature", "path_of_sid", "sid_of_path"]
