"""Batch primitives for the storage→query hot path.

Three kernel families, each evaluating one scalar formula over a block of
rows — in numpy, except where a numpy pass would cost only its fixed
overhead:

* :mod:`repro.kernels.dominate` — block-vs-skyline-buffer domination (a
  BBS-sized block of widths 2–4 is one early-exit loop over tuples, up to
  a comparison budget);
* :mod:`repro.kernels.mindist` — batch heap keys (coordinate sums, linear
  and distance scores, rectangle lower bounds, MINDIST, the dynamic
  transform);
* :mod:`repro.kernels.sigops` — word-parallel AND/OR/popcount over packed
  uint64 signature buffers.

Each agrees bit-for-bit with the one-tuple-at-a-time formula it replaces:
block paths accumulate per dimension in the scalar loops' order and
comparisons are exact.  The scalar formulas live in
``tests/kernels/reference.py``, and the Hypothesis parity suite pins every
kernel against them.
"""
