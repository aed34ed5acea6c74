"""The repo's end-to-end serving benchmark (see README.md in this directory).

``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace T``
runs one workload in one process (the ``BENCHMARK.json`` command);
``PYTHONPATH=src python -m benchmarks.e2e --seed 7`` runs the whole sheet.
"""
