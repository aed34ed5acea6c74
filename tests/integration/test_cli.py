"""The audit, backup and serve CLIs' exit contracts, through their ``main``.

All three promise ``2`` for "could not complete" — an out-of-range argument is
refused by the parser before any work, never a traceback or a vacuous
success — and ``python -m repro.backup restore`` reports a failed restore
as ``failed`` with its error in either output mode, exiting ``1``.
"""

from __future__ import annotations

import json

import pytest

from repro import audit, backup
from repro.serve import __main__ as serve

SMALL = ["--tuples", "40", "--ops", "4"]


@pytest.mark.parametrize("as_json", [False, True])
def test_a_failed_restore_prints_the_error_and_exits_1(capsys, as_json):
    argv = ["restore", "--to-lsn", "-5", *SMALL]
    assert backup.main(argv + ["--json"] * as_json) == 1
    out = capsys.readouterr().out
    if as_json:
        report = json.loads(out)
        assert report["status"] == "failed"
        assert "no usable checkpoint" in report["error"]
    else:
        assert "restore failed: no usable checkpoint" in out


@pytest.mark.parametrize(
    "main, argv",
    [
        (audit.main, ["--tuples", "0"]),
        (audit.main, ["--fanout", "1"]),
        (audit.main, ["--ops", "-3"]),
        (backup.main, ["create", "--tuples", "0"]),
        (backup.main, ["create", "--fanout", "1"]),
        (backup.main, ["create", "--ops", "-2"]),
        (backup.main, ["create", "--segment-bytes", "0"]),
        (serve.main, ["--smoke", "--threads", "0"]),
        (serve.main, ["--health", "--threads", "0"]),
        (serve.main, ["--smoke", "--queries", "0"]),
        (serve.main, ["--smoke", "--queries", "-1"]),
    ],
    ids=[
        "audit-tuples",
        "audit-fanout",
        "audit-ops",
        "backup-tuples",
        "backup-fanout",
        "backup-ops",
        "backup-segment-bytes",
        "serve-smoke-threads",
        "serve-health-threads",
        "serve-smoke-queries",
        "serve-smoke-negative-queries",
    ],
)
def test_out_of_range_arguments_exit_2_before_any_work(capsys, main, argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert "must be >=" in captured.err
    assert captured.out == ""
