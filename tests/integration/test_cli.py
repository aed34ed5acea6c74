"""The audit, backup and serve CLIs' exit contracts, through their ``main``.

All three promise ``2`` for "could not complete" — an out-of-range argument is
refused by the parser before any work, never a traceback or a vacuous
success — and ``python -m repro.backup restore`` reports a failed restore
(no usable checkpoint, or a ``--to-lsn`` past the last commit) as ``failed``
with its error in either output mode, exiting ``1``.
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


@pytest.mark.parametrize("as_json", [False, True])
def test_a_restore_past_the_last_commit_fails_and_names_it(capsys, as_json):
    argv = ["restore", "--to-lsn", "999999", *SMALL]
    assert backup.main(argv + ["--json"] * as_json) == 1
    out = capsys.readouterr().out
    if as_json:
        report = json.loads(out)
        assert report["status"] == "failed"
        assert f"last commit lsn {report['last_commit_lsn']}" in report["error"]
        assert "restored_from_checkpoint" not in report
    else:
        assert "restore failed: --to-lsn 999999 is past the last commit lsn" in out
        assert "verified" not in out


def test_a_restore_to_the_last_commit_is_verified(capsys):
    assert backup.main(["list", "--json", *SMALL]) == 0
    last = json.loads(capsys.readouterr().out)["last_commit_lsn"]
    assert backup.main(["restore", "--to-lsn", str(last), "--json", *SMALL]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["status"], report["to_lsn"]) == ("verified", last)


@pytest.mark.parametrize(
    "main, argv",
    [
        (audit.main, ["--tuples", "0"]),
        (audit.main, ["--fanout", "1"]),
        (audit.main, ["--ops", "-3"]),
        (audit.main, ["--crash-after", "-3"]),
        (audit.main, ["--crash-op", "write", "--crash-after", "-1"]),
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
        "audit-crash-after",
        "audit-crash-op-crash-after",
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
