"""Byte-identical CLI reports against golden files.

``golden/cli_reports.json`` maps each argv (joined by spaces) to the exit
status and the exact stdout text produced by the implementation at commit
958f760, before its duplicated kernels (commuting-tuple walks, exact
elimination, power-basis substitution, polynomial division, preset lookup)
were merged.  The argvs are the preset commands of ``test_cli.py`` and
``test_acceptance.py``, each at ``--max-m`` 1-3 where the command takes a
depth, with and without ``--oracle``.  Any refactor must reproduce every
report exactly.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from stackyrr.cli import main

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "cli_reports.json").read_text(encoding="utf-8")
)
# ``golden/cli_help.json``: the --help text of the parser and of every
# subcommand at an 80-column terminal, as printed while the command rows
# were still dataclasses.
HELP = json.loads((Path(__file__).parent / "golden" / "cli_help.json").read_text(encoding="utf-8"))


@pytest.fixture(autouse=True)
def _default_caps(monkeypatch):
    monkeypatch.delenv("STACKYRR_TUPLE_CAP", raising=False)
    monkeypatch.delenv("STACKYRR_CONDUCTOR_CAP", raising=False)


@pytest.mark.parametrize("argv", sorted(GOLDEN))
def test_cli_report_matches_golden(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = main(argv.split())
    assert status == GOLDEN[argv]["status"]
    assert buf.getvalue() == GOLDEN[argv]["stdout"]


@pytest.mark.parametrize("argv", sorted(HELP))
def test_cli_help_matches_golden(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), pytest.raises(SystemExit) as exit_info:
        main(argv.split())
    assert exit_info.value.code == 0
    assert buf.getvalue() == HELP[argv]
