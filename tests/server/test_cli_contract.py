"""The CLI contract of the two serving entry points.

Both CLIs declare the transport / engine / observability / admission flags
through one option group; what the benchmark harness and the launcher
reach for (parser defaults, every removed flag staying removed) is pinned
here, and so is each CLI's flag table in the docs.
"""

from __future__ import annotations

import argparse
import pathlib
import re

import pytest

from repro.coordinator.__main__ import build_parser as coordinator_parser
from repro.ingest import IngestingIndex
from repro.obs.prometheus import parse_exposition
from repro.server.__main__ import build_parser as server_parser
from repro.server.__main__ import build_server
from repro.server.cli import add_serving_options

PARSERS = {
    "server": (server_parser, ["--snapshot", "s.json", "--wal", "w.jsonl"]),
    "coordinator": (coordinator_parser,
                    ["--snapshot", "s.json", "--shards", "P0=http://127.0.0.1:1"]),
}

DOCS = pathlib.Path(__file__).resolve().parents[2] / "docs"

#: Where each CLI's flag table lives: ``(page, heading above the table)``.
FLAG_TABLES = {
    "server": ("server.md", "### CLI reference"),
    "coordinator": ("cluster.md", "### Coordinator CLI"),
}

SHARED_FLAGS = [
    "--host", "--port", "--idle-timeout", "--workers",
    "--cache-capacity", "--default-deadline", "--actors", "--profile",
    "--max-queue-depth", "--faults", "--quiet",
]

#: Options that were deleted and must stay deleted: ``(CLI, argv tail)``.
REMOVED_FLAGS = [
    *[(cli, removed) for cli in sorted(PARSERS) for removed in (
        ["--transport", "threaded"], ["--cache-ttl", "5"], ["--cache-segmented"],
        ["--slow-query-ms", "5"], ["--client-rate", "1"], ["--client-burst", "2"],
    )],
    ("coordinator", ["--hedge-delay", "0.01"]),
]


@pytest.mark.parametrize("cli, removed", [
    pytest.param(cli, removed, id=f"{cli}{removed[0]}") for cli, removed in REMOVED_FLAGS])
def test_removed_flag_is_rejected(cli, removed, capsys):
    build, required = PARSERS[cli]
    with pytest.raises(SystemExit) as excinfo:
        build().parse_args(required + removed)
    assert excinfo.value.code == 2
    capsys.readouterr()  # argparse's usage message


@pytest.mark.parametrize("cli", sorted(PARSERS))
class TestSharedOptionGroup:
    def test_defaults_the_benchmark_harness_reads(self, cli):
        build, _ = PARSERS[cli]
        assert build().get_default("workers") == 4
        assert build().get_default("cache_capacity") == 1024

    def test_shared_flags_come_from_the_one_group(self, cli):
        build, _ = PARSERS[cli]
        group = argparse.ArgumentParser()
        add_serving_options(group)
        shared = {action.option_strings[0]: action for action in group._actions
                  if action.option_strings and action.option_strings[0] != "-h"}
        assert sorted(shared) == sorted(SHARED_FLAGS)
        declared = {action.option_strings[0]: action
                    for action in build()._actions if action.option_strings}
        for flag, action in shared.items():
            assert declared[flag].default == action.default
            assert declared[flag].help == action.help


def documented_flags(page: str, heading: str) -> set:
    """Every ``--flag`` in the first column of the table under ``heading``."""
    lines = (DOCS / page).read_text(encoding="utf-8").splitlines()
    rows = []
    for line in lines[lines.index(heading) + 1:]:
        if line.startswith("|"):
            rows.append(line)
        elif rows:
            break
    return {flag for row in rows
            for flag in re.findall(r"`(--[a-z][a-z-]*)`", row.split("|")[1])}


@pytest.mark.parametrize("cli", sorted(PARSERS))
def test_the_docs_flag_table_lists_exactly_the_parser_flags(cli):
    build, _ = PARSERS[cli]
    declared = {option for action in build()._actions
                for option in action.option_strings if option.startswith("--")}
    assert documented_flags(*FLAG_TABLES[cli]) == declared - {"--help"}


def test_transport_env_var_changes_nothing(make_base, tmp_path, monkeypatch):
    live = IngestingIndex(make_base(), tmp_path / "wal.jsonl")
    snapshot = tmp_path / "snapshot.json"
    live.checkpoint(snapshot)
    live.close()
    argv = ["--snapshot", str(snapshot), "--wal", str(tmp_path / "wal.jsonl"),
            "--port", "0", "--no-checkpoint-on-exit"]

    def served_series(environment_value):
        if environment_value is None:
            monkeypatch.delenv("REPRO_TRANSPORT", raising=False)
        else:
            monkeypatch.setenv("REPRO_TRANSPORT", environment_value)
        server, _ = build_server(argv)
        try:
            return type(server), set(parse_exposition(server.app.registry.render()))
        finally:
            server.close()

    unset_type, unset_series = served_series(None)
    threaded_type, threaded_series = served_series("threaded")
    assert threaded_type is unset_type
    assert threaded_series == unset_series
    # The event loop's own series: it is the transport that booted.
    assert "repro_loop_lag_seconds" in threaded_series
