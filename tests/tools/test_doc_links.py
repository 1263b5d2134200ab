"""The documentation link checker: unit behaviour + the repo must pass it."""

from __future__ import annotations

import importlib.util
import pathlib
import subprocess
import sys

SPEC = importlib.util.spec_from_file_location(
    "check_doc_links",
    pathlib.Path(__file__).resolve().parents[2] / "tools" / "check_doc_links.py",
)
check_doc_links = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(check_doc_links)


class TestLinkExtraction:
    def test_markdown_links_found(self, tmp_path):
        page = tmp_path / "page.md"
        page.write_text(
            "See [the guide](guide.md#setup) and [api](https://example.org) "
            "and [anchor](#local).\n"
        )
        targets = list(check_doc_links.link_targets(page))
        assert targets == [(1, "link", "guide.md#setup")]

    def test_code_references_found(self, tmp_path):
        page = tmp_path / "page.md"
        page.write_text("Run `benchmarks/bench_server_throughput.py` now.\n")
        assert list(check_doc_links.link_targets(page)) == [
            (1, "reference", "benchmarks/bench_server_throughput.py")
        ]

    def test_fenced_code_is_skipped(self, tmp_path):
        page = tmp_path / "page.md"
        page.write_text("```\n[not a link](missing.md)\n```\n[real](real.md)\n")
        assert list(check_doc_links.link_targets(page)) == [(4, "link", "real.md")]

    def test_python_mentions_found(self, tmp_path):
        module = tmp_path / "module.py"
        module.write_text(
            '"""See DESIGN.md, substitution table, and docs/server.md."""\n'
            "digest = 'archive.md5'  # pasted into EXPERIMENTS.md\n"
        )
        assert list(check_doc_links.python_mentions(module)) == [
            (1, "mention", "DESIGN.md"),
            (1, "mention", "docs/server.md"),
            (2, "mention", "EXPERIMENTS.md"),
        ]

    def test_python_sources_of_every_documented_tree_are_scanned(self):
        trees = {path.relative_to(check_doc_links.REPO_ROOT).parts[0]
                 for path in check_doc_links.python_files()}
        assert trees == {"src", "benchmarks", "examples"}

    def test_fragment_stripped_on_resolve(self, tmp_path):
        page = tmp_path / "page.md"
        page.write_text("x")
        (tmp_path / "guide.md").write_text("y")
        assert check_doc_links.resolve(page, "guide.md#section").exists()


class TestRepositoryDocs:
    def test_all_repo_doc_links_resolve(self):
        """The committed documentation has no broken intra-repo links."""
        result = subprocess.run(
            [sys.executable, str(pathlib.Path(check_doc_links.__file__))],
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stdout + result.stderr
