"""Structural invariants of ``src/``: the "one of each" guards.

Each merge of two mechanisms into one left a guard that the second
mechanism does not come back.  They read the code of ``src/`` through
:func:`code_of`, which blanks comments and docstrings first, so a
sentence *about* a removed mechanism never trips a guard — only code
does.
"""

import ast
import io
import os
import re
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"


def code_of(path: Path) -> str:
    """The source of ``path`` with every comment and docstring replaced
    by spaces (line structure kept)."""
    source = path.read_text(encoding="utf-8")
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.add((first.lineno, first.col_offset))
    lines = source.splitlines(keepends=True)
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT or (
                token.type == tokenize.STRING and token.start in docstrings):
            (row, col), (end_row, end_col) = token.start, token.end
            for number in range(row, end_row + 1):
                line = lines[number - 1]
                start = col if number == row else 0
                stop = end_col if number == end_row else len(line.rstrip("\n"))
                lines[number - 1] = line[:start] + " " * (stop - start) + line[stop:]
    return "".join(lines)


def matches(pattern: str, *paths: Path) -> list[str]:
    """``file:line`` of every code line under ``paths`` (files, or
    directories searched for ``*.py``) that ``pattern`` matches."""
    hits = []
    for root in paths:
        for path in sorted(root.rglob("*.py")) if root.is_dir() else [root]:
            for number, line in enumerate(code_of(path).splitlines(), 1):
                if re.search(pattern, line):
                    hits.append(f"{path.relative_to(ROOT)}:{number}")
    return hits


class TestCodeOf:
    def test_comments_and_docstrings_are_blanked(self, tmp_path):
        path = tmp_path / "sample.py"
        path.write_text('"""hedge in a docstring."""\n'
                        "x = 1  # hedge in a comment\n"
                        "def f():\n"
                        "    '''hedge\n    over lines'''\n"
                        "    return 'hedge in code'\n")
        assert [n for n, line in enumerate(code_of(path).splitlines(), 1)
                if "hedge" in line] == [6]


class TestOneReadModel:
    def test_routes_never_scan_the_store(self):
        assert matches(r"store\.events\(",
                       SRC / "observatory" / "server.py") == []

    def test_no_request_hedging(self):
        assert matches(r"hedge", SRC) == []


class TestOneServerStack:
    def test_no_stdlib_http_server(self):
        assert matches(
            r"http\.server|ThreadingHTTPServer|BaseHTTPRequestHandler",
            SRC) == []

    def test_one_listening_socket_and_one_backoff(self):
        assert len(matches(r"asyncio\.start_server", SRC)) == 1
        backoffs = matches(r"\*\s*\(?\s*2\s*\*\*", SRC)
        assert [hit.partition(":")[0] for hit in backoffs] == [
            "src/repro/utils/backoff.py"]

    def test_one_response_head_parser(self):
        federation = (SRC / "observatory" / "federation.py").read_text(
            encoding="utf-8")
        assert "Connection: close" not in federation
        assert "_parse_response_head" not in federation

    def test_deleted_mirror_benchmark_stays_deleted(self):
        texts = [ROOT / "README.md", ROOT / "DESIGN.md",
                 *sorted((ROOT / "scripts").rglob("*")),
                 *sorted((ROOT / ".github").rglob("*"))]
        assert [str(path) for path in texts if path.is_file()
                and "bench_mirror" in path.read_text(encoding="utf-8")] == []


class TestNoArchiveTransport:
    """The archive mirror server, sync client and fault proxy left: no
    real collector serves their signed manifests, so nothing read
    through them."""

    def test_no_transport_package(self):
        assert not (SRC / "transport").exists()

    def test_no_transport_code(self):
        assert matches(r"repro\.transport|ArchiveMirror|FaultyProxy|"
                       r"ArchiveServer", SRC) == []

    def test_mirror_command_is_a_usage_error(self):
        run = subprocess.run(
            [sys.executable, "-m", "repro", "mirror", "serve", "X"],
            cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            capture_output=True, text=True, timeout=60)
        assert run.returncode == 2
        assert "Traceback" not in run.stderr
        errors = [line for line in run.stderr.splitlines()
                  if line.startswith("repro: error:")]
        assert len(errors) == 1
        assert "invalid choice: 'mirror'" in errors[0]


class TestNoSidecarIndex:
    """The on-disk ``.idx`` sidecar tier left: RIPE publishes none, so
    on real archives it never skipped a file; one stat per file checks
    the decode cache instead."""

    def test_no_index_module(self):
        assert not (SRC / "ris" / "index.py").exists()

    def test_no_sidecar_code(self):
        assert matches(r"load_index|write_index|reindex_archive|"
                       r"may_match_file|INDEX_SUFFIX|\.idx", SRC) == []

    def test_index_command_is_a_usage_error(self):
        run = subprocess.run(
            [sys.executable, "-m", "repro", "index", "X"],
            cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            capture_output=True, text=True, timeout=60)
        assert run.returncode == 2
        assert "Traceback" not in run.stderr
        errors = [line for line in run.stderr.splitlines()
                  if line.startswith("repro: error:")]
        assert len(errors) == 1
        assert "invalid choice: 'index'" in errors[0]


class TestOneZombieVerdict:
    def test_one_double_count_test(self):
        assert len(matches(r"is_stale\(", SRC / "core" / "detector.py")) == 1

    def test_batch_detector_is_not_a_state_replay(self):
        assert matches(r"StateReconstructor",
                       SRC / "core" / "detector.py") == []

    def test_one_interval_codec(self):
        assert matches(r"_interval_to_json|_interval_from_json", SRC) == []


class TestOneResurrectionVerdict:
    def test_no_second_rule_or_alert_sink(self):
        assert matches(r"schedule_tolerance|max_offset|"
                       r"scheduled_announcements|class \w+Sink", SRC) == []
        assert not (SRC / "realtime" / "sinks.py").exists()


def test_one_live_face():
    """The observatory ingest reads ``IntervalEvaluator`` verdicts
    directly: no second live face wraps the §3.1 core."""
    assert not (SRC / "realtime").exists()
    assert matches(r"StreamingDetector|ZombieAlert|repro\.realtime", SRC) == []


def test_one_query_path():
    """``observatory query`` and offline ``observatory forensics``
    answer through ``ObservatoryApp.respond``: the CLI reads no store
    directly, and no scan in ``src/`` filters on prefix or time (the
    listings filter their materialized rows instead)."""
    assert matches(r"\.events\(", SRC / "cli.py") == []
    filtered = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("events", "scan")
                    and {"prefix", "since", "until"}
                    & {keyword.arg for keyword in node.keywords}):
                filtered.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert filtered == []


def test_one_store_behind_the_fleet():
    """A shard is a filtered read of the one event store: the fleet
    writes nothing, opens the store readonly only, and neither pinned
    seqs nor the shard-store machinery (sidecars, re-tail loop, fleet
    fsck) come back."""
    fleet = SRC / "observatory" / "fleet.py"
    tree = ast.parse(fleet.read_text(encoding="utf-8"))
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
    assert [node.lineno for node in calls
            if isinstance(node.func, ast.Attribute)
            and node.func.attr == "append"] == []
    opens = [node for node in calls
             if isinstance(node.func, ast.Name)
             and node.func.id == "EventStore"]
    assert opens
    for node in opens:
        assert any(keyword.arg == "readonly"
                   and isinstance(keyword.value, ast.Constant)
                   and keyword.value.value is True
                   for keyword in node.keywords), node.lineno
    store = ast.parse((SRC / "observatory" / "store.py")
                      .read_text(encoding="utf-8"))
    event_store = next(node for node in ast.walk(store)
                       if isinstance(node, ast.ClassDef)
                       and node.name == "EventStore")
    append = next(node for node in event_store.body
                  if isinstance(node, ast.FunctionDef)
                  and node.name == "append")
    assert "seq" not in {argument.arg for argument in
                         append.args.args + append.args.kwonlyargs}
    assert matches(r"\b(fsck_fleet|fleet_shard_roots|sync_once|"
                   r"SIDECAR_NAME)\b", SRC) == []


class TestOneRecordSource:
    """Every updates file and bview is split into records by
    ``ResilientReader`` under one of three policies."""

    def test_one_header_decode_site(self):
        assert [hit.partition(":")[0] for hit in matches(
            r"(?<!def )\bdecode_mrt_header\(", SRC)] == [
            "src/repro/mrt/resilient.py"]

    def test_one_header_struct(self):
        assert [hit.partition(":")[0] for hit in matches(
            r"Struct\(\s*[\"']!IHHI[\"']", SRC)] == [
            "src/repro/mrt/bgp4mp.py"]

    def test_no_fourth_policy(self):
        assert matches(r"error_policy\s*:\s*Optional|policy is None",
                       SRC / "mrt", SRC / "ris") == []


class TestOneLiveEngine:
    """The supervisor is the server's one live-engine input, and the
    service tier's one-value settings are constants, not options."""

    #: Settings that became module constants; no call passes them.
    CONSTANTS = ("poll_interval", "queue_events", "heartbeat",
                 "batch_events", "drain_timeout", "write_buffer",
                 "deadline", "breaker_threshold", "breaker_open_seconds",
                 "heartbeat_timeout")

    def test_servers_take_no_ingest_or_archive(self):
        for path, name in (("server.py", "ObservatoryApp"),
                           ("asyncserver.py", "AsyncObservatoryServer")):
            tree = ast.parse((SRC / "observatory" / path)
                             .read_text(encoding="utf-8"))
            body = next(node for node in ast.walk(tree)
                        if isinstance(node, ast.ClassDef)
                        and node.name == name).body
            init = next(node for node in body
                        if isinstance(node, ast.FunctionDef)
                        and node.name == "__init__")
            arguments = {argument.arg for argument in
                         init.args.args + init.args.kwonlyargs}
            assert not {"ingest", "archive"} & arguments, name

    def test_no_call_passes_a_retired_setting(self):
        assert matches(r"\b(%s)=(?!=)" % "|".join(self.CONSTANTS),
                       SRC) == []


class TestPeriphery:
    """Every module earns its place: a module under ``src/repro`` stays
    only while another ``src/`` module (not its own package
    ``__init__``), ``bench/`` or ``benchmarks/`` imports it, or while
    :attr:`KEEP` names what needs it.  Tests and examples do not count."""

    #: Modules nothing else imports, each with the reason it stays.
    KEEP = {
        "repro.__main__": "the `python -m repro` entry point",
        "repro.ris.chaos": "the chaos CI job and the one seeded fault "
                           "model (ROADMAP item 15)",
        "repro.routeviews.archive": "the second ris.archive.Layout; "
                                    "removing it reshapes the bench's "
                                    "read path, its own decision",
    }

    #: Removed for want of a reader; they stay gone.
    GONE = ("dataplane", "core/wild.py", "beacons/service.py",
            "beacons/ipv4_clock.py", "analysis/suspects.py")

    @staticmethod
    def module_of(path: Path) -> str:
        parts = path.relative_to(SRC.parent).with_suffix("").parts
        return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)

    @staticmethod
    def imported(path: Path) -> set[str]:
        """Dotted names ``path`` imports: ``from a import b`` gives ``a``
        and ``a.b``.  ``src/`` imports absolutely, so a relative import
        credits no module and fails the rule rather than passing it."""
        names = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names.add(node.module)
                names.update(f"{node.module}.{alias.name}"
                             for alias in node.names)
        return names

    def importers(self) -> dict[str, set[str]]:
        """Module -> the files that import it, a package's re-exported
        names credited to the module they come from."""
        inits = {self.module_of(path): path
                 for path in SRC.rglob("__init__.py")}
        reexports = {}
        for package, path in inits.items():
            for name in self.imported(path):
                head, _, attr = name.rpartition(".")
                if head != package:
                    reexports[f"{package}.{attr}"] = name
        users: dict[str, set[str]] = {}
        files = [*SRC.rglob("*.py"), *(ROOT / "bench").rglob("*.py"),
                 *(ROOT / "benchmarks").rglob("*.py")]
        for path in files:
            for name in self.imported(path):
                while name in reexports:
                    name = reexports[name]
                for target in (name, name.rpartition(".")[0]):
                    users.setdefault(target, set()).add(
                        str(path.relative_to(ROOT)))
        return users

    def test_every_module_has_a_reader_or_a_reason(self):
        users = self.importers()
        unread = []
        for path in sorted(SRC.rglob("*.py")):
            if path.name == "__init__.py":
                continue
            module = self.module_of(path)
            own_init = str((path.parent / "__init__.py").relative_to(ROOT))
            readers = users.get(module, set()) - {own_init}
            if not readers and module not in self.KEEP:
                unread.append(module)
        assert unread == []

    def test_kept_modules_exist_and_are_unread(self):
        """A KEEP entry whose module gained a reader, or left, goes."""
        users = self.importers()
        for module in self.KEEP:
            path = SRC.parent / Path(*module.split("."))
            assert path.with_suffix(".py").exists(), module
            own_init = str((path.parent / "__init__.py").relative_to(ROOT))
            assert not users.get(module, set()) - {own_init}, module

    def test_removed_modules_stay_removed(self):
        assert [name for name in self.GONE if (SRC / name).exists()] == []
        assert matches(r"repro\.dataplane|core\.wild|beacons\.service|"
                       r"ipv4_clock|analysis\.suspects", SRC) == []


class TestNoUnusedImports:
    """Every module-level import of a ``src/`` module (package
    ``__init__`` re-exports aside) binds a name the module reads or
    lists in ``__all__``.  No linter runs on this repository; this is
    the one check that an import outlives its last reader."""

    @staticmethod
    def bound(tree: ast.Module):
        """``(line, name)`` of every import in the module body, or in a
        module-level ``if``/``try``; ``__future__`` imports bind nothing."""
        stack = list(tree.body)
        while stack:
            node = stack.pop(0)
            if isinstance(node, (ast.If, ast.Try)):
                stack += node.body + node.orelse + getattr(node, "finalbody", [])
                for handler in getattr(node, "handlers", []):
                    stack += handler.body
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    yield node.lineno, alias.asname or alias.name.split(".")[0]
            elif (isinstance(node, ast.ImportFrom)
                    and node.module != "__future__"):
                for alias in node.names:
                    yield node.lineno, alias.asname or alias.name

    @staticmethod
    def read(tree: ast.Module) -> set[str]:
        """Names the module loads, quoted annotations included."""
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                names.add(node.id)
            annotations = []
            if isinstance(node, ast.arg) and node.annotation:
                annotations.append(node.annotation)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and node.returns:
                annotations.append(node.returns)
            elif isinstance(node, ast.AnnAssign):
                annotations.append(node.annotation)
            for annotation in annotations:
                for part in ast.walk(annotation):
                    if isinstance(part, ast.Constant) and isinstance(part.value, str):
                        names.update(
                            name.id for name in
                            ast.walk(ast.parse(part.value, mode="eval"))
                            if isinstance(name, ast.Name))
        return names

    @staticmethod
    def exported(tree: ast.Module) -> set[str]:
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(target, ast.Name) and target.id == "__all__"
                    for target in node.targets):
                return {element.value for element in node.value.elts}
        return set()

    def test_every_import_is_read(self):
        unused = []
        for path in sorted(SRC.rglob("*.py")):
            if path.name == "__init__.py":
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            keep = self.read(tree) | self.exported(tree)
            unused += [f"{path.relative_to(ROOT)}:{line}: {name}"
                       for line, name in self.bound(tree) if name not in keep]
        assert unused == []

    def test_the_check_sees_an_unused_import(self):
        tree = ast.parse("import math\nfrom typing import Any, Optional\n"
                         "x: 'Optional[int]' = None\n")
        keep = self.read(tree) | self.exported(tree)
        assert [name for _, name in self.bound(tree) if name not in keep] \
            == ["math", "Any"]
