"""Tests for the concurrency & invariant analyzer (repro.analysis).

Five layers of evidence:

- **meta-tests** — every checker fires on a fixture snippet seeded with
  its violation, and stays silent on the disciplined version of the
  same code (no false positives);
- **real-source mutations** — a scratch copy of a *real* module with
  the one edit each checker exists to catch fires exactly that checker,
  and the pristine file is silent (DESIGN.md section 10 says why no
  runtime test can catch these edits);
- **retired checkers** — each edit a retired checker existed to catch,
  applied to a copy of the package, fails the runtime test that
  replaced the checker;
- **escape hatches** — inline suppressions and ``# holds:`` /
  coarse-lock annotations behave as documented;
- **runtime layer** — the lock monitor catches a deliberately inverted
  lock pair acquired by real threads (no deadlock required), flags
  over-threshold holds, and instruments the live serving objects.

Plus the enforcement test CI relies on: the real checkers over the real
``src/repro`` tree produce zero findings.
"""

import json
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from lock_monitor import LockMonitor, LockOrderError
from repro.analysis import Linter
from repro.analysis.__main__ import main as analysis_main
from repro.analysis.checks import (
    AtomicWriteChecker,
    DtypeChecker,
    GuardedByChecker,
    LockDisciplineChecker,
    ObsDisciplineChecker,
    ScratchPrivacyChecker,
    SilentExceptChecker,
    ThreadDisciplineChecker,
    WallClockChecker,
    all_checkers,
)
from repro.analysis.checks.lock_discipline import EntryLockRule
from repro.analysis.linter import SourceModule

SRC_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"


def run_checker(checker, source: str, rel_path: str = "fixture/mod.py"):
    module = SourceModule(source, rel_path)
    return [f for f in checker.check(module) if not module.suppressed(f)]


# ---------------------------------------------------------------------------
# guarded-by
# ---------------------------------------------------------------------------
class TestGuardedByChecker:
    BAD = """
import threading

class Box:
    def __init__(self):
        self._lock = threading.Lock()
        self.count = 0  # guarded-by: _lock
        self.items = []  # guarded-by: _lock
        self.table = {}  # guarded-by: _lock

    def bump(self):
        self.count += 1

    def push(self):
        self.items.append(1)

    def index(self):
        self.table["k"] = 1

    def wipe(self):
        del self.table
"""

    def test_every_unguarded_mutation_fires(self):
        findings = run_checker(GuardedByChecker(), self.BAD)
        assert len(findings) == 4
        assert {f.symbol for f in findings} == {
            "Box.bump", "Box.push", "Box.index", "Box.wipe",
        }
        assert all(f.checker == "guarded-by" for f in findings)

    def test_clean_class_is_silent(self):
        good = """
import threading

class Box:
    def __init__(self):
        self._lock = threading.Lock()
        self.count = 0  # guarded-by: _lock
        self.items = []  # guarded-by: _lock

    def bump(self):
        with self._lock:
            self.count += 1
            self.items.append(1)

    def read(self):
        with self._lock:
            return self.count
"""
        assert run_checker(GuardedByChecker(), good) == []

    def test_unguarded_read_fires(self):
        source = """
import threading

class Box:
    def __init__(self):
        self._lock = threading.Lock()
        self.count = 0  # guarded-by: _lock

    def peek(self):
        return self.count

    def describe(self):
        return f"count={self.count}"
"""
        findings = run_checker(GuardedByChecker(), source)
        assert len(findings) == 2
        assert {f.symbol for f in findings} == {"Box.peek", "Box.describe"}
        assert all("read without holding" in f.message for f in findings)

    def test_mutation_access_is_not_double_reported_as_read(self):
        # `self.items.append(...)` and `self.table[k] = ...` both *load*
        # the guarded attribute on the way to mutating it; each access
        # must produce exactly one (mutation) finding.  The BAD fixture
        # counts of test_every_unguarded_mutation_fires cover the
        # unguarded side; this covers the in-lock side staying silent.
        source = """
import threading

class Box:
    def __init__(self):
        self._lock = threading.Lock()
        self.items = []  # guarded-by: _lock
        self.table = {}  # guarded-by: _lock

    def push(self):
        with self._lock:
            self.items.append(1)
            self.table["k"] = len(self.items)
"""
        assert run_checker(GuardedByChecker(), source) == []

    def test_read_respects_locked_suffix_and_holds_comment(self):
        source = """
import threading

class Box:
    def __init__(self):
        self._lock = threading.Lock()
        self.count = 0  # guarded-by: _lock

    def _peek_locked(self):
        return self.count

    def peek_for_caller(self):  # holds: _lock
        return self.count
"""
        assert run_checker(GuardedByChecker(), source) == []

    def test_condition_alias_counts_as_holding_the_lock(self):
        source = """
import threading

class Q:
    def __init__(self):
        self._mutex = threading.Lock()
        self._nonempty = threading.Condition(self._mutex)
        self.jobs = []  # guarded-by: _mutex

    def put(self, job):
        with self._nonempty:
            self.jobs.append(job)
"""
        assert run_checker(GuardedByChecker(), source) == []

    def test_class_registry_declares_fields(self):
        source = """
import threading

class R:
    _guarded_by_ = {"total": "_lock"}

    def __init__(self):
        self._lock = threading.Lock()
        self.total = 0

    def bump(self):
        self.total += 1
"""
        findings = run_checker(GuardedByChecker(), source)
        assert len(findings) == 1 and findings[0].symbol == "R.bump"

    def test_locked_suffix_and_holds_comment_are_exempt(self):
        source = """
import threading

class S:
    def __init__(self):
        self._lock = threading.Lock()
        self.n = 0  # guarded-by: _lock

    def _bump_locked(self):
        self.n += 1

    def bump_for_caller(self):  # holds: _lock
        self.n += 1
"""
        assert run_checker(GuardedByChecker(), source) == []

    def test_init_is_exempt(self):
        source = """
import threading

class T:
    def __init__(self):
        self._lock = threading.Lock()
        self.n = 0  # guarded-by: _lock
        self.n = 1  # re-assign during construction: fine
"""
        assert run_checker(GuardedByChecker(), source) == []


# ---------------------------------------------------------------------------
# lock-discipline
# ---------------------------------------------------------------------------
class TestLockDisciplineChecker:
    RULES = (EntryLockRule("Model", "_infer_lock", ("predict_a", "predict_b")),)

    def checker(self):
        return LockDisciplineChecker(entry_rules=self.RULES)

    def test_entry_point_without_lock_fires(self):
        source = """
import threading

class Model:
    def __init__(self):
        self._infer_lock = threading.RLock()

    def predict_a(self, x):
        return x + 1
"""
        findings = run_checker(self.checker(), source)
        assert len(findings) == 1 and findings[0].symbol == "Model.predict_a"

    def test_lexical_lock_and_delegation_pass(self):
        source = """
import threading

class Model:
    def __init__(self):
        self._infer_lock = threading.RLock()

    def predict_a(self, x):
        with self._infer_lock:
            return x + 1

    def predict_b(self, x):
        return self.predict_a(x)
"""
        assert run_checker(self.checker(), source) == []

    def test_blocking_calls_under_mutex_fire(self):
        source = """
import threading
import time

class Svc:
    def __init__(self):
        self._mutex = threading.Lock()
        self._worker = None

    def slow(self, model, items):
        with self._mutex:
            time.sleep(0.5)
            self._worker.join()
            model.predict_join_orders(items)
"""
        findings = run_checker(self.checker(), source)
        messages = " | ".join(f.message for f in findings)
        assert len(findings) == 3
        assert "time.sleep" in messages
        assert "join()" in messages
        assert "predict_join_orders()" in messages

    def test_foreign_wait_under_mutex_fires_but_condition_wait_passes(self):
        source = """
import threading

class W:
    def __init__(self):
        self._mutex = threading.Lock()
        self._ready = threading.Condition(self._mutex)
        self._event = threading.Event()

    def good(self):
        with self._ready:
            self._ready.wait()

    def bad(self):
        with self._mutex:
            self._event.wait()
"""
        findings = run_checker(self.checker(), source)
        assert len(findings) == 1 and findings[0].symbol == "W.bad"

    def test_coarse_lock_opts_out_of_blocking_rule(self):
        source = """
import threading

class Round:
    def __init__(self):
        self._round_lock = threading.Lock()  # analysis: coarse-lock

    def run(self, model, items):
        with self._round_lock:
            model.predict_join_orders(items)
"""
        assert run_checker(self.checker(), source) == []


# ---------------------------------------------------------------------------
# hygiene checkers
# ---------------------------------------------------------------------------
class TestHygieneCheckers:
    def test_raw_savez_fires_and_serializer_module_is_exempt(self):
        source = """
import numpy as np

def dump(path, arrays):
    np.savez(path, **arrays)
"""
        assert len(run_checker(AtomicWriteChecker(), source, "pkg/core/io.py")) == 1
        assert run_checker(AtomicWriteChecker(), source, "pkg/nn/serialize.py") == []

    def test_thread_without_explicit_daemon_fires(self):
        bad = """
import threading

def go():
    threading.Thread(target=print).start()
"""
        good = """
import threading

def go():
    threading.Thread(target=print, daemon=True).start()
"""
        assert len(run_checker(ThreadDisciplineChecker(), bad)) == 1
        assert run_checker(ThreadDisciplineChecker(), good) == []

    def test_silent_except_fires_and_handled_except_passes(self):
        bad = """
def f():
    try:
        g()
    except Exception:
        pass
"""
        good = """
def f(log):
    try:
        g()
    except Exception as error:
        log.append(error)
"""
        assert len(run_checker(SilentExceptChecker(), bad)) == 1
        assert run_checker(SilentExceptChecker(), good) == []

    def test_wall_clock_fires_and_monotonic_passes(self):
        bad = """
import time

def span():
    return time.time()
"""
        good = """
import time

def span():
    return time.monotonic() or time.perf_counter()
"""
        assert len(run_checker(WallClockChecker(), bad)) == 1
        assert run_checker(WallClockChecker(), good) == []

    def test_module_and_class_scoped_scratch_fire(self):
        bad = """
from repro import nn

ARENA = nn.ScratchArena()

class Decoder:
    scratch = nn.ScratchArena()
"""
        findings = run_checker(ScratchPrivacyChecker(), bad)
        assert len(findings) == 2
        assert "<module>" in findings[0].message and "ScratchArena" in findings[0].message
        assert "class Decoder" in findings[1].message and "ScratchArena" in findings[1].message

    def test_owner_scoped_scratch_passes(self):
        good = """
from repro import nn

class Session:
    def __init__(self):
        self.scratch = nn.ScratchArena()

def decode(memory):
    scratch = nn.ScratchArena()
    return scratch
"""
        assert run_checker(ScratchPrivacyChecker(), good) == []


# ---------------------------------------------------------------------------
# obs-discipline
# ---------------------------------------------------------------------------
class TestObsDisciplineChecker:
    def test_context_manager_span_passes(self):
        good = """
def serve(tracer, tid):
    with tracer.span(tid, "decode") as span:
        span.set("queries", 3)
        return work()
"""
        assert run_checker(ObsDisciplineChecker(), good) == []

    def test_recording_under_own_lock_fires(self):
        bad = """
import threading

class Service:
    def __init__(self, telemetry):
        self._mutex = threading.Lock()
        self.telemetry = telemetry
        self.completed = None

    def done(self, latency):
        with self._mutex:
            self.completed.inc()
            self.latency.observe(latency)
            self.batch.update_max(4)
            self.telemetry.slo.record("tenant", latency)
"""
        findings = run_checker(ObsDisciplineChecker(), bad)
        assert len(findings) == 4
        assert all(f.checker == "obs-discipline" for f in findings)
        assert all("self._mutex" in f.message for f in findings)
        assert {f.symbol for f in findings} == {"Service.done"}

    def test_recording_after_lock_release_passes(self):
        good = """
import threading

class Service:
    def __init__(self):
        self._mutex = threading.Lock()
        self.count = 0  # guarded-by: _mutex

    def done(self, latency):
        with self._mutex:
            self.count += 1
        self.completed.inc()
        self.latency.observe(latency)
"""
        assert run_checker(ObsDisciplineChecker(), good) == []

    def test_stats_note_under_own_lock_fires(self):
        # ServiceStats writers wrap inc()/observe(): a note_* reached
        # through a .stats handle records, however deep the owner chain.
        source = """
import threading

class Round:
    def __init__(self, service):
        self._lock = threading.Lock()
        self.service = service
        self.index = 0  # guarded-by: _lock

    def verdict(self, accepted):
        with self._lock:
            self.index += 1
            self.service.stats.note_gate("accept")
            self.notes.note_gate("accept")
        self.service.stats.note_gate("reject")
"""
        findings = run_checker(ObsDisciplineChecker(), source)
        assert len(findings) == 1
        assert "self.service.stats.note_gate()" in findings[0].message
        assert findings[0].symbol == "Round.verdict"

    def test_generic_record_and_set_do_not_fire(self):
        # .record on a non-telemetry receiver and .set on anything are
        # too generic to match; only slo/tracer record sites count.
        good = """
import threading

class Recorder:
    def __init__(self):
        self._lock = threading.Lock()

    def note(self, value):
        with self._lock:
            self.journal.record(value)
            self.flags.set(value)
"""
        assert run_checker(ObsDisciplineChecker(), good) == []

    def test_suppression_silences(self):
        source = """
import threading

class Service:
    def __init__(self):
        self._mutex = threading.Lock()

    def done(self):
        with self._mutex:
            self.completed.inc()  # analysis: ignore[obs-discipline]
"""
        assert run_checker(ObsDisciplineChecker(), source) == []


# ---------------------------------------------------------------------------
# dtype-lattice
# ---------------------------------------------------------------------------
class TestSeededDtypeCreep:
    BAD = """
import numpy as np

def half(x):
    return x.astype(np.float32)

def mask(n):
    return np.zeros(n, dtype="float16")
"""

    def test_non_canonical_dtypes_fire_in_numeric_scope(self):
        findings = run_checker(DtypeChecker(), self.BAD, "src/repro/nn/fix.py")
        assert len(findings) == 2
        assert all(f.checker == "dtype-lattice" for f in findings)
        joined = " | ".join(f.message for f in findings)
        assert "float32" in joined and "float16" in joined

    def test_canonical_dtypes_are_silent(self):
        good = """
import numpy as np

def ok(x, n):
    return x.astype(np.float64) + np.zeros(n, dtype=np.int64) + np.ones(n, dtype=bool)
"""
        assert run_checker(DtypeChecker(), good, "src/repro/core/fix.py") == []

    def test_out_of_scope_file_is_ignored(self):
        # Tools/tests may use narrow dtypes freely; the canonical-dtype
        # rule binds only the numeric core.
        assert run_checker(DtypeChecker(), self.BAD, "src/repro/tools/fix.py") == []


# ---------------------------------------------------------------------------
# Real-source mutations — every checker fires on the real tree
# ---------------------------------------------------------------------------
# (checker, file under src/repro, anchor, replacement): the one edit each
# checker exists to catch, applied to a scratch copy of the real module.
MUTATIONS = [
    ("guarded-by", "serve/service.py",
     "        with self._mutex:\n            self.session = new_session\n",
     "        if True:\n            self.session = new_session\n"),
    ("lock-discipline", "core/model.py",
     '(linear scale), preorder."""\n        with self._infer_lock:\n'
     "            with nn.no_grad():\n                _, log_costs,",
     '(linear scale), preorder."""\n        if True:\n'
     "            with nn.no_grad():\n                _, log_costs,"),
    ("atomic-write", "core/checkpoint.py",
     "    return atomic_savez(path, arrays)\n",
     "    path = resolve_npz_path(path)\n    np.savez(path, **arrays)\n    return path\n"),
    ("thread-discipline", "serve/service.py",
     '                name=f"optimizer-serve-{self.db_name}",\n                daemon=True,\n',
     '                name=f"optimizer-serve-{self.db_name}",\n'),
    ("silent-except", "serve/adaptation.py",
     "                self.service.stats.note_adaptation_failure()\n                settled = False\n",
     "                pass\n"),
    ("wall-clock", "serve/stats.py", "time.perf_counter()", "time.time()"),
    ("scratch-privacy", "core/model.py",
     "class InferenceSession:", "_SESSION_SCRATCH = nn.ScratchArena()\n\n\nclass InferenceSession:"),
    ("obs-discipline", "serve/stats.py",
     "            self._last_done_at = now\n        self._completed.inc()\n"
     "        self._latency.observe(latency)\n",
     "            self._last_done_at = now\n            self._completed.inc()\n"
     "            self._latency.observe(latency)\n"),
    ("dtype-lattice", "nn/positional.py",
     "out = np.zeros(dim, dtype=np.float64)", "out = np.zeros(dim, dtype=np.float32)"),
]


class TestRealSourceMutations:
    def mutate(self, rel_path: str, old: str, new: str) -> SourceModule:
        text = (SRC_ROOT.parent.parent / rel_path).read_text()
        assert old in text, f"mutation anchor vanished from {rel_path}: {old!r}"
        return SourceModule(text.replace(old, new), rel_path)

    @pytest.mark.parametrize(
        "checker, path, old, new", MUTATIONS, ids=[row[0] for row in MUTATIONS]
    )
    def test_mutated_real_module_fires_exactly_its_checker(self, checker, path, old, new):
        rel_path = f"src/repro/{path}"
        (own,) = [c for c in all_checkers() if c.name == checker]
        assert own.check(self.mutate(rel_path, old, old)) == []  # the pristine twin
        fired = {finding.checker for finding in Linter().run_module(self.mutate(rel_path, old, new))}
        assert fired == {checker}

    def test_every_registered_checker_has_a_mutation_row(self):
        assert sorted(row[0] for row in MUTATIONS) == sorted(c.name for c in all_checkers())


# ---------------------------------------------------------------------------
# Retired checkers — each edit a runtime test now catches
# ---------------------------------------------------------------------------
# (retired checker, file under src/repro, anchor, replacement, the test in
# tests/ that must fail on a copy of the package carrying the edit).
TAPE_TEST = "test_tape_boundary.py::TestInferenceRecordsNoTape::test_entry_point_records_no_tape"
TRAINING_RULE_TEST = (
    "test_tape_boundary.py::TestTrainingRule::"
    "test_one_step_reaches_every_st_parameter_and_no_featurizer_parameter"
)
RETIRED = [
    # An inference entry point that records tape.
    ("grad-mode", "core/model.py",
     "            with nn.no_grad():\n                _, log_costs,",
     "            if True:\n                _, log_costs,",
     f"{TAPE_TEST}[predict_costs]"),
    # A raw kernel on the tape path: crashes on a Tensor.
    ("raw-kernel", "nn/layers.py", "x = F.relu(x)", "x = F.kernels.relu(x)", TRAINING_RULE_TEST),
    # A raw kernel that runs: the layer trains on, its weight gets no gradient.
    ("raw-kernel", "core/trans_jo.py",
     "else self.pointer_proj(memory)",
     "else nn.Tensor(F.kernels.linear(F.raw(memory), self.pointer_proj.weight.data))",
     TRAINING_RULE_TEST),
    # The (F) encoders run with the tape on.
    ("grad-mode", "core/model.py",
     "            with nn.no_grad():\n                encoded = featurizer.encode_filter",
     "            if True:\n                encoded = featurizer.encode_filter",
     f"{TAPE_TEST}[encode_query]"),
]


class TestRetiredCheckers:
    @pytest.mark.parametrize(
        "checker, path, old, new, test_id", RETIRED,
        ids=[f"{i}-{row[0]}" for i, row in enumerate(RETIRED)],
    )
    def test_replacement_test_fails_on_the_mutated_package(
        self, checker, path, old, new, test_id, tmp_path
    ):
        package = tmp_path / "repro"
        shutil.copytree(SRC_ROOT, package, ignore=shutil.ignore_patterns("__pycache__"))
        target = package / path
        text = target.read_text()
        assert text.count(old) == 1, f"mutation anchor not unique in {path}: {old!r}"
        target.write_text(text.replace(old, new))
        # Only the copy is importable: a run on the real package would pass.
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             str(Path(__file__).parent / test_id)],
            cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(tmp_path)},
            capture_output=True, text=True, timeout=300,
        )
        assert run.returncode == 1 and "1 failed" in run.stdout, run.stdout + run.stderr

    def test_retired_checkers_are_not_registered(self):
        assert not {row[0] for row in RETIRED} & {c.name for c in all_checkers()}


# ---------------------------------------------------------------------------
# inline suppressions
# ---------------------------------------------------------------------------
class TestEscapeHatches:
    BAD_LINE = """
import time

def span():
    return time.time()  # analysis: ignore[wall-clock] — epoch stamp, not latency
"""

    def test_inline_suppression_silences_named_checker(self):
        assert run_checker(WallClockChecker(), self.BAD_LINE) == []

    def test_bare_suppression_silences_everything(self):
        source = self.BAD_LINE.replace("ignore[wall-clock]", "ignore")
        assert run_checker(WallClockChecker(), source) == []

    def test_suppression_for_other_checker_does_not_silence(self):
        source = self.BAD_LINE.replace("wall-clock", "guarded-by")
        assert len(run_checker(WallClockChecker(), source)) == 1


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
class TestCLI:
    BAD_FILE = "import time\n\ndef f():\n    return time.time()\n"

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("import time\n\ndef f():\n    return time.monotonic()\n")
        assert analysis_main([str(tmp_path), "--fail-on-findings"]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_findings_fail_only_with_flag(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(self.BAD_FILE)
        assert analysis_main([str(tmp_path)]) == 0
        assert analysis_main([str(tmp_path), "--fail-on-findings"]) == 1
        assert "[wall-clock]" in capsys.readouterr().out

    def test_json_output_is_machine_readable(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(self.BAD_FILE)
        assert analysis_main([str(tmp_path), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 1
        (finding,) = payload["findings"]
        assert finding["checker"] == "wall-clock" and finding["line"] == 4

    def test_unparseable_file_is_a_finding_not_a_crash(self, tmp_path):
        (tmp_path / "broken.py").write_text("def f(:\n")
        assert analysis_main([str(tmp_path), "--fail-on-findings"]) == 1

    def test_list_checkers_names_every_registered_checker(self, capsys):
        assert analysis_main(["--list-checkers"]) == 0
        out = capsys.readouterr().out
        for checker in all_checkers():
            assert checker.name in out

    def test_only_restricts_to_named_checkers(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(self.BAD_FILE)
        # wall-clock violation is invisible to the dtype checker...
        assert analysis_main(
            [str(tmp_path), "--fail-on-findings", "--only", "dtype-lattice"]
        ) == 0
        # ...and caught when its own checker is selected.
        assert analysis_main(
            [str(tmp_path), "--fail-on-findings",
             "--only", "wall-clock", "--only", "dtype-lattice"]
        ) == 1
        assert "[wall-clock]" in capsys.readouterr().out

    def test_unknown_only_name_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            analysis_main([str(tmp_path), "--only", "no-such-checker"])
        assert excinfo.value.code == 2
        assert "unknown checker" in capsys.readouterr().err

    def test_json_reports_per_checker_counts_and_wall_time(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(self.BAD_FILE)
        assert analysis_main([str(tmp_path), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        stats = payload["checkers"]
        assert stats["wall-clock"]["findings"] == 1
        assert stats["dtype-lattice"]["findings"] == 0
        assert all(
            entry["seconds"] >= 0 and isinstance(entry["findings"], int)
            for entry in stats.values()
        )

    def test_baseline_flags_are_gone(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            analysis_main([str(tmp_path), "--no-baseline"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the enforcement test: the real tree is clean
# ---------------------------------------------------------------------------
class TestRepoIsClean:
    def test_src_repro_has_zero_findings(self):
        findings = Linter().run_paths([SRC_ROOT], root=SRC_ROOT.parent.parent)
        assert findings == [], "\n" + "\n".join(f.format() for f in findings)

    def test_registry_is_exactly_the_nine_checkers(self):
        # CI runs the registry once; a checker dropped from it fails here.
        assert {checker.name for checker in all_checkers()} == {
            "guarded-by", "lock-discipline", "atomic-write", "thread-discipline",
            "silent-except", "wall-clock", "scratch-privacy", "obs-discipline", "dtype-lattice",
        }


# ---------------------------------------------------------------------------
# runtime lock monitor
# ---------------------------------------------------------------------------
@pytest.mark.threaded
class TestLockMonitor:
    def test_inverted_pair_across_threads_is_caught_without_deadlock(self):
        """Thread 1 takes A→B, thread 2 takes B→A — sequenced so no
        deadlock ever occurs, yet the cycle is detected."""
        monitor = LockMonitor()
        lock_a = monitor.lock("A")
        lock_b = monitor.lock("B")
        first_done = threading.Event()

        def one():
            with lock_a:
                with lock_b:
                    pass
            first_done.set()

        def two():
            first_done.wait(5.0)
            with lock_b:
                with lock_a:
                    pass

        threads = [threading.Thread(target=one), threading.Thread(target=two)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        with pytest.raises(LockOrderError, match="lock-order inversion"):
            monitor.check()

    def test_consistent_order_is_clean(self):
        monitor = LockMonitor()
        lock_a = monitor.lock("A")
        lock_b = monitor.lock("B")

        def worker():
            for _ in range(50):
                with lock_a:
                    with lock_b:
                        pass

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        monitor.assert_clean()
        assert monitor.edges() == {"A": {"B"}}

    def test_raise_on_cycle_raises_in_the_acquiring_thread(self):
        monitor = LockMonitor(raise_on_cycle=True)
        lock_a = monitor.lock("A")
        lock_b = monitor.lock("B")
        with lock_a:
            with lock_b:
                pass
        with lock_b:
            with pytest.raises(LockOrderError):
                lock_a.acquire()
        # The failed acquire backed itself out: the lock is free.
        assert lock_a.acquire(timeout=1.0)
        lock_a.release()

    def test_long_hold_is_flagged(self):
        monitor = LockMonitor(max_hold_s=0.01)
        lock = monitor.lock("slow")
        with lock:
            time.sleep(0.05)
        violations = monitor.check()
        assert len(violations) == 1
        assert violations[0].kind == "hold" and violations[0].lock == "slow"
        with pytest.raises(AssertionError, match="lock timing"):
            monitor.assert_clean()

    def test_reentrant_rlock_records_no_self_edge(self):
        monitor = LockMonitor()
        lock = monitor.rlock("R")
        with lock:
            with lock:
                pass
        monitor.assert_clean()
        assert monitor.edges() == {}

    def test_condition_over_traced_lock_keeps_held_set_accurate(self):
        """Condition.wait releases the traced lock; an acquisition during
        the wait must not record a (held → acquired) edge."""
        monitor = LockMonitor()
        traced = monitor.lock("cond-lock")
        other = monitor.lock("other")
        condition = threading.Condition(traced)
        started = threading.Event()

        def waiter():
            with condition:
                started.set()
                condition.wait(5.0)

        def pinger():
            started.wait(5.0)
            # While the waiter sleeps it must NOT count as holding the
            # traced lock on *this* thread either.
            with other:
                pass
            with condition:
                condition.notify_all()

        threads = [threading.Thread(target=waiter), threading.Thread(target=pinger)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        monitor.assert_clean()
        assert monitor.edges() == {}
