"""Tests for tools/mutants.py on a fabricated two-file package: no tier-1 run."""

import importlib.util
import sys
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location("mutants", Path(__file__).parent.parent / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutants)

PYTEST = (sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider", "tests")
Mutant = mutants.Mutant


@pytest.fixture
def package(tmp_path):
    """A checkout of two modules, ``src/pkg/add.py`` and ``src/pkg/neg.py``,
    and one test file; ``neg.py``'s ``unused`` is read by no test."""
    root = tmp_path / "checkout"
    (root / "src" / "pkg").mkdir(parents=True)
    (root / "tests").mkdir()
    (root / "src" / "pkg" / "__init__.py").write_text("")
    (root / "src" / "pkg" / "add.py").write_text("def add(a, b):\n    return a + b\n")
    (root / "src" / "pkg" / "neg.py").write_text("def neg(x):\n    return -x\n\n\ndef unused():\n    return 1\n")
    (root / "tests" / "test_pkg.py").write_text(
        "from pkg.add import add\nfrom pkg.neg import neg\n\n\n"
        "def test_add():\n    assert add(2, 3) == 5\n\n\n"
        "def test_neg():\n    assert neg(4) == -4\n"
    )
    return root


KILLED_ADD = Mutant("src/pkg/add.py", "a + b", "a - b", "add subtracts")
KILLED_NEG = Mutant("src/pkg/neg.py", "return -x", "return x", "neg is the identity")
SURVIVOR = Mutant("src/pkg/neg.py", "return 1", "return 2", "unused returns 2")


def run_main(capsys, package, chosen):
    code = mutants.main(chosen, PYTEST, package)
    return code, capsys.readouterr().out.splitlines()


class TestApply:
    def test_mutates_only_the_copy(self, package, tmp_path):
        mutants.apply(package, tmp_path / "copy", KILLED_ADD)
        assert (tmp_path / "copy" / "src" / "pkg" / "add.py").read_text() == "def add(a, b):\n    return a - b\n"
        assert (package / "src" / "pkg" / "add.py").read_text() == "def add(a, b):\n    return a + b\n"
        assert (tmp_path / "copy" / "src" / "pkg" / "neg.py").read_text() == (package / "src/pkg/neg.py").read_text()

    @pytest.mark.parametrize("old", ["a * b", "return"])
    def test_old_text_must_occur_once(self, package, tmp_path, old):
        """An old text that is gone, or occurs twice, names the file."""
        with pytest.raises(mutants.MutantError, match="src/pkg/neg.py: old text occurs [02] times"):
            mutants.apply(package, tmp_path / "copy", Mutant("src/pkg/neg.py", old, "x", "stale"))

    def test_mutated_file_must_compile(self, package, tmp_path):
        """A mutant that breaks the syntax would fail every test at import, which says nothing."""
        with pytest.raises(mutants.MutantError, match="src/pkg/add.py: the mutated file does not compile"):
            mutants.apply(package, tmp_path / "copy", Mutant("src/pkg/add.py", "a + b", "a +", "syntax"))


class TestReport:
    def test_first_failure_reads_the_short_summary(self):
        output = ("..F\n=== short test summary info ===\n"
                  "FAILED tests/test_a.py::TestB::test_c[1-2] - AssertionError: assert 1 == 2\n"
                  "!!! stopping after 1 failures !!!\n")
        assert mutants.first_failure(output) == "tests/test_a.py::TestB::test_c[1-2]"
        assert mutants.first_failure("ERROR tests/test_a.py - ImportError\n") == "tests/test_a.py"
        assert mutants.first_failure("3 passed in 0.1s\n") is None

    def test_verdict(self):
        assert mutants.verdict(0, "3 passed\n") == "SURVIVED"
        assert mutants.verdict(1, "FAILED tests/t.py::test_x - boom\n") == "tests/t.py::test_x"
        assert mutants.verdict(-1, "ran past 300 s") == "killed: exit -1, ran past 300 s"

    def test_tests_run_with_bounded_memory(self, package):
        """The command runs in the copy, imports from its ``src`` and cannot
        grow past the memory cap, so a mutant that loops while allocating
        fails with MemoryError instead of exhausting the host."""
        probe = ("import resource, pkg.add; "
                 "print(resource.getrlimit(resource.RLIMIT_AS)[0], pkg.add.__file__)")
        code, output = mutants.run_tests(package, (sys.executable, "-c", probe))
        limit, path = output.split()
        assert code == 0 and int(limit) == mutants.MEMORY_LIMIT_BYTES
        assert Path(path) == package / "src" / "pkg" / "add.py"

    def test_report_and_exit_code(self, capsys, package):
        """One run holds a killed mutant, an unapplied one, a survivor and
        another killed one: each gets its line, in order, and the run
        carries on past the unapplied entry and the survivor."""
        stale = Mutant("src/pkg/add.py", "a * b", "a / b", "gone")
        code, lines = run_main(capsys, package, [KILLED_ADD, stale, SURVIVOR, KILLED_NEG])
        assert code == 1
        assert lines[0] == " 1. src/pkg/add.py: add subtracts: tests/test_pkg.py::test_add"
        assert lines[1].startswith(" 2. src/pkg/add.py: gone: NOT APPLIED: src/pkg/add.py: old text occurs 0 times")
        assert lines[2:] == [
            " 3. src/pkg/neg.py: unused returns 2: SURVIVED",
            " 4. src/pkg/neg.py: neg is the identity: tests/test_pkg.py::test_neg",
            "2 of 4 mutants killed",
        ]

    def test_all_killed_exits_zero(self, capsys, package):
        code, lines = run_main(capsys, package, [KILLED_NEG])
        assert code == 0
        assert lines == [" 1. src/pkg/neg.py: neg is the identity: tests/test_pkg.py::test_neg", "1 of 1 mutants killed"]

    def test_failing_checkout_runs_no_mutant(self, capsys, package):
        (package / "src" / "pkg" / "add.py").write_text("def add(a, b):\n    return 0\n")
        code, lines = run_main(capsys, package, [KILLED_NEG])
        assert code == 2
        assert lines == ["error: the unmutated checkout fails: tests/test_pkg.py::test_add"]


def test_committed_mutants_still_apply():
    """Every committed mutant's old text occurs exactly once in its file and
    its mutated file compiles, so a change that moves one fails here, not
    only in a full mutant run."""
    root = Path(__file__).resolve().parent.parent
    for m in mutants.MUTANTS:
        text = (root / m.file).read_text(encoding="utf-8")
        assert text.count(m.old) == 1 and m.new != m.old, m.breaks
        compile(text.replace(m.old, m.new), m.file, "exec")
