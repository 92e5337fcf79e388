"""Tests for tools/pairs.py on fabricated result lines: no benchmark runs."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location("pairs", Path(__file__).parent.parent / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)

BETTER = {"sweep_s": "lower", "spd_tokens_per_s": "higher"}
WORKLOADS = ("chat-stoch-sweep", "plain-greedy-eos")


def result(sweep_s, rate, prefixes=("",)):
    """One result line of ``perfbench/run.py``, as ``run_once`` returns it;
    ``--workload all`` gives each metric once per workload prefix."""
    metrics = {"sweep_s": {"value": sweep_s, "unit": "s"}, "spd_tokens_per_s": {"value": rate, "unit": "tok/s"}}
    return {"correct": True, "attempted": 10, "failed": 0,
            "metrics": {prefix + k: v for prefix in prefixes for k, v in metrics.items()}}


@pytest.fixture
def checkouts(tmp_path):
    """A parent and a change directory; the change holds a BENCHMARK.json."""
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    spec = {"end_to_end": [{"name": name, "better": better} for name, better in BETTER.items()]}
    (change / "BENCHMARK.json").write_text(json.dumps(spec), encoding="utf-8")
    return parent, change


def fake_runs(monkeypatch, checkouts):
    """Replace ``run_once``: the change is 10% faster than the parent."""
    calls = []

    def run_once(checkout, workload, seed):
        calls.append((checkout.name, workload, seed))
        scale = 0.9 if checkout == checkouts[1].resolve() else 1.0
        prefixes = [f"{w}." for w in WORKLOADS] if workload == "all" else [""]
        return result(0.1 * scale * (1 + 0.01 * len(calls)), 1e5 / scale, prefixes)

    monkeypatch.setattr(pairs, "run_once", run_once)
    return calls


class TestTable:
    def test_medians_quartiles_and_wins(self):
        runs = {"parent": [result(0.100, 1e5), result(0.104, 2e5), result(0.102, 3e5)],
                "change": [result(0.090, 1.1e5), result(0.110, 1.9e5), result(0.095, 3.3e5)]}
        rows = pairs.table(runs, BETTER, "chat-stoch-sweep", 0)
        assert rows[0] == ("| `chat-stoch-sweep` | 0 | `sweep_s` | 102.00 ms [101.00 ms, 103.00 ms] "
                           "| 95.00 ms [92.50 ms, 102.50 ms] | -6.9% | 2/3 |")
        assert rows[1] == ("| `chat-stoch-sweep` | 0 | `spd_tokens_per_s` | 200.00k [150.00k, 250.00k] "
                           "| 190.00k [150.00k, 260.00k] | -5.0% | 2/3 |")

    def test_prefix_reads_one_workload_of_an_all_run(self):
        line = result(0.1, 1e5, [f"{w}." for w in WORKLOADS])
        runs = {"parent": [line], "change": [line]}
        rows = pairs.table(runs, BETTER, "plain-greedy-eos", 11, "plain-greedy-eos.")
        assert [row.split(" | ")[:3] for row in rows] == [["| `plain-greedy-eos`", "11", f"`{m}`"] for m in BETTER]


class TestMain:
    def test_one_workload(self, monkeypatch, checkouts, capsys):
        calls = fake_runs(monkeypatch, checkouts)
        argv = ["--parent", str(checkouts[0]), "--change", str(checkouts[1]), "--workload", "chat-stoch-sweep"]
        assert pairs.main([*argv, "--pairs", "3", "--seed", "7"]) == 0
        # pairs alternate which side runs first
        assert [c[0] for c in calls] == ["parent", "change", "change", "parent", "parent", "change"]
        assert {c[1:] for c in calls} == {("chat-stoch-sweep", 7)}
        out = capsys.readouterr().out
        assert out.count("| workload |") == 1
        assert "| `chat-stoch-sweep` | 7 | `sweep_s` |" in out and "| 3/3 |" in out

    def test_all_prints_one_table_per_workload(self, monkeypatch, checkouts, capsys):
        """``--workload all`` prefixes each metric with its workload; it
        raised KeyError in ``table`` after every run had finished."""
        fake_runs(monkeypatch, checkouts)
        argv = ["--parent", str(checkouts[0]), "--change", str(checkouts[1]), "--workload", "all", "--pairs", "2"]
        assert pairs.main(argv) == 0
        out = capsys.readouterr().out
        assert out.count("| workload |") == len(WORKLOADS)
        for workload in WORKLOADS:
            for metric in BETTER:
                assert f"| `{workload}` | 0 | `{metric}` |" in out

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_no_pairs_rejected(self, monkeypatch, checkouts, capsys, count):
        """``--pairs 0`` raised IndexError after printing an empty run."""
        calls = fake_runs(monkeypatch, checkouts)
        argv = ["--parent", str(checkouts[0]), "--change", str(checkouts[1]), "--workload", "all", "--pairs", count]
        with pytest.raises(SystemExit) as exc:
            pairs.main(argv)
        assert exc.value.code == 2 and not calls
        assert "--pairs must be >= 1" in capsys.readouterr().err

    def test_timeout_is_one_error_line(self, monkeypatch, tmp_path):
        def slow(cmd, **kwargs):
            raise subprocess.TimeoutExpired(cmd, kwargs["timeout"])

        monkeypatch.setattr(pairs.subprocess, "run", slow)
        with pytest.raises(SystemExit) as exc:
            pairs.run_once(tmp_path, "chat-stoch-sweep", 0)
        assert exc.value.code == f"error: {tmp_path}: benchmark ran past {pairs.RUN_TIMEOUT_S} s"
