"""The verdict that ``scripts/bench_pairs.py`` writes per metric, on
synthetic runs, the commit and the digest that name the code each side ran,
and the bytecode caches it keeps out of the runs."""

import importlib.util
import json
import shutil
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = load_bench_pairs()
LOWER = {"name": "wall_s", "better": "lower", "bound": 0.25}
HIGHER = {"name": "throughput_rps", "better": "higher", "bound": 0.25}
PARENT = [3.0, 3.1, 2.9, 3.05, 2.95, 3.0, 3.1, 2.9, 3.02, 2.98]  # IQR 0.085


def shifted(values, by):
    return [v + by for v in values]


@pytest.mark.parametrize("change, expected", [
    (shifted(PARENT, -0.5), "better"),  # 10/10 pairs, medians 0.5 apart
    (shifted(PARENT, -0.05), "unchanged"),  # 10/10 pairs, within the IQR
    (shifted(PARENT, -0.5)[:8] + [3.2, 3.2], "unchanged"),  # 8/10 pairs
    (shifted(PARENT, -0.5)[:9] + [3.2], "better"),  # 9/10 pairs
    (shifted(PARENT, 0.5), "unchanged"),  # worse, but within the bound
    (shifted(PARENT, 0.8), "worse"),  # median 27% worse
    ([2.0, 4.0, 1.0, 5.0, 2.0, 4.0, 1.0, 5.0, 2.0, 4.0], "unresolved"),
])
def test_verdicts_of_a_lower_is_better_metric(change, expected):
    assert bench_pairs.verdict(LOWER, PARENT, change) == expected


def test_verdicts_of_a_higher_is_better_metric():
    assert bench_pairs.verdict(HIGHER, PARENT, shifted(PARENT, 0.5)) == "better"
    assert bench_pairs.verdict(HIGHER, PARENT, shifted(PARENT, -0.8)) == "worse"
    assert bench_pairs.verdict(HIGHER, PARENT, PARENT) == "unchanged"


def test_a_wide_spread_is_resolved_when_every_change_run_reads_better():
    # IQR 0.9, wider than the bound times the parent's median (0.75)
    wide = [1.8, 2.7, 1.0, 2.8, 1.8, 2.7, 1.0, 2.8, 1.8, 2.7]
    assert bench_pairs.verdict(LOWER, PARENT, wide) == "better"
    assert bench_pairs.verdict(LOWER, PARENT, wide[:9] + [2.95]) == "unresolved"


def test_each_spread_is_judged_against_the_parents_median():
    # the shape of a throughput the change raised by about 70%: the change's
    # IQR (160) is within the bound of its own median (235) but wider than
    # the bound of the parent's (135), and one change run reads worse
    parent = [520, 540, 560, 530, 550, 545, 535, 525, 555, 541]
    change = [800, 980, 1000, 850, 950, 1010, 820, 990, 930, 500]
    assert bench_pairs.verdict(HIGHER, parent, change) == "unresolved"


def test_a_worse_median_outranks_a_wide_spread():
    wide_and_worse = [5.0, 9.0, 4.0, 10.0, 5.0, 9.0, 4.0, 10.0, 5.0, 9.0]
    assert bench_pairs.verdict(LOWER, PARENT, wide_and_worse) == "worse"


def test_summaries_carry_the_verdict():
    change = shifted(PARENT, -0.5)[:9] + [3.2]
    runs = {side: [{"metrics": {"wall_s": {"value": v}}} for v in values]
            for side, values in (("parent", PARENT), ("change", change))}
    summary = bench_pairs.summarize([{**LOWER, "unit": "s"}], runs)["wall_s"]
    assert summary["verdict"] == "better"
    assert summary["change_better_pairs"] == "9/10"
    # each side's values in seed order, next to the spread read off them
    for side, values in (("parent", PARENT), ("change", change)):
        assert summary[side] == {**bench_pairs.spread(values), "runs": values}
    assert bench_pairs.verdict(LOWER, summary["parent"]["runs"],
                               summary["change"]["runs"]) == "better"


def test_the_source_digest_names_the_files_of_a_copy(tmp_path):
    one, two = tmp_path / "one", tmp_path / "two"
    for top in (one, two):
        (top / "src" / "pkg").mkdir(parents=True)
        (top / "src" / "pkg" / "a.py").write_text("A = 1\n")
        (top / "perfbench").mkdir()
        (top / "perfbench" / "run.py").write_text("print()\n")
    (two / "README.md").write_text("outside the digest\n")
    (two / "src" / "pkg" / "__pycache__").mkdir()
    (two / "src" / "pkg" / "__pycache__" / "a.pyc").write_bytes(b"\0")
    (two / "perfbench" / ".work").mkdir()
    (two / "perfbench" / ".work" / "spans.jsonl").write_text("{}\n")
    digest = bench_pairs.source_digest(one)
    assert bench_pairs.source_digest(two) == digest
    (two / "src" / "pkg" / "a.py").write_text("A = 2\n")
    assert bench_pairs.source_digest(two) != digest
    shutil.copy(one / "src" / "pkg" / "a.py", two / "src" / "pkg" / "a.py")
    assert bench_pairs.source_digest(two) == digest
    (two / "perfbench" / "run.py").rename(two / "perfbench" / "main.py")
    assert bench_pairs.source_digest(two) != digest


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_a_checkout_with_uncommitted_sources_is_named_dirty(tmp_path):
    top = checkout_copy(tmp_path / "checkout")
    assert bench_pairs.commit_of(top) is None  # not a git checkout

    def git(*argv):
        return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                               *argv], cwd=top, check=True, capture_output=True,
                              text=True).stdout.strip()

    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "sources")
    head = git("rev-parse", "HEAD")
    assert bench_pairs.commit_of(top) == head
    (top / "README.md").write_text("outside the sources\n")
    assert bench_pairs.commit_of(top) == head
    (top / "src" / "pkg" / "a.py").write_text("A = 2\n")
    assert bench_pairs.commit_of(top) == head + "+dirty"
    git("checkout", "--", "src")
    assert bench_pairs.commit_of(top) == head
    (top / "perfbench" / "new.py").write_text("\n")  # untracked
    assert bench_pairs.commit_of(top) == head + "+dirty"


def checkout_copy(top: Path) -> Path:
    (top / "src" / "pkg").mkdir(parents=True)
    (top / "src" / "pkg" / "a.py").write_text("A = 1\n")
    (top / "perfbench").mkdir()
    (top / "perfbench" / "run.py").write_text("print()\n")
    return top


@pytest.mark.parametrize("side, cache", [
    ("parent", Path("src", "pkg", "__pycache__")),
    ("change", Path("perfbench", "__pycache__")),
])
def test_a_bytecode_cache_stops_the_script_before_any_run(
        tmp_path, monkeypatch, side, cache):
    sides = {name: checkout_copy(tmp_path / name) for name in bench_pairs.SIDES}
    (sides[side] / cache).mkdir()
    (sides[side] / cache / "a.cpython-311.pyc").write_bytes(b"\0")
    # outside src/ and perfbench/, a cache is not what the runs import
    (sides["parent"] / "scripts" / "__pycache__").mkdir(parents=True)

    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(subprocess, "run", no_run)
    with pytest.raises(SystemExit) as stopped:
        bench_pairs.main(["--parent", str(sides["parent"]), "--change",
                          str(sides["change"]), "--out", str(tmp_path / "out.json")])
    assert str(sides[side] / cache) in str(stopped.value)
    assert f"({side})" in str(stopped.value)
    assert not (tmp_path / "out.json").exists()


def test_each_run_writes_no_bytecode(tmp_path, monkeypatch):
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    monkeypatch.setenv("KEPT_FROM_THE_CALLER", "1")
    calls = []

    def recorded(command, **kwargs):
        calls.append(kwargs)
        return subprocess.CompletedProcess(
            command, 0, stdout=json.dumps({"failed": 0}) + "\n", stderr="")

    monkeypatch.setattr(subprocess, "run", recorded)
    assert bench_pairs.run_once(tmp_path, "battery", 3, 15) == {"failed": 0}
    (kwargs,) = calls
    assert kwargs["cwd"] == tmp_path
    assert kwargs["env"]["PYTHONDONTWRITEBYTECODE"] == "1"
    assert kwargs["env"]["KEPT_FROM_THE_CALLER"] == "1"
