"""The benchmark's own tests, at toy sizes.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import run
import workloads
from dpmst import mechanisms
from dpmst.graph import SpanningTree, kruskal_mst
from dpmst.mechanisms import MechanismResult

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TOY = {
    "er2048-oneshot": replace(workloads.WORKLOADS["er2048-oneshot"], n=40, p=0.3, trials=2),
    "er256-select": replace(workloads.WORKLOADS["er256-select"], n=16, trials=2),
    "equiv-small": replace(workloads.WORKLOADS["equiv-small"], trials=300),
}


@pytest.fixture(autouse=True)
def one_probe(monkeypatch):
    monkeypatch.setattr(run, "PROBES", 1)


def _run(capsys, workload, trace, seed=1):
    code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0.05",
                     "--trace", str(trace)], workload_table=TOY)
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines[:-1], json.loads(lines[-1])


def test_workloads_match_the_spec():
    assert SPEC["workloads"] == [{"name": w.name, "why": w.why}
                                 for w in workloads.WORKLOADS.values()]
    assert set(TOY) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(TOY))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(capsys, workload, trace):
    code, lines, result = _run(capsys, workload, trace)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        printed = [ln for ln in lines if ln.split(" ", 1)[0] == m["name"]]
        assert len(printed) == 1 and printed[0].endswith(" " + m["unit"]), m["name"]


def _short_tree(g, budget, stream):
    """n-2 edges: never a spanning tree."""
    return MechanismResult(tree=SpanningTree(frozenset(range(1, g.n - 1))))


def _max_noisy_tree(g, budget, stream):
    """A spanning tree, but the maximum one for its own noisy weights."""
    noisy = g.weights + stream.gaussian(1.0, size=g.m)
    return MechanismResult(tree=kruskal_mst(g, -noisy), noisy_weights=noisy)


def test_non_spanning_tree_fails_the_run(capsys, monkeypatch):
    monkeypatch.setitem(mechanisms.MECHANISMS, "perturb", _short_tree)
    code, lines, result = _run(capsys, "er2048-oneshot", 0)
    assert code != 0 and not result["correct"] and result["failed"] > 0
    assert result["metrics"]["passed_frac"]["value"] < 1.0
    assert any("not a spanning tree" in ln for ln in lines)


def test_non_minimal_tree_is_counted_not_raised(tmp_path, monkeypatch):
    monkeypatch.setitem(mechanisms.MECHANISMS, "perturb", _max_noisy_tree)
    wl = TOY["er2048-oneshot"]
    instance = tmp_path / "g.txt"
    workloads.write_er_instance(instance, wl.n, wl.p, seed=3)
    gate = workloads.Gate()
    bench = workloads.Bench(workloads.setup(wl, 3, instance), gate, tmp_path)
    bench.run_pass(0)
    assert gate.failed > 0
    assert any("run_trials raised" in f for f in gate.failures)


def test_seed_fixes_instances_and_trees(tmp_path):
    wl = TOY["er2048-oneshot"]
    texts = []
    for seed in (1, 1, 2):
        path = tmp_path / f"g{len(texts)}.txt"
        workloads.write_er_instance(path, wl.n, wl.p, seed)
        texts.append(path.read_text())
    assert texts[0] == texts[1] != texts[2]

    def digests(name, seed):
        prep = workloads.setup(TOY[name], seed, None)
        return workloads.Bench(prep, workloads.Gate(), tmp_path).run_pass(0).digests

    gen = TOY["er256-select"]
    w1 = workloads.setup(gen, 1, None).graphs["er"].weights
    w2 = workloads.setup(gen, 2, None).graphs["er"].weights
    assert (w1 != w2).any()
    for name in ("er256-select", "equiv-small"):
        assert digests(name, 5) == digests(name, 5) != digests(name, 6)


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "equiv-small",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60,
                          check=False)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
