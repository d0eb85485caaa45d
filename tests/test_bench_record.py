import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_record.py"
spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)


def record(workload, seed, rate, digest="abc", failed=0):
    """A perfbench run record holding the fields the script reads."""
    return {"workload": workload, "seed": seed, "commit": "c0", "source_sha256": digest,
            "python": "3.11.7", "numpy": "2.4.6", "scipy": "1.17.1",
            "checks": {"attempted": 10, "failed": failed},
            "metrics": {"trials_per_s": {"value": rate, "unit": "1/s"},
                        "passed_frac": {"value": 1.0 - failed / 10, "unit": "ratio"}},
            "trials_per_s_by_mechanism": {"kruskal": 2.0 * rate}}


class TestBenchRecord:
    def test_medians_quartiles_runs_and_seeds(self):
        bench = bench_record.collate([record("er256-select", s, r)
                                      for s, r in [(3, 10.0), (1, 40.0), (2, 20.0), (4, 30.0),
                                                   (5, 50.0)]]
                                     + [record("equiv-small", 7, 5.0)])
        rate = bench["workloads"]["er256-select"]["trials_per_s"]
        assert rate == {"unit": "1/s", "median": 30.0, "q1": 20.0, "q3": 40.0, "runs": 5,
                        "seeds": [1, 2, 3, 4, 5]}
        assert bench["workloads"]["er256-select"]["trials_per_s.kruskal"]["median"] == 60.0
        one = bench["workloads"]["equiv-small"]["trials_per_s"]
        assert (one["median"], one["q1"], one["q3"], one["runs"]) == (5.0, 5.0, 5.0, 1)
        assert bench["source_sha256"] == "abc" and bench["commits"] == ["c0"]
        assert (bench["python"], bench["numpy"], bench["scipy"]) == ("3.11.7", "2.4.6", "1.17.1")

    @pytest.mark.parametrize("bad", [record("er256-select", 2, 20.0, digest="def"),
                                     record("er256-select", 2, 20.0, failed=1)],
                             ids=["two-digests", "failed-checks"])
    def test_refuses_mixed_sources_and_failed_checks(self, bad, tmp_path, monkeypatch):
        monkeypatch.setattr(bench_record, "ROOT", tmp_path)
        paths = []
        for i, r in enumerate([record("er256-select", 1, 10.0), bad]):
            paths.append(tmp_path / f"{i}.record.json")
            paths[-1].write_text(json.dumps(r))
        assert bench_record.main(["t", *map(str, paths)]) == 1
        assert not (tmp_path / "BENCH_t.json").exists()
        assert bench_record.main(["t", str(paths[0])]) == 0
        assert json.loads((tmp_path / "BENCH_t.json").read_text())["label"] == "t"
