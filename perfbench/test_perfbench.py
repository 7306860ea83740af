"""The benchmark's own tests: its output check must be able to fail.

Run from the repo root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import pathlib
import random
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(HERE), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
import worker  # noqa: E402


def _pinned(workload: str, seed: int = run.DEFAULT_WORKLOAD_SEED) -> dict:
    return run.load_digests()[workload][str(seed)]


def _worker_result(sections: dict, counts: dict) -> dict:
    return {"attempted": 0, "failed": 0, "problems": [],
            "sections": sections, "counts": counts}


def _table3() -> tuple:
    from repro.core import tables
    from repro.core.executor import SweepExecutor
    from repro.workloads.profiles import BENCHMARK_NAMES

    names = list(BENCHMARK_NAMES)
    random.Random(7).shuffle(names)
    return tables.table3_baseline(
        names=names, seed=run.DEFAULT_WORKLOAD_SEED,
        scale=worker.SCALES["paper-cold"],
        executor=SweepExecutor(jobs=1, cache=None, ledger=None))


def test_pinned_digest_matches_rows_in_any_name_order():
    pinned = _pinned("paper-cold")
    found = worker.digest(worker.canonical_table(_table3()))
    assert found == pinned["sections"]["T3"]


def test_check_fails_on_one_perturbed_cell():
    pinned = _pinned("paper-cold")
    title, headers, rows = _table3()
    rows = [list(row) for row in rows]
    rows[0][2] = round(rows[0][2] + 0.001, 3)  # one IPC cell
    sections = dict(pinned["sections"])
    sections["T3"] = worker.digest(worker.canonical_table(
        (title, headers, rows)))
    attempted, failed, problems = run.check_outputs(
        "paper-cold", run.DEFAULT_WORKLOAD_SEED,
        [_worker_result(sections, pinned["counts"])],
        run.load_digests())
    assert failed == 1 and attempted == len(sections) + len(pinned["counts"])
    assert "section T3" in problems[0]


def test_check_fails_on_one_changed_count():
    pinned = _pinned("paper-cold")
    counts = dict(pinned["counts"], **{"sim.return_hits":
                                       pinned["counts"]["sim.return_hits"] + 1})
    _, failed, problems = run.check_outputs(
        "paper-cold", run.DEFAULT_WORKLOAD_SEED,
        [_worker_result(pinned["sections"], counts)],
        run.load_digests())
    assert failed == 1 and "sim.return_hits" in problems[0]


def test_unpinned_program_seed_fails():
    _, failed, problems = run.check_outputs(
        "paper-cold", 987654, [_worker_result({}, {})],
        run.load_digests())
    assert failed == 1 and "no pinned digests" in problems[0]


def test_service_rows_check_rejects_a_perturbed_row():
    expected = {"table3": {"headers": ["benchmark", "ipc"],
                           "rows": {"li": ["li", 1.5], "go": ["go", 0.9]}}}
    result = worker.Run()
    client = worker.ServiceClient(0, result, 1, 0.02, expected,
                                  ["li", "go"], random.Random(1))
    request = {"sweep": "table3", "names": ["go", "li"]}
    good = {"headers": ["benchmark", "ipc"],
            "rows": [["go", 0.9], ["li", 1.5]]}
    assert client._rows_ok(request, good)
    bad = json.loads(json.dumps(good))
    bad["rows"][1][1] = 1.51
    assert not client._rows_ok(request, bad)


def test_corrupt_event_knob_fails_the_corpus_check(monkeypatch):
    monkeypatch.setenv("REPRO_DIFF_CORRUPT_EVENT", "5")
    bench = run.Bench(ROOT, seed=1, workload_seed=run.DEFAULT_WORKLOAD_SEED,
                      seconds=0.0)
    try:
        result = bench.worker("corpus-replay", False, 0.0, reps=1)
    finally:
        bench.close()
    attempted, failed, problems = run.check_outputs(
        "corpus-replay", run.DEFAULT_WORKLOAD_SEED, [result],
        run.load_digests())
    assert failed >= 1
    assert any("divergences" in problem for problem in problems)


def test_no_program_exits_nonzero_without_a_result(tmp_path, monkeypatch,
                                                   capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "paper-cold", "--seed", "1",
                     "--seconds", "1", "--trace", "0"]) == 2
    assert capsys.readouterr().out == ""


def test_benchmark_json_names_every_metric_with_its_unit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
