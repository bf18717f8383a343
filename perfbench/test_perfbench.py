"""Tests of the benchmark itself: the oracle, the expected-verdict file,
tracing determinism, and small runs of every workload."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import gen, oracle, run, workloads
from perfbench.tracer import Tracer
from vecauto import builders, fileformat, langlab

ROOT = Path(__file__).resolve().parent.parent

CATALOG = [
    ("eq", None, "eq", None),
    ("leq", None, "leq", None),
    ("dyck", None, "dyck", None),
    ("pow_r", None, "pow_r", None),
    ("evenab", None, "evenab", None),
    ("l_epsilon", None, "l_epsilon", None),
    ("ab_k_star", 2, "ab_k_star", 2),
    ("mod", 3, "mod", 3),
    ("mod_rot", 4, "mod", 4),
]


@pytest.mark.parametrize("name,param,ref_name,ref_param", CATALOG)
def test_oracle_agrees_with_reference_on_catalog(name, param, ref_name, ref_param):
    doc = json.loads(fileformat.write_machine(builders.example(name, param)))
    machine = oracle.Machine(doc)
    ref = langlab.reference_language(ref_name, ref_param)
    for w in oracle.all_words(ref.alphabet, 7):
        assert (oracle.verdict(machine, w) == "A") == ref.membership(w), w


def test_oracle_accepts_blind_counter_languages():
    ab = oracle.Machine(gen.blind_counter_ab())
    abc = oracle.Machine(gen.blind_counter_abc())
    ref_ab = langlab.reference_language("ab").membership
    ref_abc = langlab.reference_language("balanced_abc").membership
    for w in oracle.all_words("ab", 7):
        assert (oracle.verdict(ab, w) == "A") == ref_ab(w), w
    for w in oracle.all_words("abc", 5):
        assert (oracle.verdict(abc, w) == "A") == ref_abc(w), w


def test_expected_file_matches_the_generator():
    expected = oracle.load_expected()
    keys = [key for key, _, _ in oracle.pool_entries()]
    assert sorted(keys) == sorted(expected)
    for key, doc, maxlen in oracle.pool_entries():
        assert expected[key]["digest"] == oracle.doc_digest(doc), key
        assert expected[key]["maxlen"] == maxlen
    # regenerating a few cheap records reproduces them exactly
    for key, doc, maxlen in list(oracle.pool_entries())[:3]:
        assert oracle.expected_record(doc, maxlen) == expected[key]


def test_reference_seconds_follow_the_local_host_speed():
    # the host slows to half speed after 20 jobs: the same job's wall time
    # and the calibration time both double, so its reference time does not
    wall = [0.01] * 20 + [0.02] * 13
    host = [run.CAL_REF_S] * 20 + [2 * run.CAL_REF_S] * 13
    scaled = run.to_reference(wall, host)
    assert scaled[0] == pytest.approx(0.01)
    assert scaled[-1] == pytest.approx(0.01)


def test_reference_seconds_follow_a_short_slowdown():
    # the host runs at half speed for three jobs only; the calibrations
    # just before and after each of them see it, the window does not
    wall = [0.01] * 10 + [0.02] * 3 + [0.01] * 10
    host = [run.CAL_REF_S] * 10 + [2 * run.CAL_REF_S] * 4 + [run.CAL_REF_S] * 9
    scaled = run.to_reference(wall, host)
    assert scaled == pytest.approx([0.01] * 23)
    # one preempted calibration sample does not skew its job
    host = [run.CAL_REF_S] * 23
    host[5] = 10 * run.CAL_REF_S
    assert run.to_reference([0.01] * 23, host) == pytest.approx([0.01] * 23)


def _small_jobs(name, tmp_path, count):
    jobs = workloads.SETUP[name](7, tmp_path)
    return sorted(jobs, key=lambda job: job.name)[:count]


def _short_long_jobs(tmp_path):
    """The long-word jobs on the shortest words, up to 2000 letters."""
    jobs = workloads.SETUP["long_words"](7, tmp_path)
    return [job for job in jobs if int(job.name.split(" on ")[1].split()[0]) <= 2000]


def _traced_counts(jobs):
    tracer = Tracer()
    tracer.install()
    try:
        records, _ = run.one_pass(jobs, tracer)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    counts = {name: value for name, (value, _) in metrics.items() if not name.endswith("self_s")}
    return counts, [outcome for _, outcome, _ in records]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_two_traced_runs_give_identical_counts(name, tmp_path):
    if name == "long_words":
        jobs = _short_long_jobs(tmp_path)
    else:
        jobs = _small_jobs(name, tmp_path, 6)
    first, outcomes = _traced_counts(jobs)
    second, _ = _traced_counts(jobs)
    assert first == second
    untraced, _ = run.one_pass(jobs)
    assert [outcome for _, outcome, _ in untraced] == outcomes
    assert first["machines.letters_fed"] > 0


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_small_run_of_every_workload_is_correct(name, tmp_path):
    if name == "long_words":
        jobs = _short_long_jobs(tmp_path)
    else:
        jobs = _small_jobs(name, tmp_path, 8)
    records, _ = run.measure(jobs, 0)
    total, failures = run.summarize(records)
    assert failures == []
    assert total.queries > 0


def test_tracer_restores_every_function():
    import vecauto.langlab
    import vecauto.machines

    before = (vecauto.machines.vec_mat_mul, vecauto.langlab.accepts)
    tracer = Tracer()
    tracer.install()
    assert vecauto.machines.vec_mat_mul is not before[0]
    assert vecauto.langlab.accepts is not before[1]
    tracer.uninstall()
    assert (vecauto.machines.vec_mat_mul, vecauto.langlab.accepts) == before


def test_command_prints_the_contract_line():
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "catalog_verify", "--seed", "3",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "catalog_verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
