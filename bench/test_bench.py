"""The benchmark's own checks, at tiny sizes.

Run with ``python -m pytest bench/test_bench.py``.  They cover the shape of
``BENCHMARK.json``, that every reported metric is declared there with its
unit, that the correctness gate catches a wrong reference, that the traced
run measures the same program as the untraced one, and that random streams
are addressed by ``SeedSpec`` arithmetic alone.
"""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
for path in (str(ROOT / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

import layers  # noqa: E402
import probes  # noqa: E402
import workloads  # noqa: E402
from alivetwist import SeedSpec  # noqa: E402
from alivetwist.configs import GridConfig  # noqa: E402
from alivetwist.experiments import run_sv_pmmh  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import CHAIN_STREAMS, LgBench, LgSpec, SvBench, SvSpec  # noqa: E402

TINY_LG = LgSpec("tiny-lg", steps=10, n_particles=40, records=2, reference_size=80)
TINY_SV = SvSpec("tiny-sv", steps=15, n_particles=20, chain_length=3, reference_size=40)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def tiny_lg():
    return LgBench(TINY_LG, seed=3)


@pytest.fixture(scope="module")
def tiny_sv():
    return SvBench(TINY_SV, seed=3)


def test_benchmark_json_schema(declared):
    assert set(declared) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert declared["paths"] == ["bench"]
    assert declared["command"][1].startswith("bench/")
    assert isinstance(declared["run_seconds"], int) and 1 <= declared["run_seconds"] <= 60
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)
    for w in declared["workloads"]:
        assert set(w) == {"name", "why"} and 0 < len(w["why"]) <= 200 and "\n" not in w["why"]
    names = [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    assert len(names) == len(set(names))
    for m in declared["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in declared["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in declared["end_to_end"] + declared["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("higher", "lower")
    setup = next(m for m in declared["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in declared["end_to_end"])


def _units(declared, kind):
    return {m["name"]: m["unit"] for m in declared[kind]}


def test_end_to_end_metrics_match_declaration(declared, tiny_lg, tiny_sv):
    expected = _units(declared, "end_to_end")
    expected.pop("setup_s")
    for outcome in (tiny_lg.outcome(tiny_lg.measure(0.3)),
                    tiny_sv.outcome(tiny_sv.run_chains(0.2))):
        assert {k: unit for k, (_, unit) in outcome["metrics"].items()} == expected
        assert all(check.passed for check in outcome["checks"])


def test_per_layer_metrics_match_declaration(declared, tiny_lg, tiny_sv, monkeypatch):
    tracer = Tracer()
    tiny_lg.measure(0.0, rounds=2, tracer=tracer)
    sv_tracer = Tracer()
    chains = tiny_sv.run_chains(0.0, plan=[2], tracer=sv_tracer).chains
    tiny_sv.run_chains(0.0, plan=[1], tracer=sv_tracer, algo="alive-twisted", unit_offset=1000)

    monkeypatch.setattr(probes, "PROBE_SECONDS", 0.01)
    monkeypatch.setattr(probes, "GRID", GridConfig(
        phi=0.9, nu2_values=[1.0], tau2_values=[1.0], replicates=2, steps=5,
        n_particles=20, epsilon=1.5, lag=2, cap=100_000, mode="relative"))
    monkeypatch.setattr(probes.subprocess, "run", lambda *a, **k: subprocess.CompletedProcess(
        a, 0, stdout="selftest passed (6 checks)\n", stderr=""))

    reported = {"trace.overhead_ratio": "ratio"}
    command_metrics, command_checks = probes.command_timings(3, ROOT)
    for part in (layers.filter_layers(tracer, TINY_LG.steps, TINY_LG.n_particles),
                 layers.pmmh_layers(sv_tracer, chains, 1000),
                 probes.layer_probes(3), command_metrics):
        reported.update({k: unit for k, (_, unit) in part.items()})
    assert reported == _units(declared, "per_layer")
    assert all(check.passed for check in command_checks)


def test_gate_fails_on_a_shifted_kalman_reference(tiny_lg):
    run = tiny_lg.measure(0.0, rounds=40)
    assert all(check.passed for check in LgBench.gate(run, tiny_lg.log_z))
    shifted = [z + 1.0 for z in tiny_lg.log_z]
    failed = {check.name for check in LgBench.gate(run, shifted) if not check.passed}
    assert failed == {"bootstrap mean Z/Z_kalman is 1", "twisted_bootstrap mean Z/Z_kalman is 1"}


def test_traced_run_reproduces_the_untraced_run(tiny_lg, tiny_sv):
    assert tiny_lg.measure(0.0, rounds=3, tracer=Tracer()).values == \
        tiny_lg.measure(0.0, rounds=3).values
    plan = [2, 1]
    untraced = [c.thetas for c in tiny_sv.run_chains(0.0, plan=plan).chains]
    traced = tiny_sv.run_chains(0.0, plan=plan, tracer=Tracer()).chains
    assert [c.thetas for c in traced] == untraced


def test_chain_units_match_run_sv_pmmh(tiny_sv):
    chain = tiny_sv.run_chains(0.0, plan=[TINY_SV.chain_length]).chains[0]
    record = run_sv_pmmh(tiny_sv.observations, tiny_sv.config, "alive", tiny_sv.seed, CHAIN_STREAMS)
    assert chain.thetas == record.thetas


def test_self_times_cover_each_span(tiny_lg):
    tracer = Tracer()
    tiny_lg.measure(0.0, rounds=1, tracer=tracer)
    spans = tracer.arrays()
    assert (spans["self"] >= 0).all()
    assert spans["self"].sum() == pytest.approx(spans["duration"][spans["parent"] < 0].sum())


def test_stream_ids_are_seedspec_arithmetic():
    assert workloads.stream_spec(7, workloads.REPLICATE_STREAMS, 9) == \
        SeedSpec(7, workloads.REPLICATE_STREAMS + 9)
    for source in BENCH.glob("*.py"):
        for node in ast.walk(ast.parse(source.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                assert node.func.id != "hash", f"{source.name}:{node.lineno} calls hash()"


def test_results_do_not_depend_on_string_hashing():
    script = (
        "from workloads import LgBench, LgSpec\n"
        "b = LgBench(LgSpec('t', 8, 30, 2, 60), 5)\n"
        "print(b.measure(0.0, rounds=3).values)\n"
    )
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(BENCH)]))
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=60, check=True)
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]


def test_run_refuses_without_the_package(tmp_path):
    copy = tmp_path / "bench"
    copy.mkdir()
    for source in BENCH.glob("*.py"):
        (copy / source.name).write_text(source.read_text())
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "lg-small-n", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert done.returncode != 0
    assert done.stdout == ""
