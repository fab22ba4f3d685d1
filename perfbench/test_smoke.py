"""Smoke test of the benchmark itself, at toy sizes.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))

import spans  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_prints_with_its_unit(workload, trace):
    p = bench("--workload", workload, "--seed", "3", "--seconds", "1",
              "--trace", str(trace), "--tiny")
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert f"metric {name} = " in p.stdout
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_missing_target_reports_an_absent_layer():
    tracer = spans.Tracer("smoke")
    assert not tracer.wrap("json.no_such_function", "json.gone")
    assert not tracer.wrap("no_such_module.f", "gone")
    registry = {}
    tracer.wrap_registry(registry, ["insdif"])
    assert tracer.absent == ["json.no_such_function", "no_such_module.f",
                             "miml.cli.REGISTRY['insdif']"]
    assert registry == {}
    tracer.restore()


def test_self_time_subtracts_children():
    tracer = spans.Tracer("smoke")
    tracer.call("outer", lambda: tracer.call("inner", sum, range(1000)))
    outer, inner = tracer.spans
    self_s = tracer.self_times()
    assert self_s["inner"] == pytest.approx(inner.end - inner.start)
    assert self_s["outer"] == pytest.approx((outer.end - outer.start) - (inner.end - inner.start))
    assert inner.parent == 0 and outer.parent == -1


def test_wrapped_functions_are_restored():
    import json as target

    original = target.dumps
    tracer = spans.Tracer("smoke")
    assert tracer.wrap("json.dumps", "json.dumps")
    assert target.dumps is not original and target.dumps([1]) == "[1]"
    tracer.restore()
    assert target.dumps is original
    assert tracer.self_times()["json.dumps"] >= 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    p = bench("--workload", "solvers", "--seed", "1", "--seconds", "1", "--trace", "0",
              cwd=tmp_path)
    assert p.returncode != 0
    assert p.stdout.strip() == ""
