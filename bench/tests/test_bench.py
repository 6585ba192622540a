"""Checks of the benchmark itself: span accounting, repeatable counts, the
base of the eigen hit ratio, the reference timing, alias patching, span
coverage and the correctness gate.
Run with ``python3 -m pytest -q bench/tests``."""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def loaded():
    return run.setup(None)


def traced_pass(loaded, workload):
    package, mods, _ = loaded
    tracer = spans.Tracer(package, mods)
    with tracer:
        tracer.open_root()
        result = workload.run_pass()
        tracer.close_root()
    return tracer, result


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--seed", "0", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_self_times_add_up_to_each_root_span(loaded):
    workload = workloads.make_workload("light-sections", 0, loaded[1],
                                       loaded[2])
    plain = workload.run_pass()
    tracer, result = traced_pass(loaded, workload)
    assert result.failed == 0
    assert result.records == plain.records

    own = tracer.self_times()
    assert min(own) >= 0
    root_of = []
    for i, p in enumerate(tracer.parent):
        root_of.append(i if p < 0 else root_of[p])
    for root in set(root_of):
        duration = tracer.end[root] - tracer.start[root]
        children = sum(tracer.end[i] - tracer.start[i]
                       for i, p in enumerate(tracer.parent) if p == root)
        assert own[root] + children == duration
        assert sum(t for t, r in zip(own, root_of) if r == root) == duration
    by_name = tracer.summary()
    assert sum(rec["self_ns"] for rec in by_name.values()) == \
        tracer.end[0] - tracer.start[0]


def test_counts_repeat_across_two_traced_runs():
    counts = []
    for _ in range(2):
        proc = run_bench("--workload", "light-sections", "--seconds", "1",
                         "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout.splitlines()[-1])
        assert out["correct"]
        counts.append({k: m["value"] for k, m in out["metrics"].items()
                       if m["unit"] in ("count", "ratio")})
    assert counts[0] == counts[1]
    assert counts[0]["fields.mul.calls"] > 0


def test_eigen_hit_ratio_is_eigenvalues_over_trials(loaded):
    package, mods, _ = loaded
    f = mods["fields"]
    field = f.field_create([-1])
    rotation = f.ExactMatrix.from_int(field, [[0, -1], [1, 0]])
    tracer = spans.Tracer(package, mods)
    with tracer:
        tracer.open_root()
        found = f.eigen_decompose(rotation)
        tracer.close_root()
    candidates = f._eigenvalue_candidates(field)
    trials = max(candidates.index(lam) for lam, _ in found) + 1
    metrics = tracer.layer_metrics()
    assert len(found) == 2
    assert metrics["fields.eigen.trials"] == trials
    assert metrics["fields.eigen.hit_ratio"] == 2 / trials
    tracer.reset()
    assert tracer.layer_metrics()["fields.eigen.hit_ratio"] == 0.0


def test_subtraction_counts_one_add_call(loaded):
    package, mods, _ = loaded
    field = mods["fields"].field_create([-1])
    x = field.rational(3)
    tracer = spans.Tracer(package, mods)
    with tracer:
        tracer.open_root()
        x - 1, 1 - x, x + 1, 1 + x
        tracer.close_root()
    assert tracer.layer_metrics()["fields.add.calls"] == 4


def test_timed_setup_puts_the_loaded_modules_back(loaded):
    before = {n: m for n, m in sys.modules.items() if n.startswith("cmsweep")}
    assert run.time_setup(None) > 0
    after = {n: m for n, m in sys.modules.items() if n.startswith("cmsweep")}
    assert after.keys() == before.keys()
    assert all(after[n] is before[n] for n in before)


def test_reference_takes_half_of_a_pass_and_stays_out_of_its_time():
    class Busy:
        def run_pass(self):
            for _ in range(600):
                sum(range(20000))
            return workloads.PassResult(attempted=1)

    handler = signal.getsignal(signal.SIGALRM)
    reference = run.Reference()
    t0 = time.perf_counter()
    elapsed, attempted = run.Runner(Busy()).one_pass(reference=reference)
    wall = time.perf_counter() - t0
    assert attempted == 1
    assert elapsed + reference.seconds <= wall
    assert 0.25 < reference.seconds / wall < 0.75
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_tracer_patches_every_alias_and_restores_it(loaded):
    package, mods, _ = loaded
    f, torus, intlat = mods["fields"], mods["torus"], mods["intlat"]
    element = vars(f.FieldElement)
    bindings = [(f, "eigen_decompose"), (torus, "eigen_decompose"),
                (intlat, "rational_span_intersect"),
                (torus, "rational_span_intersect"),
                (f.FieldElement, "__add__"), (f.FieldElement, "__radd__"),
                (f.FieldElement, "__mul__"), (f.FieldElement, "__rmul__"),
                (f.ExactMatrix, "from_int")]
    before = [vars(owner)[attr] for owner, attr in bindings]
    with spans.Tracer(package, mods) as tracer:
        assert torus.eigen_decompose is f.eigen_decompose
        assert f.eigen_decompose.__wrapped__ is before[0]
        assert torus.rational_span_intersect is intlat.rational_span_intersect
        assert intlat.rational_span_intersect.__wrapped__ is before[2]
        assert element["__radd__"] is element["__add__"]
        assert element["__rmul__"] is element["__mul__"]
        assert element["__mul__"].__wrapped__ is before[6]
        assert isinstance(vars(f.ExactMatrix)["from_int"], staticmethod)
        assert set(bindings) <= set(tracer.patched)
    after = [vars(owner)[attr] for owner, attr in bindings]
    assert all(a is b for a, b in zip(after, before))


def test_each_named_span_is_hit_on_some_workload(loaded):
    """A missed alias would leave its count at 0 on every workload."""
    calls = {}
    for name in workloads.WORKLOADS:
        workload = workloads.make_workload(name, 0, loaded[1], loaded[2])
        if name == "antiweil-grid":
            workload.inputs = workload.inputs[:1]
        tracer, result = traced_pass(loaded, workload)
        assert result.failed == 0, result.errors
        for span, rec in tracer.summary().items():
            calls[span] = calls.get(span, 0) + rec["calls"]
    missed = sorted(n for n in set(spans.NAMED.values()) if not calls.get(n))
    assert missed == []


def test_tampered_fixture_copy_fails_the_gate(tmp_path):
    packaged = ROOT / "src" / "cmsweep" / "fixtures"
    before = {p.name: p.read_bytes() for p in packaged.glob("*.json")}
    fixtures = tmp_path / "fixtures"
    shutil.copytree(packaged, fixtures)
    path = fixtures / "sweep-dim1.json"
    cases = json.loads(path.read_text())
    cases[0]["verdict"] = "SURVIVES_D4"
    path.write_text(json.dumps(cases))

    proc = run_bench("--workload", "light-sections", "--seconds", "0.1",
                     "--fixtures", str(fixtures))
    out = json.loads(proc.stdout.splitlines()[-1])
    assert proc.returncode == 1
    assert out["correct"] is False
    assert out["failed"] > 0 and out["failed"] / out["attempted"] > 0
    assert {p.name: p.read_bytes() for p in packaged.glob("*.json")} == before


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("--workload", "verify-all", "--seconds", "1",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_metrics_match_benchmark_json(loaded):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    tracer = spans.Tracer(loaded[0], loaded[1])
    tracer.open_root()
    tracer.close_root()
    emitted = {**{k: run._unit(k) for k in tracer.layer_metrics()},
               "trace.overhead_s": "s"}
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == emitted
    assert {m["name"] for m in declared["end_to_end"]} == \
        {"setup_s", "wall_norm", "peak_rss_mb"}
