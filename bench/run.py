"""cmsweep benchmark: verified-pass wall time on one workload.

Run from the root of a checkout:

    python3 bench/run.py --workload verify-all --seed 1 --seconds 30 --trace 0

The program is imported from ``src/`` of that checkout and driven in this
one process and thread through ``cli.main`` and public module functions.
Each pass computes and checks every case of the workload; one untimed pass
comes first so that lazy imports finish before timing.  ``--trace 0``
reports the end-to-end metrics, with pass time measured against a fixed
reference computation interleaved with each pass; ``--trace 1`` reports
the per-layer metrics of traced passes (see README.md).  The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; a traced run also writes its spans to ``.bench_out/`` in the
checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
# One set-up is timed per SETUP_INTERVAL_S of measured time, spread over
# the whole run, so that set-up and passes see the same machine load.
SETUP_INTERVAL_S = 1.0
MIN_PASSES = 3
REFERENCE_N = 12
# Program time between two reference blocks in a timed pass.
REFERENCE_PERIOD_S = 0.1
# Seconds one reference unit is taken to last when set-up time is given
# in seconds at the reference speed; about its mean time (8 to 13 ms) on
# the 2-vCPU machine the benchmark was defined on.
REFERENCE_UNIT_S = 0.010
MACHINE_NOTE = ("timing uses only time.perf_counter and getrusage of the "
                "benchmark's own process, and its own interval timer to "
                "schedule the reference blocks; no system-wide tracing, no "
                "cgroup or CPU-governor changes")


def _cmsweep_modules():
    return {name: mod for name, mod in sys.modules.items()
            if name == "cmsweep" or name.startswith("cmsweep.")}


def setup(fixture_dir):
    """Import the cmsweep modules from this checkout and load the fixtures;
    returns the package, the modules by layer and the fixtures."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    package = importlib.import_module("cmsweep")
    if not Path(package.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"cmsweep imported from {package.__file__}, "
                          f"not from {src}")
    mods = {layer: importlib.import_module(f"cmsweep.{layer}")
            for layer in spans.LAYERS}
    fixtures = workloads.load_fixtures(
        fixture_dir or Path(package.__file__).parent / "fixtures")
    return package, mods, fixtures


def time_setup(fixture_dir):
    """Seconds that ``setup`` takes from an empty module cache.  The fresh
    modules are dropped afterwards and the loaded ones put back, so the
    passes keep running the same objects."""
    loaded = _cmsweep_modules()
    for name in loaded:
        del sys.modules[name]
    try:
        t0 = time.perf_counter()
        setup(fixture_dir)
        return time.perf_counter() - t0
    finally:
        for name in _cmsweep_modules():
            del sys.modules[name]
        sys.modules.update(loaded)


def reference_unit():
    """One unit of the reference computation: Gauss-Jordan elimination of
    a fixed REFERENCE_N x REFERENCE_N rational matrix with
    ``fractions.Fraction``, in pure Python and without any cmsweep code.
    It is the same kind of work as the program's (interpreted exact
    arithmetic on small objects), so a host that runs slower for a while
    slows both alike."""
    n = REFERENCE_N
    a = [[Fraction(i * j % 5 - 2, i + j + 1) + 3 * (i == j)
          for j in range(n)] for i in range(n)]
    for c in range(n):
        p = next(r for r in range(c, n) if a[r][c] != 0)
        a[c], a[p] = a[p], a[c]
        inv = 1 / a[c][c]
        a[c] = [x * inv for x in a[c]]
        for r in range(n):
            if r != c and a[r][c] != 0:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return a


def time_reference(units):
    """Seconds that ``units`` reference units take.  The cyclic collector
    is off meanwhile (the reference makes no cycles), so the size of the
    program's heap cannot slow the reference."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(units):
            reference_unit()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Reference:
    """Blocks of the reference computation interleaved with a pass.  While
    the context is open, a one-shot interval timer interrupts the program
    every REFERENCE_PERIOD_S of its own time; the SIGALRM handler runs, in
    this thread, as many reference units as take about as long as the
    program ran since the last block, then re-arms the timer.  So the
    program and the reference share the run's time, and the host's state,
    half and half, at a grain finer than the host's changes of speed."""

    def __init__(self):
        self.unit_s = time_reference(10) / 10
        self.units = 0
        self.seconds = 0.0

    def unit_time_near(self, seconds):
        """Time per unit of a block about ``seconds`` long, run now; the
        block does not count towards the pass blocks."""
        units = max(1, round(seconds / self.unit_s))
        return time_reference(units) / units

    def _block(self, signum=None, frame=None):
        units = max(1, round((time.perf_counter() - self.mark)
                             / self.unit_s))
        self.seconds += time_reference(units)
        self.units += units
        self.mark = time.perf_counter()
        if signum is not None:
            signal.setitimer(signal.ITIMER_REAL, REFERENCE_PERIOD_S)

    def __enter__(self):
        self.previous = signal.signal(signal.SIGALRM, self._block)
        self.mark = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)
        self._block()  # the tail of the pass since the last block


class Runner:
    """Runs gated passes and keeps the totals of every pass."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.baseline = None

    def one_pass(self, tracer=None, reference=None):
        """One gated pass; returns its time, without the reference blocks
        run inside it, and the cases attempted."""
        gc.collect()
        ref_before = reference.seconds if reference else 0.0
        t0 = time.perf_counter()
        if tracer is not None:
            tracer.open_root()
        with reference or contextlib.nullcontext():
            result = self.workload.run_pass()
        if tracer is not None:
            tracer.close_root()
        elapsed = time.perf_counter() - t0
        if reference is not None:
            elapsed -= reference.seconds - ref_before
        if self.baseline is None:
            self.baseline = result.records
        elif result.records != self.baseline:
            # traced and untraced passes must give the same case records
            result.attempted += 1
            result.fail("case records differ from the first pass")
        self.attempted += result.attempted
        self.failed += result.failed
        self.errors.extend(result.errors[:20 - len(self.errors)])
        return elapsed, result.attempted


def end_to_end(runner, seconds, time_setup):
    """Timed passes for ``seconds``, at least MIN_PASSES, interleaved with
    the reference; after each pass ``time_setup`` runs, each time followed
    by a reference block as long as it, until there is one set-up per
    SETUP_INTERVAL_S so far.  ``wall_norm`` is the mean pass time over the
    mean reference unit time; ``setup_s`` is the median set-up time over
    the unit time of its block, in seconds at REFERENCE_UNIT_S a unit.
    The plain times in seconds are reported beside them."""
    reference = Reference()
    times, setups, setup_units, cases = [], [], [], 0
    t_start = time.perf_counter()
    while len(times) < MIN_PASSES or \
            time.perf_counter() - t_start < seconds:
        elapsed, attempted = runner.one_pass(reference=reference)
        times.append(elapsed)
        cases += attempted
        while len(setups) < 1 + (time.perf_counter() - t_start) \
                / SETUP_INTERVAL_S:
            setups.append(time_setup())
            setup_units.append(reference.unit_time_near(setups[-1]))
    wall_s = statistics.fmean(times)
    ref_unit_s = reference.seconds / reference.units
    setup_ref = statistics.median(s / u for s, u in zip(setups, setup_units))
    metrics = {
        "wall_norm": (wall_s / ref_unit_s, "ref"),
        "setup_s": (setup_ref * REFERENCE_UNIT_S, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    q1, med, q3 = statistics.quantiles(times, n=4)
    detail = {"wall_s": wall_s, "cases_per_s": cases / sum(times),
              "pass_quartiles": (q1, med, q3), "samples": len(times),
              "ref_unit_s": ref_unit_s, "ref_units": reference.units,
              "setup_plain_s": statistics.median(setups),
              "setup_samples": len(setups)}
    return metrics, detail


def _unit(name):
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def per_layer(runner, seconds, package, mods, stem):
    """Untraced and traced passes alternate for ``seconds``, at least two
    of each, so both see the same machine load.  Per-layer times are
    medians over the traced passes, and trace.overhead_s is the difference
    of the median pass times.  Counts must repeat exactly on every traced
    pass; if they do not, the run counts one failed case."""
    tracer = spans.Tracer(package, mods)
    plain, traced, per_pass = [], [], []
    t_start = time.perf_counter()
    while len(traced) < 2 or time.perf_counter() - t_start < seconds:
        plain.append(runner.one_pass()[0])
        with tracer:
            patched = len(tracer.patched)
            traced.append(runner.one_pass(tracer)[0])
        per_pass.append(tracer.layer_metrics())
    tracer.write(stem)
    units = {name: _unit(name) for name in per_pass[0]}
    metrics = {name: (per_pass[0][name] if unit == "count" else
                      statistics.median([p[name] for p in per_pass]), unit)
               for name, unit in units.items()}
    metrics["trace.overhead_s"] = (statistics.median(traced)
                                   - statistics.median(plain), "s")
    counts = [{k: v for k, v in p.items() if units[k] == "count"}
              for p in per_pass]
    repeat = all(c == counts[0] for c in counts)
    runner.attempted += 1
    if not repeat:
        runner.failed += 1
        runner.errors.append("per-layer counts differ between traced "
                             "passes")
    detail = {"traced_passes": len(traced), "counts_repeat": repeat,
              "spans_in_last_pass": len(tracer.name),
              "patched_bindings": patched}
    return metrics, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fixtures", type=Path, default=None,
                        help="fixture directory handed to cmsweep and used "
                        "by the gate (default: the packaged fixtures)")
    args = parser.parse_args(argv)

    try:
        package, mods, fixtures = setup(args.fixtures)
    except (ImportError, OSError, ValueError) as exc:
        print(f"bench: cannot set up cmsweep: {exc}", file=sys.stderr)
        return 2
    workload = workloads.make_workload(
        args.workload, args.seed, mods, fixtures,
        str(args.fixtures) if args.fixtures else None)
    runner = Runner(workload)
    runner.one_pass()  # warm-up, gated like every other pass

    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        metrics, detail = per_layer(runner, args.seconds, package, mods,
                                    str(OUT_DIR / args.workload))
    else:
        metrics, detail = end_to_end(
            runner, args.seconds, lambda: time_setup(args.fixtures))

    failed_ratio = runner.failed / runner.attempted
    print(f"workload {args.workload}  seed {args.seed}  "
          f"inputs {json.dumps(workload.inputs)}")
    print(f"machine python {platform.python_version()} "
          f"({platform.python_implementation()})  nproc {os.cpu_count()}  "
          f"{platform.platform()}; {MACHINE_NOTE}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:.6g} {unit}")
    if args.trace:
        print(f"  counts repeat on all {detail['traced_passes']} traced "
              f"passes: {detail['counts_repeat']}  "
              f"({detail['patched_bindings']} bindings patched, "
              f"{detail['spans_in_last_pass']} spans in the last pass)")
    else:
        q1, med, q3 = detail["pass_quartiles"]
        print(f"  {'wall_s':32s} {detail['wall_s']:.6g} s  (mean pass time; "
              f"quartiles {q1:.6g} / {med:.6g} / {q3:.6g} s over "
              f"{detail['samples']} passes)")
        print(f"  {'cases_per_s':32s} {detail['cases_per_s']:.6g} 1/s")
        print(f"  {'setup (plain median)':32s} "
              f"{detail['setup_plain_s']:.6g} s  (over "
              f"{detail['setup_samples']} set-ups)")
        print(f"  reference unit {detail['ref_unit_s'] * 1e3:.6g} ms, "
              f"{detail['ref_units']} units run in the passes")
    print(f"  failed_ratio {failed_ratio:.6g} "
          f"({runner.failed} of {runner.attempted} cases)")
    for err in runner.errors:
        print(f"  FAILED {err}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0 if runner.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
