"""The repository's benchmark: one workload, one seed, one result line.

Usage (from the repository root)::

    python3 graybench/run.py --workload campaign_ra8 --seed 1 --seconds 8 --trace 0

Workloads: ``campaign_ra8``, ``explore_ra4``, ``service_ra3`` (see
README.md beside this file).  A run measures its workload in full and a
small companion pass of the other two, so every end-to-end metric is
reported by every workload; it checks every output against pins and
invariants, and prints human-readable report lines followed by one JSON
result line.  A wrong output exits 1 without a result line; a directory
without ``src/repro`` exits 2.

``--trace 1`` instead runs the workload once with spans around the
calls into each ``repro`` layer (tracing.py) and reports the per-layer
metrics, plus the tracing overhead against an untraced reference.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calib  # noqa: E402
from tracing import Tracer  # noqa: E402

WORKLOADS = ("campaign_ra8", "explore_ra4", "service_ra3")

#: End-to-end metrics reported at the calibration kernel's reference
#: speed: those whose measured spread (spread.json) calibration narrowed.
CALIBRATED = frozenset(
    {
        "setup_s",
        "trials_per_s",
        "exact_states_per_s",
        "sym_states_per_s",
        "ckpt_states_per_s",
        "grants_per_s",
    }
)

#: Every per-layer metric, in report order; a layer the workload does
#: not exercise reports 0.
LAYER_METRICS = (
    ("dsl.guard.calls_per_step", "1/step"),
    ("dsl.guard.true_frac", "frac"),
    ("dsl.guard.self_s", "s"),
    ("tme.lspec_view.builds_per_step", "1/step"),
    ("tme.lspec_view.self_s", "s"),
    ("runtime.step.calls", "count"),
    ("runtime.candidate_steps.self_s", "s"),
    ("runtime.enabled_actions.self_s", "s"),
    ("runtime.execute.self_s", "s"),
    ("runtime.fork.calls", "count"),
    ("campaign.trial.wall_p50_ms", "ms"),
    ("campaign.digest.self_s", "s"),
    ("campaign.faults.self_s", "s"),
    ("campaign.journal.append_s", "s"),
    ("campaign.journal.bytes_per_trial", "B/trial"),
    ("campaign.fleet.busy_frac", "frac"),
    ("campaign.sched.requeues", "count"),
    ("explore.expand.self_s", "s"),
    ("explore.dedup_hit_rate", "frac"),
    ("explore.canon.self_s", "s"),
    ("explore.canon.hit_rate", "frac"),
    ("explore.wire.encode_s", "s"),
    ("explore.wire.digest_s", "s"),
    ("explore.shard.append_s", "s"),
    ("explore.shard.spill_bytes_per_state", "B/state"),
    ("explore.store.bytes_per_state", "B/state"),
    ("service.node.step_batch.self_s", "s"),
    ("service.node.busy_frac", "frac"),
    ("service.monitor.self_s", "s"),
    ("service.frontend.poll_s", "s"),
    ("service.wire.frame_s", "s"),
    ("service.msgs_per_grant", "1/grant"),
    ("service.acquire.retries", "count"),
    ("service.grant_p50_ms", "ms"),
    ("service.grant_p99_ms", "ms"),
    ("bench.calibration_s", "s"),
    ("bench.gen_lag_p99_ms", "ms"),
    ("bench.backlog_end", "count"),
    ("bench.trace_overhead_frac", "frac"),
)


class WrongOutput(Exception):
    """The program computed something other than the pinned result."""


class Run:
    """State of one benchmark run: metrics, counters, scratch space."""

    def __init__(self, root: Path, pins: dict):
        self.root = root
        self.pins = pins
        self.calib = calib.Calibration()
        self.pacer = calib.Pacer()
        self.tracer = Tracer()
        self.metrics: dict[str, dict] = {}
        self.raw: dict[str, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.digests: dict[str, str] = {}
        self.children: list = []
        self.scratch = root / ".graybench_tmp" / f"run-{time.time_ns()}"
        self._dirs = 0

    def fresh_dir(self, name: str) -> Path:
        self._dirs += 1
        path = self.scratch / f"{self._dirs:03d}-{name}"
        path.mkdir(parents=True)
        return path

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            raise WrongOutput(message)

    def observe(self, name, unit, raw, calibrated, note="") -> float:
        """Print and record a measurement, raw and calibrated; returns
        the value the benchmark reports for it."""
        value = calibrated if name in CALIBRATED else raw
        self.raw[name] = {"raw": raw, "calibrated": calibrated}
        print(
            f"{name:<20} raw {raw:12.4f} {unit:<3} calibrated "
            f"{calibrated:12.4f} {unit:<3} {note}"
        )
        return value

    def _emit(self, name, unit, raw, calibrated, note=""):
        value = self.observe(name, unit, raw, calibrated, note)
        self.metrics[name] = {"value": value, "unit": unit}

    def rate(self, name: str, samples, note: str = "") -> None:
        """Median of ``(raw_rate, pass_s)`` samples, raw and calibrated."""
        raw = statistics.median(r for r, _ in samples)
        cal = statistics.median(calib.scale_rate(r, c) for r, c in samples)
        self._emit(name, "1/s", raw, cal, note)

    def setup(self, fn, repeats: int, discard=None):
        """Time ``fn()`` ``repeats`` times, each from a collected heap and
        followed by a kernel pass, and emit the medians.  Every result but
        the last goes to ``discard`` (untimed); the last is returned."""
        times, passes = [], [calib.timed_pass()]
        for i in range(repeats):
            gc.collect()
            started = time.perf_counter()
            result = fn()
            times.append(time.perf_counter() - started)
            passes.append(calib.timed_pass())
            if discard is not None and i < repeats - 1:
                discard(result)
        raw = statistics.median(times)
        pass_s = statistics.median(passes)
        self.calib.samples.append(pass_s)
        self._emit("setup_s", "s", raw, calib.scale_time(raw, pass_s),
                   f"median of {repeats}")
        return result

    def patch(self, owner, attr: str, value) -> None:
        """Replace ``owner.attr`` until the run closes."""
        self.tracer.replace(owner, attr, value)

    @contextmanager
    def pacing(self, dumps: Path | None = None, parallel: int = 1):
        """Time the body while the pacer's hooks tick.  The yielded meter
        gets ``wall_s``, ``work_s`` (wall time minus the passes run inside
        it) and ``pass_s`` on exit.  ``dumps`` holds the pacer files of forked
        workers whose passes also ran inside the wall time, ``parallel``
        at a time."""
        pacer = self.pacer
        meter = SimpleNamespace()
        pacer.reset()
        pacer.force()
        before = pacer.kernel_s
        started = time.perf_counter()
        yield meter
        wall = time.perf_counter() - started
        inside = pacer.kernel_s - before
        pacer.force()
        if dumps is not None:
            workers = calib.Pacer()
            for path in sorted(dumps.glob("*.json")):
                workers.merge(path)
                path.unlink()
            inside += workers.kernel_s / parallel
            pacer.kernel_s += workers.kernel_s
            pacer.passes += workers.passes
        meter.wall_s = wall
        meter.work_s = wall - inside
        meter.pass_s = self.calib.add(pacer)

    def peak_rss(self) -> None:
        kib = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        )
        self._emit("peak_rss_mb", "MB", kib / 1024, kib / 1024)

    # -- per-layer --------------------------------------------------------

    def layer(self, name: str, unit: str, value: float) -> None:
        self.metrics[name] = {"value": value, "unit": unit}

    def overhead(self, frac: float) -> None:
        self.layer("bench.trace_overhead_frac", "frac", frac)

    def simulation_layers(self, tracer: Tracer, steps: int, guards: int):
        """dsl/tme/runtime metrics; ``steps`` is the workload's step (or
        transition) count that the per-step ratios divide by."""
        self.layer("dsl.guard.calls_per_step", "1/step",
                   tracer.calls("dsl.guard") / steps)
        self.layer("dsl.guard.true_frac", "frac",
                   tracer.true_calls("dsl.guard") / guards)
        self.layer("dsl.guard.self_s", "s", tracer.self_s("dsl.guard"))
        self.layer("tme.lspec_view.builds_per_step", "1/step",
                   tracer.calls("tme.lspec_view") / steps)
        self.layer("tme.lspec_view.self_s", "s",
                   tracer.self_s("tme.lspec_view"))
        self.layer("runtime.step.calls", "count", tracer.calls("runtime.step"))
        for span in ("candidate_steps", "enabled_actions", "execute"):
            self.layer(f"runtime.{span}.self_s", "s",
                       tracer.self_s(f"runtime.{span}"))
        self.layer("runtime.fork.calls", "count", tracer.calls("runtime.fork"))

    def close(self) -> None:
        self.tracer.restore()
        for proc in self.children:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        shutil.rmtree(self.scratch, ignore_errors=True)
        try:
            self.scratch.parent.rmdir()
        except OSError:
            pass


def _modules():
    import campaign_wl
    import explore_wl
    import service_wl

    return {
        "campaign_ra8": campaign_wl,
        "explore_ra4": explore_wl,
        "service_ra3": service_wl,
    }


def execute(run: Run, workload: str, seed: int, seconds: float, trace: bool):
    modules = _modules()
    if trace:
        modules[workload].trace(run, seed)
        run.layer("bench.calibration_s", "s", run.calib.median)
        for name, unit in LAYER_METRICS:
            run.metrics.setdefault(name, {"value": 0, "unit": unit})
        return {name: run.metrics[name] for name, _ in LAYER_METRICS}
    modules[workload].measure(run, seed, "full", seconds)
    for other in WORKLOADS:
        if other != workload:
            modules[other].measure(run, seed, "companion", 0)
    run.peak_rss()
    print(f"calibration: median kernel pass {run.calib.median * 1e3:.3f} ms "
          f"over {len(run.calib.samples)} phases "
          f"(reference {calib.REFERENCE_S * 1e3:.3f} ms)")
    run.raw["calibration_pass_s"] = {"raw": run.calib.median,
                                     "calibrated": run.calib.median}
    print("graybench-raw " + json.dumps(run.raw))
    return run.metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"graybench: no src/repro under {root}; run from the "
              f"repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    pins = json.loads((HERE / "pins.json").read_text())

    run = Run(root, pins)
    try:
        metrics = execute(
            run, args.workload, args.seed, args.seconds, bool(args.trace)
        )
    except WrongOutput as exc:
        print(f"graybench: wrong output: {exc}", file=sys.stderr)
        return 1
    finally:
        run.close()
    print(json.dumps({
        "correct": True,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
