"""``explore_ra4``: bounded exploration of bare RA, n=4 (Theorems 9/10).

Three timed phases on RA n=4 with think/eat delay 1: **exact** in-memory
BFS, **sym** in-memory under ``symmetry="full"``, and **ckpt**, the same
symmetric query with ``store_dir`` (out-of-core: wire encoding, digests
and shard-journal writes).  The state space does not depend on the seed.
"""

from __future__ import annotations

import gc
import os

from tracing import install_explore, install_simulation

#: (phase, symmetry, out-of-core, depth, repeats) for the workload itself
#: and for the small companion pass inside the other workloads' runs,
#: whose 1-2 s phases report the median of three.
PHASES = {
    "full": (
        ("exact", None, False, 10, 1),
        ("sym", "full", False, 11, 1),
        ("ckpt", "full", True, 11, 1),
    ),
    "companion": (
        ("exact", None, False, 8, 3),
        ("sym", "full", False, 10, 3),
        ("ckpt", "full", True, 10, 3),
    ),
}
SETUP_REPEATS = 101


def _programs():
    from repro.tme import ClientConfig, tme_programs

    return tme_programs("ra", 4, ClientConfig(think_delay=1, eat_delay=1))


def _space(programs, symmetry):
    from repro.explore import GlobalSimulatorSpace

    return GlobalSimulatorSpace(programs, symmetry=symmetry)


def _setup(run) -> None:
    """Programs, both spaces and the canonicalizer's permutation tables."""

    def once():
        programs = _programs()
        _space(programs, None)
        _space(programs, "full")

    run.setup(once, SETUP_REPEATS)


def _install_pacer(run):
    """Tick the pacer on every expansion, in this process and in the ckpt
    phase's forked shard worker (which reports when it stops); returns
    the directory the worker's report goes to."""
    from repro.explore import parallel
    from repro.explore.spaces import GlobalSimulatorSpace

    pacer = run.pacer
    successors = GlobalSimulatorSpace.successors
    successors_of_key = GlobalSimulatorSpace.successors_of_key
    worker_main = parallel._worker_main
    dumps = run.fresh_dir("explore-pacer")

    def paced_successors(self, node):
        pacer.tick()
        yield from successors(self, node)

    def paced_successors_of_key(self, state):
        pacer.tick()
        return successors_of_key(self, state)

    def paced_worker(*args, **kwargs):
        pacer.adopt()
        try:
            return worker_main(*args, **kwargs)
        finally:
            pacer.dump(dumps / f"{os.getpid()}.json")

    run.patch(GlobalSimulatorSpace, "successors", paced_successors)
    run.patch(
        GlobalSimulatorSpace, "successors_of_key", paced_successors_of_key
    )
    run.patch(parallel, "_worker_main", paced_worker)
    return dumps


def _phase(run, programs, phase, symmetry, ckpt: bool, depth: int, dumps):
    """One timed exploration; returns ``(exploration, work_s, pass_s,
    spill_bytes)``."""
    from repro.explore import explore

    space = _space(programs, symmetry)
    store = run.fresh_dir(f"explore-{phase}") if ckpt else None
    with run.pacing(dumps) as meter:
        result = explore(
            space,
            max_depth=depth,
            store_dir=None if store is None else str(store),
        )
    spill = 0
    if store is not None:
        spill = sum(p.stat().st_size for p in store.rglob("*") if p.is_file())
    run.attempted += 1
    return result, meter.work_s, meter.pass_s, spill


def _check(run, size: str, phase: str, result) -> str:
    digest = result.content_digest()
    pin = run.pins["explore_ra4"][size][phase]
    run.check(
        result.states == pin["states"] and digest == pin["digest"],
        f"explore {size}/{phase}: {result.states} states, digest {digest}; "
        f"pinned {pin['states']} / {pin['digest']}",
    )
    run.check(not result.stats.truncated, f"explore {phase}: truncated")
    return digest


def _run_phases(run, size: str, dumps, on_phase) -> None:
    """Run and check every phase of ``size``; ``on_phase(phase, samples,
    stats, states, spill_bytes)`` gets one ``(raw_rate, pass_s)`` sample
    per repeat."""
    programs = _programs()
    digests = {}
    for phase, symmetry, ckpt, depth, repeats in PHASES[size]:
        samples = []
        for _ in range(repeats):
            result, work, pass_s, spill = _phase(
                run, programs, phase, symmetry, ckpt, depth, dumps
            )
            digests[phase] = _check(run, size, phase, result)
            samples.append((result.states / work, pass_s))
            stats, states = result.stats, result.states
            del result
            gc.collect()
        on_phase(phase, samples, stats, states, spill)
    run.check(
        digests["ckpt"] == digests["sym"],
        "explore: the out-of-core digest differs from the in-memory one",
    )


def measure(run, seed: int, size: str, seconds: float) -> None:
    """End-to-end metrics (one pass of the three phases)."""
    if size == "full":
        _setup(run)
    dumps = _install_pacer(run)

    def on_phase(phase, samples, stats, states, spill):
        run.rate(
            f"{phase}_states_per_s", samples,
            f"{states} states, median of {len(samples)}",
        )

    _run_phases(run, size, dumps, on_phase)


def trace(run, seed: int) -> None:
    """Per-layer metrics from a traced pass of the three phases; the
    overhead compares the companion exact phase untraced and traced."""
    dumps = _install_pacer(run)
    programs = _programs()
    _, ref_wall, ref_cal, _ = _phase(
        run, programs, "exact", None, False, 8, dumps
    )

    tracer = run.tracer
    install_simulation(tracer)
    install_explore(tracer)
    _, wall, cal, _ = _phase(run, programs, "exact", None, False, 8, dumps)
    run.overhead((wall / cal) / (ref_wall / ref_cal) - 1.0)
    tracer.reset()

    spans = _wrap_shard_worker(run, tracer)
    seen = {}

    def on_phase(phase, samples, stats, states, spill):
        seen[phase] = (stats, spill, states)

    _run_phases(run, "full", dumps, on_phase)
    for path in sorted(spans.glob("*.json")):
        tracer.merge_file(path)

    exact, _, _ = seen["exact"]
    sym, _, _ = seen["sym"]
    _, spill, ckpt_states = seen["ckpt"]
    transitions = sum(stats.transitions for stats, _, _ in seen.values())
    run.simulation_layers(
        tracer, max(transitions, 1), max(tracer.calls("dsl.guard"), 1)
    )
    run.layer("explore.expand.self_s", "s", tracer.self_s("explore.expand"))
    run.layer("explore.dedup_hit_rate", "frac", exact.dedup_hit_rate)
    run.layer("explore.canon.self_s", "s", tracer.self_s("explore.canon"))
    run.layer("explore.canon.hit_rate", "frac", sym.canon_cache_hit_rate)
    run.layer("explore.wire.encode_s", "s", tracer.total_s("explore.wire.encode"))
    run.layer("explore.wire.digest_s", "s", tracer.total_s("explore.wire.digest"))
    run.layer("explore.shard.append_s", "s", tracer.total_s("explore.shard.append"))
    run.layer(
        "explore.shard.spill_bytes_per_state", "B/state", spill / ckpt_states
    )
    run.layer("explore.store.bytes_per_state", "B/state", exact.bytes_per_state)


def _wrap_shard_worker(run, tracer):
    """The ckpt phase expands in a forked shard process: have it start
    from a clean table and dump it when it stops; returns the dump
    directory."""
    from repro.explore import parallel

    dumps = run.fresh_dir("explore-trace-dumps")
    original = parallel._worker_main

    def traced_worker(*args, **kwargs):
        tracer.reset()
        try:
            return original(*args, **kwargs)
        finally:
            tracer.dump(dumps / f"shard-{os.getpid()}.json")

    tracer.replace(parallel, "_worker_main", traced_worker)
    return dumps
