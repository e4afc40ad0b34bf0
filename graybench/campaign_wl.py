"""``campaign_ra8``: the Corollary 11 fault-injection campaign.

Wrapped RA at n=8 with :class:`CampaignSpec` defaults (W' theta=4, faults
on in steps 40-160), a fixed trial set whose root seed is the benchmark
seed, run through ``run_campaign(workers=2, store_dir=...)`` as ``repro
campaign --workers 2 --store-dir`` does.  The per-step simulator path
dominates: guards, Lspec views, step, trace digest, fault rolls.

The fleet's workers calibrate themselves: the pacer ticks on every
simulator step, and each worker reports its passes after every trial.
"""

from __future__ import annotations

import hashlib
import os
import statistics
import time

from tracing import install_campaign, install_simulation

WORKERS = 2
#: Trials per timed batch (about 4 s on 2 vCPUs).  Every batch runs the
#: same trial set, so every batch must reproduce the same digests.
BATCH_TRIALS = 16
#: The companion pass in the other workloads' runs: batches of 8 trials,
#: median of 2.  Its trial set is fixed (root seed 1, pinned) rather than
#: drawn from the benchmark seed: 8 trials are too few for their lengths
#: to average out across seeds.
COMPANION_TRIALS = 8
COMPANION_BATCHES = 2
COMPANION_SEED = 1
SETUP_REPEATS = 9


def _spec(seed: int):
    from repro.campaign import CampaignSpec

    return CampaignSpec(algorithm="ra", n=8, root_seed=seed)


def _null_trial(spec, trial_id: int):
    """A trial that computes nothing: what is left is the fleet."""
    from repro.campaign.trial import TrialResult

    return TrialResult(trial_id, "converged", 0, 0, 0.0, 0.0, 0, 0, 0, "")


def combined_digest(results) -> str:
    return hashlib.sha256(
        "".join(r.digest for r in results).encode()
    ).hexdigest()[:16]


def _install_pacer(run):
    """Tick the pacer on every simulator step; returns the trial function
    the fleet runs (the default one, reporting its worker's passes) and
    the directory the reports go to."""
    from repro.campaign.sched import default_trial_fn
    from repro.runtime.simulator import Simulator

    pacer = run.pacer
    step = Simulator.step
    dumps = run.fresh_dir("campaign-pacer")

    def paced_step(self):
        pacer.tick()
        return step(self)

    def trial(spec, trial_id):
        pacer.adopt()
        result = default_trial_fn(spec, trial_id)
        pacer.dump(dumps / f"{os.getpid()}.json")
        return result

    run.patch(Simulator, "step", paced_step)
    return trial, dumps


def _batch(run, spec, trials: int, trial_fn, dumps):
    """One timed campaign batch; returns ``(results, meter,
    journal_bytes, requeues)``."""
    from repro.campaign import run_campaign

    store = run.fresh_dir("campaign")
    retry_stats: dict = {}
    with run.pacing(dumps, WORKERS) as meter:
        results = run_campaign(
            spec,
            trials,
            workers=WORKERS,
            store_dir=str(store),
            retry_stats=retry_stats,
            trial_fn=trial_fn,
        )
    journal = sum(p.stat().st_size for p in store.rglob("*") if p.is_file())
    run.attempted += trials
    run.failed += sum(not r.converged for r in results)
    return results, meter, journal, retry_stats.get("requeues", 0)


def _setup(run, seed: int) -> None:
    """Spec and fleet start: the scheduler round-trip of a campaign whose
    trials compute nothing."""
    from repro.campaign import run_campaign

    def once():
        run_campaign(
            _spec(seed),
            WORKERS,
            workers=WORKERS,
            store_dir=str(run.fresh_dir("campaign-setup")),
            trial_fn=_null_trial,
        )

    run.setup(once, SETUP_REPEATS)


def _check(run, seed: int, spec, results, size: str) -> None:
    from repro.campaign.trial import run_trial

    digest = combined_digest(results)
    converged = sum(r.converged for r in results)
    pin = run.pins["campaign_ra8"][size]
    if seed == pin["seed"]:
        run.check(
            converged == pin["converged"] and digest == pin["digest"],
            f"campaign {size}: {converged} converged, digest {digest}; "
            f"pinned {pin['converged']} / {pin['digest']}",
        )
    key = f"campaign {size}"
    if key in run.digests:
        run.check(
            run.digests[key] == digest,
            "campaign: a repeated batch produced different digests",
        )
        return
    run.digests[key] = digest
    # Any seed: the fleet's digest of a trial equals an in-process replay.
    reference = run_trial(spec, results[0].trial_id)
    run.check(
        reference.digest == results[0].digest,
        "campaign: fleet digest differs from in-process trial",
    )


def measure(run, seed: int, size: str, seconds: float) -> None:
    """End-to-end metrics; ``size`` is ``full`` (the workload: batches
    until ``seconds`` have passed, at least two) or ``companion`` (small
    batches inside another workload's run)."""
    if size == "companion":
        seed = COMPANION_SEED
    spec = _spec(seed)
    trials = BATCH_TRIALS if size == "full" else COMPANION_TRIALS
    if size == "full":
        _setup(run, seed)
    trial_fn, dumps = _install_pacer(run)
    rates = []
    deadline = time.perf_counter() + seconds
    while True:
        results, meter, _, _ = _batch(run, spec, trials, trial_fn, dumps)
        _check(run, seed, spec, results, size)
        rates.append((trials / meter.work_s, meter.pass_s))
        if size == "full":
            if len(rates) >= 2 and time.perf_counter() >= deadline:
                break
        elif len(rates) >= COMPANION_BATCHES:
            break
    steps = sum(r.steps for r in results)
    run.rate(
        "trials_per_s", rates,
        f"median of {len(rates)} batches of {trials} trials ({steps} steps)",
    )


def trace(run, seed: int) -> None:
    """Per-layer metrics from one traced batch, plus an untraced
    reference batch for the tracing overhead."""
    spec = _spec(seed)
    trial_fn, dumps = _install_pacer(run)
    ref, ref_meter, journal, requeues = _batch(
        run, spec, BATCH_TRIALS, trial_fn, dumps
    )
    _check(run, seed, spec, ref, "full")

    tracer = run.tracer
    install_simulation(tracer)
    install_campaign(tracer)
    parent = os.getpid()
    spans = run.fresh_dir("campaign-trace")
    adopted: list[int] = []  # each forked worker gets its own copy

    def traced_trial(spec, trial_id):
        if os.getpid() != parent and not adopted:
            # A forked worker inherited the parent's table: start clean.
            tracer.reset()
            adopted.append(os.getpid())
        result = trial_fn(spec, trial_id)
        tracer.dump(spans / f"worker-{os.getpid()}.json")
        return result

    traced, meter, _, requeues2 = _batch(
        run, spec, BATCH_TRIALS, traced_trial, dumps
    )
    _check(run, seed, spec, traced, "full")
    for path in sorted(spans.glob("worker-*.json")):
        tracer.merge_file(path)

    run.overhead(
        (meter.work_s / meter.pass_s)
        / (ref_meter.work_s / ref_meter.pass_s) - 1.0
    )
    run.simulation_layers(
        tracer,
        max(tracer.calls("runtime.execute"), 1),
        max(tracer.calls("dsl.guard"), 1),
    )
    # Trial walls include the workers' calibration passes, so they are
    # set against the batch's whole wall time.
    walls = [r.wall_seconds for r in ref]
    run.layer("campaign.trial.wall_p50_ms", "ms", statistics.median(walls) * 1e3)
    run.layer("campaign.digest.self_s", "s", tracer.self_s("campaign.digest"))
    run.layer("campaign.faults.self_s", "s", tracer.self_s("campaign.faults"))
    run.layer(
        "campaign.journal.append_s", "s",
        tracer.total_s("campaign.journal.append"),
    )
    run.layer("campaign.journal.bytes_per_trial", "B/trial", journal / len(ref))
    run.layer(
        "campaign.fleet.busy_frac", "frac",
        sum(walls) / (WORKERS * ref_meter.wall_s),
    )
    run.layer("campaign.sched.requeues", "count", requeues + requeues2)
