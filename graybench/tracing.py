"""Outside-in layer tracing: spans around calls into ``repro``'s layers.

Nothing here edits ``src/``.  ``install_*`` replaces public functions and
methods of a layer, on their classes or in every ``repro`` module that
imported them by name, with a wrapper that records one span per call.
Spans are aggregated in memory per name rather than kept one by one (a
traced campaign batch makes about a million guard calls): call count,
total time, time covered by nested spans (so self time = total -
nested) and, for guards, how many calls returned true.  The traced run
reads them when it ends.  :meth:`Tracer.replace` also serves the
calibration pacer's hooks, so one :meth:`Tracer.restore` undoes every
patch a run made.

Wrappers must be installed before the objects that capture them are
built (programs, clusters) and before worker processes fork, which then
inherit them; a worker dumps its own table with :meth:`Tracer.dump`.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


class Tracer:
    """Span aggregates for one process: ``name -> [calls, total_s,
    nested_s, true_results]``."""

    def __init__(self) -> None:
        self.spans: dict[str, list] = {}
        self._stack: list[list[float]] = []
        self._undo: list[tuple] = []

    def _slot(self, name: str) -> list:
        return self.spans.setdefault(name, [0, 0.0, 0.0, 0])

    def wrap(self, name: str, fn, count_true: bool = False):
        """``fn`` with one ``name`` span per call."""
        slot = self._slot(name)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            nested = [0.0]
            stack.append(nested)
            started = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spent = clock() - started
                stack.pop()
                slot[0] += 1
                slot[1] += spent
                slot[2] += nested[0]
                if stack:
                    stack[-1][0] += spent
            if count_true and result:
                slot[3] += 1
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_iter(self, name: str, fn):
        """A generator function ``fn`` with one ``name`` span per
        ``next()``, so the time spent producing each item is covered."""
        step = self.wrap(name, next)

        def traced(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            while True:
                item = step(iterator, _DONE)
                if item is _DONE:
                    return
                yield item

        traced.__wrapped__ = fn
        return traced

    def replace(self, owner, attr: str, value) -> None:
        """``setattr`` (or item assignment, for a dict ``owner``) that
        :meth:`restore` undoes."""
        if isinstance(owner, dict):
            self._undo.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._undo.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)

    def restore(self) -> None:
        """Put back everything :meth:`replace` replaced."""
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    def reset(self) -> None:
        """Zero every span in place (wrappers hold their slots)."""
        for slot in self.spans.values():
            slot[:] = [0, 0.0, 0.0, 0]

    def patch_method(self, cls, attr: str, name: str, **kw) -> None:
        self.replace(cls, attr, self.wrap(name, getattr(cls, attr), **kw))

    def patch_function(self, module, attr: str, name: str) -> None:
        """Replace ``module.attr`` everywhere in ``repro`` it was
        imported by name."""
        original = getattr(module, attr)
        traced = self.wrap(name, original)
        for mod in list(sys.modules.values()):
            if mod is None or not getattr(mod, "__name__", "").startswith(
                "repro"
            ):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self.replace(mod, key, traced)

    def calls(self, name: str) -> int:
        return self.spans.get(name, [0])[0]

    def total_s(self, name: str) -> float:
        return self.spans.get(name, [0, 0.0])[1]

    def self_s(self, name: str) -> float:
        slot = self.spans.get(name)
        return slot[1] - slot[2] if slot else 0.0

    def true_calls(self, name: str) -> int:
        return self.spans.get(name, [0, 0.0, 0.0, 0])[3]

    def dump(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.spans))

    def merge_file(self, path: str | Path) -> None:
        """Add another process's dumped table to this one."""
        for name, other in json.loads(Path(path).read_text()).items():
            slot = self._slot(name)
            for i, value in enumerate(other):
                slot[i] += value


_DONE = object()


# -- the layers ---------------------------------------------------------------
#
# Span names are the per-layer metric prefixes reported by the traced run.


def install_simulation(tracer: Tracer) -> None:
    """repro.dsl guards, repro.tme Lspec views, repro.runtime steps."""
    from repro.dsl.guards import GuardedAction
    from repro.runtime.process import ProcessRuntime
    from repro.runtime.simulator import Simulator
    from repro.tme import interfaces

    tracer.patch_method(GuardedAction, "enabled", "dsl.guard", count_true=True)
    tracer.patch_function(interfaces, "explicit_adapter", "tme.lspec_view")
    for program, adapter in list(interfaces._ADAPTERS.items()):
        tracer.replace(
            interfaces._ADAPTERS, program, tracer.wrap("tme.lspec_view", adapter)
        )
    tracer.patch_method(Simulator, "step", "runtime.step")
    tracer.patch_method(Simulator, "candidate_steps", "runtime.candidate_steps")
    tracer.patch_method(Simulator, "execute", "runtime.execute")
    tracer.patch_method(
        ProcessRuntime, "enabled_internal_actions", "runtime.enabled_actions"
    )
    tracer.patch_method(ProcessRuntime, "fork", "runtime.fork")


def install_campaign(tracer: Tracer) -> None:
    """repro.campaign: trace digests, fault rolls, journal appends."""
    from repro.campaign.faults import DecidingFaults
    from repro.campaign.journal import CampaignJournal
    from repro.campaign.trial import TraceDigest

    for attr in ("update_step", "update_state", "hexdigest"):
        tracer.patch_method(TraceDigest, attr, "campaign.digest")
    tracer.patch_method(DecidingFaults, "before_step", "campaign.faults")
    for attr in ("lease", "result", "requeue"):
        tracer.patch_method(CampaignJournal, attr, "campaign.journal.append")


def install_explore(tracer: Tracer) -> None:
    """repro.explore: expansion, canonicalization, wire codec, shard logs."""
    from repro.explore import wire
    from repro.explore.packed import PackedGlobalCanonicalizer
    from repro.explore.shard import ShardLog
    from repro.explore.spaces import GlobalSimulatorSpace

    tracer.replace(
        GlobalSimulatorSpace,
        "successors",
        tracer.wrap_iter("explore.expand", GlobalSimulatorSpace.successors),
    )
    tracer.patch_method(
        GlobalSimulatorSpace, "successors_of_key", "explore.expand"
    )
    tracer.patch_method(
        PackedGlobalCanonicalizer, "canonicalize", "explore.canon"
    )
    tracer.patch_method(wire.WireCodec, "encode", "explore.wire.encode")
    tracer.patch_function(wire, "wire_digest", "explore.wire.digest")
    tracer.patch_method(ShardLog, "append", "explore.shard.append")


def install_service(tracer: Tracer) -> None:
    """repro.service: node loop, monitor, lock frontend, frame codec."""
    from repro.service import wire
    from repro.service.lockapi import LockFrontend
    from repro.service.monitor import LiveMonitor
    from repro.service.node import ServiceNode

    tracer.patch_method(ServiceNode, "step_batch", "service.node.step_batch")
    tracer.patch_method(LiveMonitor, "on_event", "service.monitor")
    tracer.patch_method(LockFrontend, "poll", "service.frontend.poll")
    tracer.patch_function(wire, "encode_frame", "service.wire.frame")
    tracer.patch_function(wire, "decode_body", "service.wire.frame")
