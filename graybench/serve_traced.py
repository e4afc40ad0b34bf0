"""``repro serve`` with the service's layers traced (see tracing.py).

Usage: ``python3 graybench/serve_traced.py DUMP.json serve [serve args]``.
Runs the ordinary ``repro serve`` command after installing the span
wrappers, and on exit writes the span table plus the server's serving
wall time and executed node steps to ``DUMP.json``.
"""

from __future__ import annotations

import json
import sys
import time

from tracing import Tracer, install_service, install_simulation


def main(argv: list[str]) -> int:
    dump, serve_args = argv[0], argv[1:]
    from repro import cli
    from repro.service.cluster import LocalCluster

    tracer = Tracer()
    install_simulation(tracer)
    install_service(tracer)
    info: dict = {}
    start, stop = LocalCluster.start, LocalCluster.stop

    async def traced_start(self):
        addresses = await start(self)
        info["started"] = time.perf_counter()
        return addresses

    async def traced_stop(self):
        info["wall_s"] = time.perf_counter() - info["started"]
        report = await stop(self)
        info["steps"] = sum(n.steps_executed for n in self.nodes.values())
        return report

    LocalCluster.start, LocalCluster.stop = traced_start, traced_stop
    try:
        return cli.main(serve_args)
    finally:
        with open(dump, "w") as out:
            json.dump({"spans": tracer.spans, **info}, out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
