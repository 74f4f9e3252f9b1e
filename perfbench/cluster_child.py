"""The server process of router-split: a router and two shards.

Started by ``router_split.py``; not run by hand.  It builds a
``LocalCluster`` over two warehouses with ``Observability`` on every
node, as ``python -m repro.cluster`` does, prints its ports as one JSON
line, then answers one-line commands on stdin with one JSON line each:

``collect``   a full garbage collection (before each timed phase)
``mark``      start recording the per-layer ledger (traced run)
``watch``     note when every shard's lazy migration completes
``complete``  wait for that moment and report it (``time.monotonic``)
``report``    stop recording; peak RSS and the ledger
``quit``      shut the cluster down and exit
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "src"))

from repro.cluster import LocalCluster  # noqa: E402
from repro.obs import Observability  # noqa: E402

from tracer import Tracer, version_walk  # noqa: E402
from workloads import (  # noqa: E402
    DRAIN_TIMEOUT_S,
    peak_rss_mb,
    router_scale,
    settle,
)


def watch(cluster: LocalCluster, done: dict) -> None:
    for db in cluster.shard_dbs:
        while not db.migration_engines():
            time.sleep(0.005)
    for db in cluster.shard_dbs:
        for engine in db.migration_engines():
            engine.await_completion(DRAIN_TIMEOUT_S)
    done["at"] = time.monotonic()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    tracer = Tracer(server=True).install() if args.trace else None
    obs_factory = Observability
    if tracer is not None:
        def obs_factory():
            return tracer.wrap_observability(Observability())
    cluster = LocalCluster(n_shards=2, scale=router_scale(args.seed),
                           obs_factory=obs_factory)
    watcher: threading.Thread | None = None
    done: dict = {}

    def reply(payload: dict) -> None:
        sys.stdout.write(json.dumps(payload) + "\n")
        sys.stdout.flush()

    try:
        reply({"router": cluster.port,
               "shards": [server.port for server in cluster.shard_servers]})
        for line in sys.stdin:
            command = line.strip()
            if command == "collect":
                settle()
                reply({})
            elif command == "mark" and tracer is not None:
                tracer.enabled = True
                reply({})
            elif command == "watch":
                watcher = threading.Thread(target=watch, args=(cluster, done),
                                           daemon=True)
                watcher.start()
                reply({})
            elif command == "complete" and watcher is not None:
                watcher.join(DRAIN_TIMEOUT_S)
                reply({"at": done.get("at"),
                       "complete": cluster.migrations_complete()})
            elif command == "report":
                totals = None
                if tracer is not None:
                    tracer.enabled = False
                    totals = tracer.totals()
                    totals["counts"].update(version_walk(cluster.shard_dbs))
                reply({"peak_rss_mb": peak_rss_mb(), "totals": totals})
            elif command == "quit":
                break
            else:
                reply({"error": f"unknown command {command!r}"})
    finally:
        cluster.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
