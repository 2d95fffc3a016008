"""Child processes of the serving workloads.

``child.py bundle --registry DIR``
    trains the gated detector briefly on the small city (serving cost does
    not depend on how well it learned) and publishes it to a model
    registry as ``bench:1``;
``child.py serve --registry DIR --report FILE [--trace]``
    starts a ``ScoringServer`` on an ephemeral port, prints its URL, serves
    until its stdin closes, then writes its peak RSS (and with
    ``--trace`` its spans) to FILE.

Both expect the program's ``src`` and this package's parent directory on
``PYTHONPATH`` (``common.child_env`` sets it).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict


def bundle(registry_dir: str) -> None:
    from repro.core import CMSFConfig, CMSFDetector
    from repro.serve.registry import ModelRegistry

    from cmsfbench.common import MODEL
    from cmsfbench.inputs import city

    graph = city("small")
    config = CMSFConfig(master_epochs=2, slave_epochs=1, patience=None,
                        dropout=0.0, seed=0)
    detector = CMSFDetector(config).fit(graph, graph.labeled_indices())
    registry = ModelRegistry(registry_dir)
    registry.publish(detector, graph, MODEL, version="1")
    registry.save_manifest()


def serve(registry_dir: str, report: str, trace: bool) -> None:
    from repro.serve import ScoringServer

    from cmsfbench.common import peak_rss_mb

    recorder = None
    if trace:
        from cmsfbench.trace import SpanRecorder, install_server
        recorder = SpanRecorder()
        install_server(recorder)
    server = ScoringServer(registry_dir).start()
    try:
        print(server.url, flush=True)
        sys.stdin.read()
    finally:
        server.stop()
    payload = {"peak_rss_mb": peak_rss_mb(),
               "spans": [asdict(span) for span in recorder.spans] if recorder else []}
    with open(report, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_bundle = sub.add_parser("bundle")
    p_bundle.add_argument("--registry", required=True)
    p_serve = sub.add_parser("serve")
    p_serve.add_argument("--registry", required=True)
    p_serve.add_argument("--report", required=True)
    p_serve.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    if args.command == "bundle":
        bundle(args.registry)
    else:
        serve(args.registry, args.report, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
