"""Launch ``python -m repro.service`` with the traced layers wrapped.

The spans stay in memory while the server runs and are written to the
first argument when it exits (on SIGINT, as ``python -m repro.service``
shuts down).  The remaining arguments go to the service unchanged::

    PYTHONPATH=src python3 perfbench/traced_server.py spans.json --port 0
"""

from __future__ import annotations

import sys

import layers
from tracer import Tracer


def main(argv: list[str]) -> int:
    spans_out, service_args = argv[0], argv[1:]
    tracer = Tracer()
    layers.install(tracer)
    from repro.service.__main__ import main as serve
    try:
        return serve(service_args)
    finally:
        tracer.write(spans_out)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
