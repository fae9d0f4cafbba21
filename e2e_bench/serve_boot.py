"""Run ``python -m repro serve`` with the layer ledger installed.

Usage: ``python3 e2e_bench/serve_boot.py LEDGER_OUT serve [options]``.
The server runs exactly as ``python -m repro serve [options]`` would;
when it exits (SIGTERM drains it), the per-layer ledger and the GC time
of the server process are written to ``LEDGER_OUT`` as JSON.
"""

from __future__ import annotations

import json
import sys

from common import GcMeter, use_checkout_sources


def main(argv):
    out_path, cli_args = argv[0], argv[1:]
    use_checkout_sources()
    import repro.cli
    from layers import LayerLedger

    ledger = LayerLedger().install()
    with GcMeter() as gc_meter:
        try:
            return repro.cli.main(cli_args)
        finally:
            with open(out_path, "w", encoding="utf-8") as fh:
                json.dump({"ledger": ledger.snapshot(),
                           "absent": ledger.absent,
                           "gc": gc_meter.snapshot()}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
