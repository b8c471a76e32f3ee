"""Entry point of one benchmark party process: ``silosynth party`` with meters.

Usage: party_main.py --stats FILE [--spans FILE] -- party ARGS...

Installs the transport meter (and, with ``--spans``, the layer tracer) before
``silosynth.cli.main`` runs, records when the party is about to enter
run_pipeline, and writes its counts, timestamps, resource use and trace
summary to FILE when the CLI returns.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from silosynth import cli  # noqa: E402

from ops import ledger_totals  # noqa: E402
from tracing import Meter, Patches, Tracer, now  # noqa: E402


def main() -> int:
    argv = sys.argv[1:]
    split = argv.index("--")
    parser = argparse.ArgumentParser()
    parser.add_argument("--stats", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args(argv[:split])

    instrument = Tracer() if args.spans else Meter()
    patches = Patches()
    instrument.install(patches)
    state = {"entered": None, "handshake_end": None, "ledger": None}
    run_pipeline, setup_handshake = cli.run_pipeline, cli.setup_handshake

    def handshake(party, fingerprint):
        setup_handshake(party, fingerprint)
        state["handshake_end"] = now()

    def pipeline(party, *rest):
        state["entered"] = now()
        result = run_pipeline(party, *rest)
        state["ledger"] = ledger_totals(result.ledger)
        return result

    patches.set(cli, "setup_handshake", handshake)
    patches.set(cli, "run_pipeline", pipeline)
    try:
        return cli.main(argv[split + 1:])
    finally:
        patches.undo()
        meter = instrument.meter if args.spans else instrument
        stats = dict(state, counts=meter.summary())
        if args.spans:
            stats["trace"] = instrument.summary()
            instrument.save_spans(args.spans)
        with open(args.stats, "w") as fh:
            json.dump(stats, fh)


if __name__ == "__main__":
    sys.exit(main())
