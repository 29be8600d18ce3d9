"""Run the gapdet CLI with layer tracing installed.

    python3 perfbench/clitrace.py OUT.json <gapdet arguments...>

Behaves like ``python3 -m gapdet.cli``: same output, same exit code.  On
exit it writes the additive span summary to OUT.json and the spans
themselves to OUT.json's name with ``.spans.jsonl`` appended.
"""

import json
import sys
import time

import spans


def main():
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    tracer.install()
    import gapdet.cli
    t0 = time.perf_counter()
    try:
        status = gapdet.cli.main(argv)
    finally:
        wall = time.perf_counter() - t0
        with open(out, "w") as fh:
            json.dump(tracer.raw(wall, 0), fh)
        tracer.dump(out + ".spans.jsonl")
    return status


if __name__ == "__main__":
    sys.exit(main())
