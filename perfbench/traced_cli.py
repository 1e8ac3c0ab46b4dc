"""Run one `lowdisc` CLI invocation with spans around its layers.

    python traced_cli.py SPANS_OUT SPAWNED_AT ARG...

SPAWNED_AT is the parent's time.perf_counter() just before it started
this process (CLOCK_MONOTONIC on Linux, so comparable across processes);
`import_s` is measured from there to the end of `import lowdisc.cli`, so
it includes interpreter start-up, as a user's invocation does. When the
command returns, SPANS_OUT gets two JSON lines: {"import_s", "dump_s"},
where dump_s is the time spent evaluating deferred counters and
serializing the spans, then the span list. The exit code is the
command's own.
"""

import json
import sys
import time

import spans


def main():
    out, spawned_at, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    import lowdisc.cli
    imported_at = time.perf_counter()
    tracer = spans.Tracer()
    spans.install(tracer, spans.lowdisc_modules())
    try:
        code = lowdisc.cli.main(argv)
    finally:
        returned_at = time.perf_counter()
        body = json.dumps(tracer.finish())
        head = {"import_s": imported_at - spawned_at,
                "dump_s": time.perf_counter() - returned_at}
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(head) + "\n" + body + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
