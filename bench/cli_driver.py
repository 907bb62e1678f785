"""Run one cryoion command with the benchmark's span wrappers installed.

    python bench/cli_driver.py SPANS_JSON ARG...

is ``python -m cryoion ARG...`` plus tracing: it times the import of
``cryoion.cli``, wraps the public functions (see spans.py), calls
``cryoion.cli.main(ARG...)`` inside a ``cli.main`` span and, after main
returns, writes the spans and stage times to SPANS_JSON; ``dump_s`` is the
time taken to serialise the spans, which is tracing cost.  The exit code is
main's.
"""
import sys
import time

import spans

if __name__ == "__main__":
    clock = time.perf_counter
    out_path, argv = sys.argv[1], sys.argv[2:]
    t0 = clock()
    import cryoion.cli

    t1 = clock()
    tracer = spans.Tracer()
    spans.Patch(tracer).install()
    t2 = clock()
    code = tracer.call("cli.main", cryoion.cli.main, argv)
    t3 = clock()
    sys.stdout.flush()
    import json

    body = json.dumps(tracer.spans)
    stages = {"import_s": t1 - t0, "install_s": t2 - t1, "main_s": t3 - t2,
              "dump_s": clock() - t3}
    with open(out_path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(stages)[:-1] + ', "spans": ' + body + "}")
    sys.exit(code)
