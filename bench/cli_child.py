"""One traced CLI command:  python3 bench/cli_child.py TRACE_FILE ARGS...

Times ``import cyclezeta.cli``, installs the tracer, runs ``cli.main(ARGS)``
as one job and writes the import time, the time ``main`` took, the time
spent setting up the tracer and the tracer summary to TRACE_FILE as JSON.
The command's own output goes to standard output as usual.
"""

import json
import sys
import time


def main() -> int:
    trace_file, argv = sys.argv[1], sys.argv[2:]
    t = time.perf_counter()
    import cyclezeta.cli
    import_s = time.perf_counter() - t

    t = time.perf_counter()
    from tracer import Tracer
    tracer = Tracer()
    tracer.install()
    tracer_s = time.perf_counter() - t

    t = time.perf_counter()
    code = tracer.run_job(0, "cli", lambda: cyclezeta.cli.main(argv))
    main_s = time.perf_counter() - t
    sys.stdout.flush()

    t = time.perf_counter()
    summary = tracer.summary()
    tracer.dump(trace_file + ".spans")
    tracer_s += time.perf_counter() - t
    with open(trace_file, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "main_s": main_s, "tracer_s": tracer_s,
                   "summary": summary}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
