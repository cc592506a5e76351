"""Run the permderiv CLI in a child process with the tracer installed.

    python3 bench/cli_launcher.py TRACE_OUT VERB [ARGS...]

`src` must be on PYTHONPATH.  Times `import permderiv.cli` and
`permderiv.cli.main(argv)`, writes the counters, spans and both times as JSON
to TRACE_OUT, and exits with the CLI's exit code.
"""

import json
import sys
import time

from tracing import Tracer


def main() -> int:
    trace_out, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import permderiv.cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    tracer.active = True
    tracer.request = 0
    start = time.perf_counter()
    code = permderiv.cli.main(argv)
    main_s = time.perf_counter() - start
    tracer.active = False
    sys.stdout.flush()
    with open(trace_out, "w") as fh:
        json.dump({**tracer.export(), "import_s": import_s, "main_s": main_s}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
