"""One boolekit CLI invocation in a fresh interpreter, timed from inside it.

    python3 child.py MODE RECORD RUN_ID -- ARGV...

MODE is ``setup`` (import boolekit and parse ARGV, nothing more), ``run``
(then call ``boolekit.cli.main(ARGV)``) or ``trace`` (the same with spans
recorded around every public function; the spans go to RECORD + ".trace").
The document goes to stdout, as for any CLI user; timings, the exit code and
the peak RSS go to RECORD as JSON.  The exit status is main's.  The
calibration kernel is timed by the runner, not here, so nothing boolekit does
to this interpreter can reach it.

Only modules the interpreter has already loaded are imported before the
clock starts, so the set-up time covers boolekit's own imports in full.
"""

import sys
import time

_START = time.perf_counter()

mode, record_path, run_id = sys.argv[1:4]
argv = sys.argv[sys.argv.index("--") + 1 :]

import boolekit.cli as cli  # noqa: E402

_IMPORTED = time.perf_counter()
cli.build_parser().parse_args(argv)
_PARSED = time.perf_counter()

record = {
    "mode": mode,
    "module": cli.__file__,
    "import_s": _IMPORTED - _START,
    "parse_s": _PARSED - _IMPORTED,
    "setup_s": _PARSED - _START,
}
code = 0
if mode != "setup":
    recorder = None
    if mode == "trace":
        import boolekit
        import boolekit.boole_identity
        import boolekit.rational_core
        import boolekit.vandermonde
        from spans import SpanRecorder

        recorder = SpanRecorder(run_id)
        recorder.patch(
            [boolekit, cli, boolekit.boole_identity, boolekit.vandermonde, boolekit.rational_core]
        )
    began = time.perf_counter()
    code = cli.main(argv)
    sys.stdout.flush()
    record["run_s"] = time.perf_counter() - began
    if recorder is not None:
        recorder.restore()
        recorder.write(record_path + ".trace")
    record["exit_code"] = code

import json  # noqa: E402
import resource  # noqa: E402

record["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
with open(record_path, "w", encoding="utf-8") as handle:
    json.dump(record, handle)
sys.exit(code)
