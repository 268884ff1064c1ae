"""Run one gradient-decay CLI command in this process, for the benchmark.

    python3 bench/child.py MARKS_JSON FIRST_WORK TRACE_JSON|- RUN_ID -- CLI_ARG...

``src`` must be on PYTHONPATH.  FIRST_WORK names the binding
(``module:attr``) whose first call ends set-up; its clock reading goes to
MARKS_JSON.  With a TRACE_JSON path the public functions are wrapped
(see spans.py) and their spans are written there when the command ends.
"""

import json
import sys

import spans


def main() -> int:
    marks_path, first_work, trace_path, run_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit(__doc__)
    from gradient_decay import cli

    tracer = None
    if trace_path != "-":
        tracer = spans.Tracer(int(run_id))
        tracer.install()
    marks: dict = {}
    spans.mark_first_call(first_work, marks)
    try:
        return cli.main(argv)
    finally:
        with open(marks_path, "w") as f:
            json.dump(marks, f)
        if tracer is not None:
            tracer.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main())
