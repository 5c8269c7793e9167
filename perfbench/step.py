"""One benchmark step, run in a fresh interpreter.

Usage: python3 perfbench/step.py STEP.json

STEP.json names the checkout's ``src`` directory, the CLI command lines to
run in order through ``transitepi.cli.main``, whether to trace, and where to
write the result: the exit code of each command (the step stops at the first
non-zero one), the step's peak resident memory and, when traced, the spans
and counts.
"""

from __future__ import annotations

import json
import sys
import traceback


def peak_rss_mb() -> float:
    """This interpreter's own peak resident set, in MiB.

    ``ru_maxrss`` would not do: Linux carries it over from the parent across
    fork and exec, so a large benchmark process would set the child's floor.
    """
    with open("/proc/self/status", "r", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> int:
    with open(sys.argv[1], "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    from transitepi import cli

    codes = []
    for argv in spec["commands"]:
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = 1
        codes.append(code)
        if code != 0:
            break
    result = {"codes": codes, "peak_rss_mb": peak_rss_mb()}
    if tracer is not None:
        result["trace"] = tracer.export()
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0 if len(codes) == len(spec["commands"]) and not any(codes) else 1


if __name__ == "__main__":
    sys.exit(main())
