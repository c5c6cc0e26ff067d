"""One benchmark sample: import nsbound, run ``main(argv)`` per command.

Usage: ``python3 child.py SRC_DIR REQUEST.json RESULT.json``

As a script, the child imports ``nsbound.cli`` before anything else, so
that the monotonic clock reading taken right after the import marks the
end of set-up; the parent read the same clock just before it started this
process.  The request lists the argv of each command, the CSV file (if
any) each command writes, and whether to trace.  Without commands the
child only sets up, which is how the parent takes extra set-up samples.
"""

import sys
import time

if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    import nsbound.cli

    IMPORTED_AT = time.clock_gettime(time.CLOCK_MONOTONIC)

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


def run_command(argv: list[str], csv_path: str | None) -> dict:
    """Time one ``main(argv)`` call and capture everything it printed."""
    import nsbound.cli

    if csv_path:
        Path(csv_path).unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    error = None
    rc = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = nsbound.cli.main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        rc = exc.code
    except Exception:
        error = traceback.format_exc()
    seconds = time.perf_counter() - start
    csv = None
    if csv_path and os.path.exists(csv_path):
        csv = Path(csv_path).read_text(encoding="utf-8")
    return {
        "seconds": seconds,
        "rc": rc,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "error": error,
        "csv": csv,
    }


def peak_rss_kib() -> int:
    """This process's resident-set high-water mark.

    Not ``ru_maxrss``: Linux carries that over from the parent across
    fork and exec, so a child of a large parent would report the parent's
    size.  ``VmHWM`` belongs to the address space that exec created.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> None:
    request = json.loads(Path(sys.argv[2]).read_text(encoding="utf-8"))
    src = os.path.realpath(sys.argv[1])
    if not os.path.realpath(nsbound.cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"nsbound was imported from {nsbound.cli.__file__}, not {src}")
    result = {"imported_at": IMPORTED_AT, "commands": [], "spans": [], "missing": []}
    csv = {int(k): v for k, v in request["csv"].items()}
    tracer = None
    if request["trace"]:
        from tracer import Patch, Tracer

        tracer = Tracer()
    with Patch(tracer) if tracer else contextlib.nullcontext() as patch:
        for i, argv in enumerate(request["commands"]):
            result["commands"].append(run_command(argv, csv.get(i)))
    if tracer:
        result["spans"] = tracer.records()
        result["missing"] = patch.missing
    result["peak_rss_kib"] = peak_rss_kib()
    Path(sys.argv[3]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
