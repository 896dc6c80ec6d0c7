"""One measurement in a fresh interpreter; run.py starts it as a subprocess.

    python3 perfbench/child.py setup WORKLOAD
        time `import hermseq` plus every FieldContext the workload builds

    python3 perfbench/child.py run WORKLOAD OUT_DIR TRACE [A]
        run the workload's commands in-process through hermseq.cli.main,
        timing each one, with spans recorded when TRACE is 1

hermseq is imported from PYTHONPATH, which run.py points at the checkout's
src/.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from workloads import WORKLOADS, command_argv  # noqa: E402


def setup(workload) -> dict:
    start = time.perf_counter()
    from hermseq.field import FieldContext
    for p, e in workload.fields:
        FieldContext(p, e)
    return {"setup_s": time.perf_counter() - start}


def _peak_rss_kib() -> int:
    """Peak resident set of this interpreter in KiB.

    Linux carries ru_maxrss across exec, so a child started by a large
    parent would report the parent's peak; VmHWM belongs to this process
    image alone.  ru_maxrss is the fallback where /proc is absent.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run(workload, out_dir: str, traced: bool, a) -> dict:
    from hermseq import cli
    tracer = None
    if traced:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    commands = []
    for cmd in workload.commands:
        argv = command_argv(cmd, a, out_dir)
        captured = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(captured):
            rc = cli.main(argv)
        seconds = time.perf_counter() - start
        if not cmd.uses_out:
            with open(os.path.join(out_dir, cmd.output), "w") as fh:
                fh.write(captured.getvalue())
        commands.append({"metric": cmd.metric, "rc": rc, "seconds": seconds})
    result = {"commands": commands, "peak_rss_mb": _peak_rss_kib() * 1024 / 1e6}
    if tracer is not None:
        tracer.write(os.path.join(out_dir, "spans.csv"))
        result["spans"] = tracer.summary()
    return result


def main(argv: list[str]) -> int:
    mode, workload = argv[0], WORKLOADS[argv[1]]
    if mode == "setup":
        result = setup(workload)
    else:
        out_dir, traced = argv[2], argv[3] == "1"
        a = argv[4] if len(argv) > 4 else None
        result = run(workload, out_dir, traced, a)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
