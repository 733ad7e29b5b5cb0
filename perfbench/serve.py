"""Run the simulation service for the campaign_service workload.

Run from the repository root::

    python3 perfbench/serve.py [--spans FILE] -- <python -m repro.service arguments>

This runs ``python -m repro.service`` unchanged.  With ``--spans``, the
traced run's layer wrappers are installed first (the checkpoint store runs
in this process), and the spans are written to ``FILE`` when the service
exits after SIGTERM.
"""

from __future__ import annotations

import atexit
import runpy
import sys
from pathlib import Path

ROOT = Path.cwd()
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def main() -> None:
    argv = sys.argv[1:]
    split = argv.index("--")
    options, service_args = argv[:split], argv[split + 1:]
    if options[:1] == ["--spans"]:
        import workloads
        from tracing import Tracer

        tracer = Tracer()
        workloads.install_wrappers(tracer)
        atexit.register(tracer.dump, Path(options[1]))
    sys.argv = ["python -m repro.service", *service_args]
    runpy.run_module("repro.service", run_name="__main__", alter_sys=True)


if __name__ == "__main__":
    main()
