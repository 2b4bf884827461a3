"""Run one ``repro`` CLI command with its layers traced.

Usage: ``python perfbench/cli_child.py <repro arguments...>`` with
``PERFBENCH_SPOOL``, ``PERFBENCH_PARENT`` and ``PERFBENCH_ROUND`` set
by the benchmark (see ``tracing.py``).  It behaves like
``python -m repro <arguments...>``; the import of the CLI is one span,
and the spans are spooled for the parent to merge.  Only the traced
rounds use this wrapper: untraced rounds run ``python -m repro``.
"""

import os
import sys
from pathlib import Path

import tracing


def main() -> int:
    tracer = tracing.Tracer.for_cli_child()
    with tracer.span("import"):
        import repro.cli
    tracing.install_layers(tracer)
    try:
        return repro.cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
        tracer.spool(Path(os.environ[tracing.SPOOL_ENV]))


if __name__ == "__main__":
    sys.exit(main())
