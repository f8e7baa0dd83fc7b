"""Entry point for `python -m nefkit` and the `nefkit` console script.

Both run `run`, which ends the process with `cli.main`'s exit status and
freezes the garbage collector on the way out, whatever way out that is: a
normal return, argparse's `SystemExit(2)`, a dataset or scan error status, or
an unexpected exception. The process is ending, so a collection frees nothing
that the operating system would not reclaim anyway; yet the interpreter's
finalization would walk every tracked object, most of them from `site` and the
standard library. Frozen objects are never walked. Stream flushing, `atexit`
handlers, output and exit status stay as they are. `cli.main` itself leaves
the collector alone, so callers that run it in-process keep normal collection.
"""

from __future__ import annotations

import gc
import sys

from . import cli


def run() -> None:
    try:
        sys.exit(cli.main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
