"""Entry point for `python -m nefkit` and the `nefkit` console script.

Both run `run`, the one place where the process ends. It flushes what
`cli.main` wrote and exits with its status, or with 1 and a best-effort
`output error:` line on stderr if output cannot be written (a closed pipe or
a full disk). On every way out it freezes the garbage collector, so
finalization walks none of the objects already tracked.
"""

from __future__ import annotations

import gc
import os
import sys

from . import cli


def run() -> None:
    try:
        status = cli.main()
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError as exc:  # a closed pipe or a full disk
        status = 1
        for stream, text in (sys.stdout, ""), (sys.stderr, f"output error: {exc}\n"):
            try:
                stream.write(text)
                stream.flush()
            except OSError:  # what it still holds would fail again, loudly, at exit
                with open(os.devnull, "wb") as devnull:
                    os.dup2(devnull.fileno(), stream.fileno())
    finally:
        gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    run()
