"""Entry point for `python -m nefkit` and the `nefkit` console script.

Both run `run`, the one place where the process ends. It flushes what
`cli.main` wrote and exits with its status, or with 1 and a best-effort
`output error:` line on stderr if output cannot be written (a closed pipe, a
full disk, a stream whose file descriptor was closed at start-up, which
Python leaves as None, or text that the stream's encoding cannot hold). On
every way out it freezes the garbage collector, so finalization walks none
of the objects already tracked.
"""

from __future__ import annotations

import errno
import gc
import io
import os
import sys

from . import cli


class _Closed(io.TextIOBase):
    """Stands in for a standard stream that is None because its file
    descriptor was closed at start-up. It takes writes, as a buffer does, and
    the next flush after any text fails once, as a closed descriptor would;
    so nothing written to stderr ever reaches stdout."""

    pending = False

    def write(self, text: str) -> int:
        self.pending = self.pending or bool(text)
        return len(text)

    def flush(self) -> None:
        if self.pending:
            self.pending = False
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))


def run() -> None:
    for name in "stdout", "stderr":
        if getattr(sys, name) is None:
            setattr(sys, name, _Closed())
    try:
        status = cli.main()
        sys.stdout.flush()
        sys.stderr.flush()
    except (OSError, UnicodeEncodeError) as exc:  # output that cannot be written
        status = 1
        for stream, text in (sys.stdout, ""), (sys.stderr, f"output error: {exc}\n"):
            if isinstance(stream, _Closed):  # no text can reach it
                continue
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
