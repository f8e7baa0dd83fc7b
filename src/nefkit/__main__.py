"""Entry point for `python -m nefkit` and the `nefkit` console script.

Both run `run`, the one place where the process ends and the one writer of
what nefkit prints. While `cli.main` runs, stdout and stderr are buffers, so
help and usage errors from argparse land there too; `run` then writes each
buffer's text to its real stream, stdout first, flushes it, and exits with
the status. So stderr text reaches the stream when the command ends. If the
output cannot be written (a closed pipe, a full disk, a stream whose file
descriptor was closed at start-up, which Python leaves as None, or text that
the stream's encoding cannot hold), it exits with 1 and a best-effort
`output error:` line on stderr, and never writes stderr's text on stdout. A
bug's traceback still reaches the real stderr. On every way out it freezes
the garbage collector, so finalization walks none of the objects already
tracked.
"""

from __future__ import annotations

import errno
import gc
import io
import os
import sys

from . import cli


def run() -> None:
    streams = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
    try:
        try:
            status = cli.main()
        finally:
            texts = sys.stdout.getvalue(), sys.stderr.getvalue()
            sys.stdout, sys.stderr = streams
        for stream, text in zip(streams, texts):
            if not text:
                continue
            if stream is None:  # its descriptor was closed at start-up
                raise OSError(errno.EBADF, os.strerror(errno.EBADF))
            stream.write(text)
            stream.flush()
    except (OSError, UnicodeEncodeError) as exc:  # output that cannot be written
        status = 1
        for stream, text in (sys.stdout, ""), (sys.stderr, f"output error: {exc}\n"):
            if stream is None:  # no text can reach it
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
