"""The ``motifdiff`` command: ``python -m motifdiff`` and the installed script."""

import os
import sys

from . import cli


def main() -> None:
    """Run ``cli.main()``, flush stdout and stderr, and end the process
    without the interpreter's teardown.

    The teardown (final garbage collection passes, freeing every module's
    objects) costs about 10 ms a process, more with numpy loaded, and no
    output waits for it: ``cli.main`` writes every output file inside a
    ``with`` block, and ``parallel.ordered_map`` reaps its workers before
    it returns. The exit
    status is the interpreter's: the code ``cli.main`` returns, or 120 when
    a final flush fails, a failed stdout reported as the interpreter reports
    it. That report cannot be left to a second flush at exit: a failed flush
    of more than the stream's buffer holds drops those bytes, and the
    second one passes. An exception out of ``cli.main`` (argparse's
    ``SystemExit`` included) leaves the ordinary way.
    """
    code = cli.main()
    for stream in (sys.stdout, sys.stderr):
        if stream is None or stream.closed:
            continue
        try:
            stream.flush()
        except Exception as exc:
            code = 120
            if stream is sys.stdout:
                from traceback import format_exception_only
                error = "".join(format_exception_only(type(exc), exc))
                try:  # the interpreter, too, drops a report it cannot write
                    sys.stderr.write(f"Exception ignored in: {stream!r}\n{error}")
                except Exception:
                    pass
    os._exit(code)


if __name__ == "__main__":
    main()
