"""The one way a svar-ident process runs: the console script and `python
-m svarident` both call entry(), which ends the process with os._exit."""

import gc
import os
import sys


def entry() -> None:
    """Import the CLI with the collector off, freeze that heap, run main and
    end the process with main's code, skipping interpreter finalization.

    The import (numpy and the whole engine) allocates a large heap and frees
    little of it, so the collections it would set off walk it for nothing.
    The window ends at the freeze: turned on before it, the collector's next
    young collection would walk the whole import-time heap, all of which is
    still young.  Frozen, that heap is never walked again in main's full
    collections.

    Finalization would only tear that heap down, which the kernel does
    anyway.  main has flushed stdout, where a write that fails is its exit
    1, so entry() flushes only stderr, ignoring a failure there as
    finalization does, and calls os._exit.  No atexit callback runs; neither
    svarident nor numpy registers one.  An exception that escapes main ends
    the process the usual way, traceback and finalization included."""
    gc.disable()
    from .cli import main

    gc.freeze()
    gc.enable()
    code = main()
    try:
        sys.stderr.flush()
    except (AttributeError, OSError, ValueError):  # stderr closed, absent or failing
        pass
    os._exit(code)


if __name__ == "__main__":
    entry()
