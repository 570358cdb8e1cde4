"""The one way a svar-ident process runs: the console script and `python
-m svarident` both call entry()."""

import gc


def entry() -> None:
    """Import the CLI with the collector off, freeze that heap, then run main.

    The import (numpy and the whole engine) allocates a large heap and frees
    little of it, so the collections it would set off walk it for nothing.
    The window ends at the freeze: turned on before it, the collector's next
    young collection would walk the whole import-time heap, all of which is
    still young.  Frozen, that heap is never walked or freed again: not in
    main's full collections, not at exit."""
    gc.disable()
    from .cli import main

    gc.freeze()
    gc.enable()
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
