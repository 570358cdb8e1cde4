"""Module entry point so `python -m svarident` behaves like the console script."""

from .cli import entry

if __name__ == "__main__":
    entry()
