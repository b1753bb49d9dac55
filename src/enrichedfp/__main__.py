"""``python -m enrichedfp``: the command line front end of :mod:`enrichedfp.cli`."""

from .cli import main_entry

if __name__ == "__main__":
    main_entry()
