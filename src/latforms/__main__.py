"""``python -m latforms``: the command line of latforms.cli."""

from .cli import main

if __name__ == "__main__":
    main()
