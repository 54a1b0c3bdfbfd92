"""``python -m thzgen``: the same command line as the ``thzgen`` script."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
