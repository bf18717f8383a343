"""`python -m vecauto`: the command line of `vecauto.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
