"""Run the command-line interface: ``python -m muspec ...``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
