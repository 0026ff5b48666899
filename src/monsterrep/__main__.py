"""``python -m monsterrep`` runs the command line of ``mm_cli``."""

import sys

from .mm_cli import main

if __name__ == "__main__":
    sys.exit(main())
