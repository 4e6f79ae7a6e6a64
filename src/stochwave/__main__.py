"""``python -m stochwave``: the ``stochwave`` command line (see ``cli``)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
