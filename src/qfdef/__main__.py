"""`python -m qfdef`: the same command line as the `qfdef` script."""

import sys

from .cli import main

sys.exit(main())
