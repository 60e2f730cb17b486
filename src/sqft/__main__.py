"""`python -m sqft`: the command-line interface of sqft.cli."""

import sys

from .cli import main

sys.exit(main())
