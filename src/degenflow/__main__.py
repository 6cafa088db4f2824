"""``python -m degenflow``: the degenflow command line (see degenflow.cli)."""

import sys

from .cli import main

sys.exit(main())
