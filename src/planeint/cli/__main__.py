"""``python -m planeint.cli``: the package is imported first, so the front is compiled once."""

import sys

from . import main

sys.exit(main())
