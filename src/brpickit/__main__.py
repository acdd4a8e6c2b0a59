"""python -m brpickit: the same command line as the brpic-kit entry point."""

import sys

from .cli import main

sys.exit(main())
