"""``python -m toricpack``: the command-line interface."""

from .cli import main

raise SystemExit(main())
