"""``python -m sonckit``: the ``sonckit`` command line."""

from .cli import main

raise SystemExit(main())
