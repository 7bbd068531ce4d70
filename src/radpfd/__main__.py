"""`python -m radpfd`: the radpfd command, as radpfd.cli.main runs it."""
from .cli import main

raise SystemExit(main())
