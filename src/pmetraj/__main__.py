"""`python3 -m pmetraj ...`: the command line of pmetraj.cli."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
