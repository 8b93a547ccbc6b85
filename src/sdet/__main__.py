"""python -m sdet: the command-line front end, as the sdet script."""

from .cli import main

if __name__ == "__main__":
    main()
