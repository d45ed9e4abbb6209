"""`python -m skewswitch`: the same command line as the skewswitch script."""

from .cli import main

if __name__ == "__main__":
    main()
