"""``python -m plislab``: the same command line as the ``plislab`` script."""

from .cli import main

if __name__ == "__main__":
    main()
