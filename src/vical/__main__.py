"""``python -m vical``: the same entry point as the ``vical`` script."""

from .cli import main

if __name__ == "__main__":
    main()
