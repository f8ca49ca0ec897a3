"""Name of the kernel implementation, recorded in run metadata.

The kernels in ``vical._kernels`` have a single numpy implementation;
this name is written to ``metadata.json`` so reports say what computed
them.
"""

from __future__ import annotations


def active() -> str:
    """Return the kernel implementation name (always ``"numpy"``)."""
    return "numpy"
