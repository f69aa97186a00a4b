"""Elliptic biorthogonal rational functions and their degeneration scheme."""

__version__ = "0.1.0"
