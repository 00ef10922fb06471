"""perfbench: the repository's two-clock benchmark (see README.md)."""
