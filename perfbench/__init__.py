"""Layer-attributed benchmark of the three CLI entry points (see run.py)."""
