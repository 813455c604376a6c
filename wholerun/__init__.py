"""Whole-run benchmark of the library; see README.md and run.py."""
