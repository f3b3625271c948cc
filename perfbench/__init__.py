"""Conclave benchmark harness; run ``python3 perfbench/run.py --help``."""
