"""End-to-end job benchmark (see README.md; entry point: run.py)."""
