"""Puts the benchmark modules and the repository root on sys.path."""
import os
import sys

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO_ROOT = os.path.dirname(BENCH_DIR)
for path in (BENCH_DIR, REPO_ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)
