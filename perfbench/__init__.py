"""The repository's benchmark: host time and modelled SMR metrics.

See ``perfbench/README.md``; the entry point is ``perfbench/run.py``.
"""
