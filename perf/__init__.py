"""The repo's performance benchmark (see ``perf/README.md``).

``python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1`` is
the only entry point; nothing under ``src/`` imports this package.
"""
