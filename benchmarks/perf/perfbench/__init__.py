"""The repo benchmark's package; see ``benchmarks/perf/README.md``."""
