"""Benchmark of the coarsesum CLI: see REPRODUCE.md."""
