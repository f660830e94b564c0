"""The repository benchmark (see DESIGN.md and BENCHMARK.json)."""
