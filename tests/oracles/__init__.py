"""Reference implementations kept only to prove equivalence.

Each module here is the straightforward version of a hot path that the
product code replaced with a faster one.  Tests and microbenchmarks
compare the two; nothing under ``src/`` imports from here.
"""
