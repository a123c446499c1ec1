"""The repository's benchmark: three seeded workloads (table1, compile,
service) measured from outside the program, plus a traced run that
breaks the time down by layer.  See perfbench/README.md."""
