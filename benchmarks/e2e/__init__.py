"""The repo's end-to-end benchmark (see README.md in this directory).

Five workloads through the full stack, two clocks (host time the
simulator costs, simulated time the modelled cloud takes), and a
profiler pass that splits host time by ``repro`` package.  Imports only
``repro.*`` so the figure harness can change without touching it.
"""
