"""The repository benchmark: end-to-end and per-layer numbers from one command.

``python3 lcebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
runs one workload (see :mod:`lcebench.spec`), checks every reply
bit-exact against the reference :class:`repro.graph.Executor`, and prints
every metric by name and unit, ending with one JSON result line.
"""
