"""End-to-end benchmark of the hybrid stochastic-binary network.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload in a fresh interpreter and prints its metrics; see
:mod:`perfbench.run` for the protocol, :mod:`perfbench.workloads` for the
workloads and :mod:`perfbench.metrics` for every metric and which layer
moves which end-to-end number.
"""
