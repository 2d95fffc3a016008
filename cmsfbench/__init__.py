"""One benchmark for the CMSF stack: four workloads, end to end and layer by layer.

Run ``python3 cmsfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the root of a checkout; see ``cmsfbench/README.md``.
"""
