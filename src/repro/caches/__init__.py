"""Cache models: the ITLB, instruction cache and their shared substrate."""
