"""Tagged memory and the three address spaces (paper sections 2.2, 3.1)."""
