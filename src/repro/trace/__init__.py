"""Columnar traces and the trace-driven cache simulator of section 5."""
