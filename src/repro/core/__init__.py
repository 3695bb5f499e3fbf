"""The Caltech Object Machine: ISA, contexts, caches, pipeline, machine."""
