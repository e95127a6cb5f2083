"""End-to-end benchmark of the paper's workload (see README.md)."""
