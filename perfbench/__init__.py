"""Benchmark for pkat: seeded workloads, a reference verifier and a tracer."""
