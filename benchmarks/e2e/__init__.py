"""Host-clock end-to-end benchmark: four workloads, per-layer self time
measured from outside the program, simulated-clock pins (README.md)."""

WORKLOADS = ("knn-topk", "knn-kernel", "serve-stream", "mutate-mix")
