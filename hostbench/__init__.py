"""Host-throughput benchmark of the serving simulator (see README.md)."""
