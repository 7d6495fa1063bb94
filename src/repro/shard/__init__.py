"""Retired: scatter-gather sharding is gone, and each engine runs every
read on its one storage stack.

Only :func:`repro.shard.executor.scatter_gather` is left, as a stub the
end-to-end benchmark's tracer patches; the ``[benchmark]`` change of
ROADMAP item 0(f) deletes this package.
"""
