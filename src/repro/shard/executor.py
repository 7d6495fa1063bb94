"""The retired scatter-gather driver's last name (see the package
docstring)."""

from ..errors import PlanError


def scatter_gather(*args, **kwargs):
    """Always raises :class:`PlanError`: no engine shards its reads.
    Kept only as a patch point of the end-to-end benchmark's tracer
    (``benchmarks/e2e/tracing.py``); the ``[benchmark]`` change of
    ROADMAP item 0(f) retires it."""
    raise PlanError("scatter-gather sharding was retired; every read "
                    "runs on one storage stack")
