"""Task + data parallelism for the tree traversal (paper section IV-F)."""

from .executor import (
    default_workers, run_process_tasks, run_tasks, shutdown_pools,
)
from .scheduler import Side, expand_frontier, fan_out

#: Sharded-reference-layout entry points re-exported lazily: shard.py
#: pulls in the tree cache and codegen (→ backend → DSL), which can
#: re-enter this package mid-import, so an eager import here would be
#: circular.
_LAZY = {
    "plan_shards": "shard", "run_sharded": "shard",
    "build_shard_pack": "shard", "build_shard_execution": "shard",
    "combine_shard_states": "shard",
}


def __getattr__(name: str):
    mod = _LAZY.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(f".{mod}", __name__), name)


__all__ = [
    "default_workers", "run_tasks", "run_process_tasks", "shutdown_pools",
    "Side", "expand_frontier", "fan_out",
    "plan_shards", "run_sharded",
    "build_shard_pack", "build_shard_execution", "combine_shard_states",
]
