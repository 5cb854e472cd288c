"""Process-pool worker side of the process executor.

:func:`run_task` is the (picklable, module-level) function the parent
submits to the process pool.  A task payload carries no arrays and no
closures — only the shared-memory manifests, the generated kernel
*source*, the state allocation spec, the plan and the query-subtree
root id (:func:`repro.parallel.scheduler.fan_out`).  The worker:

1. attaches the published blocks (:func:`repro.parallel.shm.attach_arrays`)
   and builds an :class:`~repro.trees.node.ArrayTree` per side over its
   read-only views — zero copies of the dataset or trees;
2. recompiles the generated source and binds it against **worker-local
   accumulator arrays** (full-size, identity-filled) — the per-task
   partial state;
3. runs the engine the payload's plan names — the same
   :func:`~repro.traversal.run_engine` call an in-caller task makes —
   rooted at ``q_root``, under a local counters registry;
4. returns only its query slice ``[qstart[q_root], qend[q_root])`` of
   each accumulator plus the task's ``TraversalStats`` and counters.

Because every accumulator is indexed by query position and a task rooted
at ``q_root`` touches exactly its own slice (the disjoint-query-range
invariant of :mod:`repro.parallel.scheduler`), the parent can merge the
returned slices in frontier order and obtain state bit-identical to the
thread executor's shared-array updates.

Attachments, compiled namespaces and state arrays are cached per program
token, so a warm worker re-runs tasks for a known program without
re-attaching or re-``exec``-ing anything — it only resets its slice.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from ..backend.codegen import Bindings, GeneratedKernels
from ..backend.state import State, allocate_state
from ..observe import collect
from ..traversal import run_engine
from ..trees.node import ArrayTree
from . import shm

__all__ = ["run_task"]


def _tree(views: dict[str, np.ndarray], side: str) -> ArrayTree:
    """The ``side`` ("q" / "r") tree over the attached views, its points
    the real rows (the root's slice: an approximation's ``RROW`` goes on
    with pseudo-points); it derives the rest of its topology once per
    worker program."""
    end = views[f"{side}end"]
    return ArrayTree(
        views[f"{side.upper()}ROW"][:end[0]], None, views[f"{side}lo"],
        views[f"{side}hi"], views[f"{side}start"], end,
        views[f"{side}_child_offset"], views[f"{side}_child_list"])


@dataclass
class _WorkerProgram:
    handle: object
    views: dict[str, np.ndarray]
    state: State
    kernels: GeneratedKernels
    qtree: ArrayTree
    rtree: ArrayTree
    rhandle: object = None

    def close(self) -> None:
        # Drop the views before the mapping: ndarrays over shm.buf keep
        # the segment mapped and make close() raise BufferError.
        self.views = {}
        self.qtree = self.rtree = None  # type: ignore[assignment]
        self.kernels = None  # type: ignore[assignment]
        for handle in (self.handle, self.rhandle):
            if handle is None:
                continue
            try:
                handle.close()
            except BufferError:
                pass


_PROGRAMS: OrderedDict[str, _WorkerProgram] = OrderedDict()
# Sized for sharded programs, where every shard is its own worker
# program (token "{token}::r{i}"): a warm worker can hold all shards of
# a couple of programs without evicting between runs.
_MAX_PROGRAMS = 16


def _program(payload: dict) -> _WorkerProgram:
    token = payload["token"]
    prog = _PROGRAMS.get(token)
    if prog is not None:
        _PROGRAMS.move_to_end(token)
        return prog

    handle, views = shm.attach_arrays(*payload["block"])
    rhandle = None
    r_block = payload["r_block"]
    if r_block is not None:
        # A later side of a sharded fan-out: its reference side (shard
        # tree + columns + RLABEL) lives in its own block, beside the
        # first block's query side, whose reference arrays it shadows.
        rhandle, rviews = shm.attach_arrays(*r_block)
        views = {**views, **rviews}
    outer_op, inner_op, k, nq, nr = payload["state_spec"]
    state = allocate_state(outer_op, inner_op, k, nq, nr)
    source = payload["source"]
    code = compile(source, "<portal-worker>", "exec")
    kernels = Bindings(views, payload["scalars"]).bind(source, code, state)
    qtree = _tree(views, "q")
    rtree = qtree if payload["same_tree"] else _tree(views, "r")

    prog = _WorkerProgram(handle=handle, views=views, state=state,
                          kernels=kernels, qtree=qtree, rtree=rtree,
                          rhandle=rhandle)
    _PROGRAMS[token] = prog
    while len(_PROGRAMS) > _MAX_PROGRAMS:
        _, old = _PROGRAMS.popitem(last=False)
        old.close()
    return prog


def run_task(payload: dict) -> dict:
    """Run one (query-subtree × side) traversal task; returns the
    partial accumulator slices, stats and counters for its query
    range."""
    with collect() as counters:
        prog = _program(payload)
        state = prog.state
        q_root = int(payload["q_root"])
        s = int(prog.qtree.start[q_root])
        e = int(prog.qtree.end[q_root])
        # A cached worker program runs each new task over its range as
        # if the state were fresh.
        state.reset(s, e)
        stats = run_engine(payload["plan"].engine, prog.qtree, prog.rtree,
                           prog.kernels, q_root=q_root)
    return {
        "s": s,
        "e": e,
        "stats": stats,
        "counters": counters.as_dict(),
        "arrays": {name: np.ascontiguousarray(arr[s:e])
                   for name, arr in state.arrays.items()},
        "lists": None if state.lists is None else state.lists[s:e],
    }
