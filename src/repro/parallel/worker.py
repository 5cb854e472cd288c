"""Process-pool worker side of the process executor.

:func:`run_task` is the (picklable, module-level) function the parent
submits to the process pool.  A task payload carries no arrays and no
closures — only the shared-memory manifest, the generated kernel
*source*, the state allocation spec and the query-subtree root id.  The
worker:

1. attaches the published block (:func:`repro.parallel.shm.attach_arrays`)
   and builds read-only views — zero copies of the dataset or trees;
2. recompiles the generated source and binds it against **worker-local
   accumulator arrays** (full-size, identity-filled) — the per-task
   partial state;
3. runs the engine the payload's plan names — the same
   :func:`~repro.traversal.run_engine` call the thread executor makes —
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
from ..traversal import bound_epochs, run_engine
from ..trees.node import descent_csr, level_propagation, sorted_leaves
from . import shm

__all__ = ["run_task", "TreeView"]


class TreeView:
    """The minimal tree facade the traversal engines touch, backed by
    shared-memory views (``start``/``end``/``is_leaf_arr``/``children``/
    ``expansion_children``/``levels``, and ``descent_children`` /
    ``bound_plan`` derived from them once per view — everything else
    about :class:`~repro.trees.node.ArrayTree` stays parent-side)."""

    __slots__ = ("start", "end", "is_leaf_arr", "child_offset",
                 "child_list", "_exp", "_level", "_derived")

    def __init__(self, views: dict[str, np.ndarray], prefix: str):
        self.start = views[f"{prefix}start"]
        self.end = views[f"{prefix}end"]
        self.is_leaf_arr = views[f"{prefix}_is_leaf"]
        self.child_offset = views[f"{prefix}_child_offset"]
        self.child_list = views[f"{prefix}_child_list"]
        self._exp = (views[f"{prefix}_exp_offsets"],
                     views[f"{prefix}_exp_flat"])
        self._level = views[f"{prefix}_level"]
        self._derived: dict = {}

    def children(self, i: int) -> np.ndarray:
        return self.child_list[self.child_offset[i]:self.child_offset[i + 1]]

    def expansion_children(self) -> tuple[np.ndarray, np.ndarray]:
        return self._exp

    def levels(self) -> np.ndarray:
        return self._level

    def descent_children(self, depth: int) -> tuple[np.ndarray, np.ndarray]:
        if depth == 1:
            return self._exp
        if depth not in self._derived:
            self._derived[depth] = descent_csr(*self._exp, depth)
        return self._derived[depth]

    def bound_plan(self) -> tuple:
        if "bound_plan" not in self._derived:
            lsort = sorted_leaves(self.start, self.is_leaf_arr)
            self._derived["bound_plan"] = (
                lsort, self.start[lsort], level_propagation(
                    self.child_offset, self.child_list, self._level))
        return self._derived["bound_plan"]


@dataclass
class _WorkerProgram:
    handle: object
    views: dict[str, np.ndarray]
    state: State
    kernels: GeneratedKernels
    qview: TreeView
    rview: TreeView
    rhandle: object = None

    def close(self) -> None:
        # Drop the views before the mapping: ndarrays over shm.buf keep
        # the segment mapped and make close() raise BufferError.
        self.views = {}
        self.qview = self.rview = None  # type: ignore[assignment]
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
# program (token "{token}::s{i}"): a warm worker can hold all shards of
# a couple of programs without evicting between epochs.
_MAX_PROGRAMS = 16


def _program(payload: dict) -> _WorkerProgram:
    token = payload["token"]
    prog = _PROGRAMS.get(token)
    if prog is not None:
        _PROGRAMS.move_to_end(token)
        return prog

    handle, views = shm.attach_arrays(payload["shm_name"],
                                      payload["manifest"])
    rhandle = None
    r_block = payload.get("r_block")
    if r_block is not None:
        # Sharded layout: the reference side (shard tree + columns +
        # RSELF) lives in its own per-shard block, published separately
        # from the query-side block every shard reuses.
        rhandle, rviews = shm.attach_arrays(r_block[0], r_block[1])
        views = {**views, **rviews}
    outer_op, inner_op, k, nq, nr = payload["state_spec"]
    state = allocate_state(outer_op, inner_op, k, nq, nr)
    source = payload["source"]
    code = compile(source, "<portal-worker>", "exec")
    kernels = Bindings(views, payload["scalars"]).bind(source, code, state)
    qview = TreeView(views, "q")
    rview = qview if payload["same_tree"] else TreeView(views, "r")

    prog = _WorkerProgram(handle=handle, views=views, state=state,
                          kernels=kernels, qview=qview, rview=rview,
                          rhandle=rhandle)
    _PROGRAMS[token] = prog
    while len(_PROGRAMS) > _MAX_PROGRAMS:
        _, old = _PROGRAMS.popitem(last=False)
        old.close()
    return prog


def run_task(payload: dict) -> dict:
    """Run one (query-subtree × reference-root) traversal task; returns
    the partial accumulator slices, stats and counters for its range."""
    with collect() as counters:
        prog = _program(payload)
        state = prog.state
        q_root = int(payload["q_root"])
        s = int(prog.qview.start[q_root])
        e = int(prog.qview.end[q_root])
        resume = payload.get("resume")
        if resume is None:
            # A cached worker program runs each new task over its range
            # as if the state were fresh.
            state.reset(s, e)
        else:
            # Phase-2 resume of a paused bounded traversal: pool workers
            # have no task affinity, so the parent ships the paused
            # accumulator slices back and we restore them verbatim.
            for name, arr in payload.get("state_arrays", {}).items():
                state.arrays[name][s:e] = arr
            if state.lists is not None:
                restored = payload.get("state_lists")
                if restored is not None:
                    state.lists[s:e] = [list(x) for x in restored]

        engine = payload["plan"].engine
        pause: dict = {}
        hooks: dict = {}
        if bound_epochs(engine, prog.kernels):
            extern = payload.get("extern")
            extern_full = None
            if extern is not None:
                # The engine indexes the extern bound by absolute query
                # position; the payload only carries this task's slice.
                extern_full = np.full(len(state.arrays["qbound"]), np.inf)
                extern_full[s:e] = extern
            hooks = dict(max_epochs=payload.get("max_epochs"), resume=resume,
                         extern_bound=extern_full, pause_out=pause)
        stats = run_engine(engine, prog.qview, prog.rview, prog.kernels,
                           state.arrays.get("qbound"), q_root=q_root, **hooks)

    return {
        "s": s,
        "e": e,
        "stats": stats,
        "counters": counters.as_dict(),
        "arrays": {name: np.ascontiguousarray(arr[s:e])
                   for name, arr in state.arrays.items()},
        "lists": None if state.lists is None else state.lists[s:e],
        "pending": pause.get("pending"),
    }
