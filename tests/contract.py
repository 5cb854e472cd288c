"""The output contract (DESIGN.md, "Output contract") as test assertions.

Differential tests hold two runs of one program — two engines, two
executors, two plans — to the rule for the kind of output it returns:

* :func:`assert_ranked_equal` — comparative reductions (K-operators,
  ``ARG*``, ``MIN``/``MAX``, Hausdorff — merges over an indicator
  kernel too): values exact at every d (the winners are re-evaluated in
  one difference form); ids exact up to ties at the k-th value — and,
  where the norm expansion selects them, up to near-ties within its
  rounding (``rtol``);
* :func:`assert_sum_close` — sums: within ``τ`` per unit of reference
  weight when approximated, plus ``n·ε·Σ|term|`` of rounding; products
  (``PROD``): within ``n·ε·|Π|`` of the reference, which is this helper
  with its default ``abs_sum``;
* :func:`assert_lists_equal` — list outputs (range search): equal, row
  for row (``State.finalize`` returns each row sorted);
* :func:`assert_bitwise` — what must not move a bit: repeat runs of one
  plan, worker counts, thread against process, a coalesced serve batch
  against its rows served one at a time, and integer-valued sums.
"""

from __future__ import annotations

import numpy as np

__all__ = ["assert_bitwise", "assert_lists_equal", "assert_ranked_equal",
           "assert_sum_close"]

EPS = np.finfo(np.float64).eps


def _values(out) -> np.ndarray:
    """An ``Output``'s per-query values, or an array as it is."""
    return np.asarray(getattr(out, "values", out))


def assert_bitwise(got, want) -> None:
    """Same shape, same dtype, same bits."""
    got, want = _values(got), _values(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def assert_sum_close(got, want, *, n: int, tau: float = 0.0,
                     abs_sum=None) -> None:
    """``|got − want| ≤ τ·n + n·ε·Σ|term|`` per query row.

    ``n`` is the number of terms of a row (reference points) — an
    approximated node pair moves each of its terms by at most ``τ`` per
    unit of weight, so weighted references scale ``tau`` by their mean
    ``|weight|`` — and ``abs_sum`` each row's ``Σ|term|``, which
    defaults to ``|want|``: exact when every term has one sign (positive
    kernels, positive weights)."""
    got = _values(got).astype(np.float64)
    want = _values(want).astype(np.float64)
    assert got.shape == want.shape
    fin = np.isfinite(want)
    assert np.array_equal(fin, np.isfinite(got))
    scale = np.abs(want) if abs_sum is None else np.asarray(abs_sum)
    bound = np.broadcast_to(tau * n + n * EPS * scale, want.shape)
    excess = (np.abs(got - want) - bound)[fin]
    assert not (excess > 0).any(), (
        f"{int((excess > 0).sum())} rows outside the contract, "
        f"worst by {float(excess.max()):.3g}")


def assert_ranked_equal(got_values, want_values, got_ids=None,
                        want_ids=None, *, rtol: float = 0.0) -> None:
    """Values within ``rtol`` of ``want`` (exact by default; a non-zero
    ``rtol`` is the norm expansion's rounding, DESIGN.md §8); per row,
    the ids of the values clear of the k-th value by more than that
    rounding are the same set, and so many ids sit near the k-th."""
    got_values, want_values = np.asarray(got_values), np.asarray(want_values)
    np.testing.assert_allclose(got_values, want_values, rtol=rtol, atol=0)
    if got_ids is None:
        return
    got_ids, want_ids = np.asarray(got_ids), np.asarray(want_ids)
    assert got_ids.shape == want_ids.shape == want_values.shape
    if want_values.ndim < 2:
        return  # one slot per row: it is the k-th, any tied id will do
    kth = want_values[:, -1:]
    inside = ~np.isclose(want_values, kth, rtol=2 * rtol, atol=0)
    for row in range(len(want_values)):
        mask = inside[row]
        assert (sorted(got_ids[row][mask].tolist())
                == sorted(want_ids[row][mask].tolist())), f"row {row}"


def assert_lists_equal(got, want) -> None:
    """One list per query, each row equal element for element."""
    assert len(got) == len(want)
    for row, (a, b) in enumerate(zip(got, want)):
        assert np.array_equal(a, b), f"row {row}"
