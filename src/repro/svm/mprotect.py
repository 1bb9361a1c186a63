"""The mprotect cost model (Section 3.1 / Table 2).

The only OS call the protocol uses is ``mprotect``.  A single-page call
costs ``mprotect_call_us``; the protocol coalesces calls for runs of
consecutive pages, paying one call plus a small per-page increment —
the optimization the paper describes.  Table 2's last column (MT) is
the share of total SVM overhead spent here, so the model also keeps a
per-node running total.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

from ..hw.config import MachineConfig

__all__ = ["coalesce_pages", "MprotectModel"]


def coalesce_pages(pages: Iterable[int]) -> List[Tuple[int, int]]:
    """Group page ids into maximal runs of consecutive ids.

    Returns ``[(first_page, count), ...]`` sorted ascending; duplicate
    ids are collapsed.
    """
    uniq = sorted(set(pages))
    runs: List[Tuple[int, int]] = []
    for page in uniq:
        if runs and page == runs[-1][0] + runs[-1][1]:
            runs[-1] = (runs[-1][0], runs[-1][1] + 1)
        else:
            runs.append((page, 1))
    return runs


class MprotectModel:
    """Per-node mprotect cost accounting."""

    def __init__(self, config: MachineConfig):
        self.config = config
        self.total_us = [0.0] * config.nodes
        self.calls = [0] * config.nodes
        self.pages_protected = [0] * config.nodes

    def cost_us(self, pages: Iterable[int]) -> float:
        """Cost of protecting ``pages``, with coalescing (no accounting)."""
        runs = coalesce_pages(pages)
        if not runs:
            return 0.0
        cfg = self.config
        n_pages = sum(count for _first, count in runs)
        return (len(runs) * cfg.mprotect_call_us
                + (n_pages - len(runs)) * cfg.mprotect_page_us)

    def protect(self, node: int, pages: Iterable[int]) -> float:
        """Account one protection change on ``node``; returns its cost
        (:meth:`cost_us`, counted in one pass over the sorted ids)."""
        uniq = sorted(set(pages))
        runs = 0
        prev = None
        for page in uniq:
            if page - 1 != prev:
                runs += 1
            prev = page
        if not runs:
            return 0.0
        n_pages = len(uniq)
        cfg = self.config
        cost = (runs * cfg.mprotect_call_us
                + (n_pages - runs) * cfg.mprotect_page_us)
        if cost > 0:
            self.total_us[node] += cost
            self.calls[node] += runs
            self.pages_protected[node] += n_pages
        return cost

    @property
    def grand_total_us(self) -> float:
        return sum(self.total_us)
