"""Hand-written plain-Python references for the benchmark's jobs.

Each function computes, with ordinary loops over the generated records,
what the ``@parallelize`` program of the same name must return.  None
of them touches an engine, the compiler, or ``LocalEngine``: a bug in
the system under test cannot leak into its own oracle.  They run once,
in set-up.

:func:`same_multiset` is the comparison: results are bags, so order is
free; floats match within ``rel=1e-9`` (summation order differs between
a partitioned fold and a loop), everything else exactly.
"""

from __future__ import annotations

import bisect
import dataclasses
import math
from collections import Counter
from typing import Any, Iterable, Sequence

from repro.workloads.linalg import Vec

REL_TOL = 1e-9


# -- comparison ---------------------------------------------------------------


def flatten(value: Any) -> Any:
    """Records, vectors and tuples as nested tuples of primitives."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return tuple(
            flatten(getattr(value, f.name)) for f in dataclasses.fields(value)
        )
    if isinstance(value, Vec):
        return tuple(value.components)
    if isinstance(value, (tuple, list)):
        return tuple(flatten(v) for v in value)
    return value


def _close(a: Any, b: Any) -> bool:
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
    if isinstance(a, float) and isinstance(b, float):
        return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)
    return type(a) is type(b) and a == b


def same_multiset(got: Iterable[Any], expected: Iterable[Any]) -> bool:
    """Whether two bags hold the same records, floats within tolerance.

    Every record here leads with its exact key fields, so sorting the
    flattened records pairs them up.
    """
    left = sorted(flatten(r) for r in got)
    right = sorted(flatten(r) for r in expected)
    return len(left) == len(right) and all(
        _close(a, b) for a, b in zip(left, right)
    )


# -- TPC-H --------------------------------------------------------------------


def q1(lineitems: Sequence[Any], ship_date_max: str) -> list[tuple]:
    """Pricing summary: one row per (return_flag, line_status)."""
    groups: dict[tuple[str, str], list[float]] = {}
    for l in lineitems:
        if l.ship_date > ship_date_max:
            continue
        acc = groups.setdefault(
            (l.return_flag, l.line_status), [0.0, 0.0, 0.0, 0.0, 0.0, 0]
        )
        disc_price = l.extended_price * (1 - l.discount)
        acc[0] += l.quantity
        acc[1] += l.extended_price
        acc[2] += disc_price
        acc[3] += disc_price * (1 + l.tax)
        acc[4] += l.discount
        acc[5] += 1
    return [
        (
            flag,
            status,
            qty,
            price,
            disc_price,
            charge,
            qty / n,
            price / n,
            disc / n,
            n,
        )
        for (flag, status), (qty, price, disc_price, charge, disc, n)
        in groups.items()
    ]


class Q4Reference:
    """Order-priority counts for any date window over one data set.

    The late-order set and the date-sorted orders are built once; each
    window is then a bisect and a ``Counter`` (``svc_sweep`` asks for a
    different window per job).
    """

    def __init__(self, orders: Sequence[Any], lineitems: Sequence[Any]) -> None:
        late = {
            l.order_key for l in lineitems if l.commit_date < l.receipt_date
        }
        matching = sorted(
            (o.order_date, o.order_priority)
            for o in orders
            if o.order_key in late
        )
        self._dates = [date for date, _ in matching]
        self._priorities = [priority for _, priority in matching]

    def window(self, date_min: str, date_max: str) -> list[tuple[str, int]]:
        lo = bisect.bisect_left(self._dates, date_min)
        hi = bisect.bisect_left(self._dates, date_max)
        return list(Counter(self._priorities[lo:hi]).items())


# -- iterative workloads ------------------------------------------------------


def pagerank(
    vertices: Sequence[Any], num_pages: int, max_iterations: int, damping: float
) -> list[tuple[int, float]]:
    """Listing 6 as a loop: only vertices that receive a message move."""
    ranks = {v.id: 1.0 / num_pages for v in vertices}
    for _ in range(max_iterations):
        incoming: dict[int, float] = {}
        for v in vertices:
            share = ranks[v.id] / len(v.neighbors)
            for n in v.neighbors:
                incoming[n] = incoming.get(n, 0.0) + share
        for vertex, total in incoming.items():
            if vertex in ranks:
                ranks[vertex] = (1 - damping) / num_pages + damping * total
    return list(ranks.items())


def kmeans(
    points: Sequence[Any],
    initial: Sequence[Any],
    epsilon: float,
    max_iterations: int,
) -> list[tuple[int, Vec]]:
    """Listing 4 as a loop over ``Vec``; returns (cid, position) pairs."""
    centroids = [(c.cid, c.pos) for c in initial]
    change = epsilon + 1.0
    iterations = 0
    while change > epsilon and iterations < max_iterations:
        sums: dict[int, Vec] = {}
        counts: Counter = Counter()
        for p in points:
            cid = min(
                centroids, key=lambda c: c[1].squared_distance_to(p.pos)
            )[0]
            sums[cid] = sums[cid] + p.pos if cid in sums else p.pos
            counts[cid] += 1
        moved = [(cid, sums[cid] / counts[cid]) for cid in sums]
        new_pos = dict(moved)
        change = sum(
            pos.distance_to(new_pos[cid])
            for cid, pos in centroids
            if cid in new_pos
        )
        centroids = moved
        iterations += 1
    return centroids
