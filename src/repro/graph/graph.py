"""Directed spatial graph substrate used by every index in this package.

The paper models a road network as a directed, degree-bounded, connected
graph whose nodes live in a two-dimensional space and whose edges carry a
positive weight (Section 2).  :class:`Graph` is an immutable realisation
of that model; mutation happens through
:class:`repro.graph.builder.GraphBuilder`.

Design notes
------------
* Nodes are dense integer ids ``0 .. n-1``.
* The canonical storage is **CSR** (compressed sparse row): three flat
  parallel arrays per direction.  ``out_head[u] : out_head[u + 1]``
  delimits node ``u``'s slice of ``out_dst`` / ``out_w``; the reverse
  triple ``in_head`` / ``in_src`` / ``in_w`` stores the same edges keyed
  by target.  Flat columns cost ~16 bytes per edge per direction, versus
  ~100+ for a list of tuples, and serialize to disk as single contiguous
  blocks (:mod:`repro.core.serialize`).
* The six columns are stdlib ``array('q')`` (int64) / ``array('d')``
  (float64) on every :mod:`repro.backend` tier.
* Both directions are stored because the bidirectional searches used by
  FC, AH and CH traverse forward edges from the source and reverse edges
  from the target.
* CPython iterates a list of ``(v, w)`` tuples faster than it indexes
  flat columns, so :attr:`out` / :attr:`inn` expose the classic
  adjacency lists as *views derived from the CSR columns*, materialised
  lazily (one C-speed ``tolist`` per column) and cached.  Hot query
  loops iterate those views; everything that stores, ships, or
  transforms a graph works on the flat columns.
* Parallel edges are collapsed at build time (the minimum weight wins) so
  that ``(u, v)`` uniquely identifies an edge; the arterial-edge machinery
  of the paper identifies edges by their endpoints.
"""

from __future__ import annotations

import math
from array import array
from typing import Dict, Iterator, List, Sequence, Tuple

__all__ = ["Graph"]


def _as_col(col, typecode: str) -> array:
    """``col`` as an ``array(typecode)``: itself when it already is one
    (no copy), else one converting copy of any sequence."""
    if isinstance(col, array) and col.typecode == typecode:
        return col
    return array(typecode, col)


def _reverse_csr(n: int, head, dst, wts):
    """Derive the reverse CSR from the forward CSR in O(n + m).

    Rows of the result are ordered by source node, matching the builder's
    ordering of the forward rows by target.  A counting sort spelled as
    two scalar passes — no dictionaries, no per-edge tuples.
    """
    m = len(dst)
    rhead = array("q", bytes(8 * (n + 1)))
    for v in dst:
        rhead[v + 1] += 1
    for i in range(n):
        rhead[i + 1] += rhead[i]
    rsrc = array("q", bytes(8 * m))
    rw = array("d", bytes(8 * m))
    cursor = list(rhead[:n])
    for u in range(n):
        for e in range(head[u], head[u + 1]):
            v = dst[e]
            slot = cursor[v]
            cursor[v] = slot + 1
            rsrc[slot] = u
            rw[slot] = wts[e]
    return rhead, rsrc, rw


class Graph:
    """An immutable directed graph with node coordinates, stored as CSR.

    Parameters
    ----------
    xs, ys:
        Node coordinates; ``len(xs) == len(ys)`` defines the node count.
    out_edges:
        ``out_edges[u]`` is a list of ``(v, w)`` pairs for every directed
        edge ``u -> v`` with weight ``w > 0``.

    The constructor validates the edge set, packs it into flat CSR
    arrays, and derives the reverse CSR.  Use
    :class:`repro.graph.builder.GraphBuilder` (or :meth:`from_csr` when
    the arrays already exist) instead of calling this directly.
    """

    __slots__ = (
        "xs",
        "ys",
        "out_head",
        "out_dst",
        "out_w",
        "in_head",
        "in_src",
        "in_w",
        "_out",
        "_inn",
        "_weight",
        "_scratch",
    )

    def __init__(
        self,
        xs: Sequence[float],
        ys: Sequence[float],
        out_edges: Sequence[Sequence[Tuple[int, float]]],
    ) -> None:
        if len(xs) != len(ys):
            raise ValueError("xs and ys must have the same length")
        if len(out_edges) != len(xs):
            raise ValueError("out_edges must have one entry per node")
        n = len(xs)
        head = array("q", bytes(8 * (n + 1)))
        dst = array("q")
        wts = array("d")
        for u, adj in enumerate(out_edges):
            for v, w in adj:
                if not 0 <= v < n:
                    raise ValueError(f"edge ({u}, {v}) points outside the graph")
                if w <= 0:
                    raise ValueError(f"edge ({u}, {v}) has non-positive weight {w}")
                dst.append(v)
                wts.append(w)
            head[u + 1] = len(dst)
        self._init_from_csr(list(map(float, xs)), list(map(float, ys)), head, dst, wts)

    def _init_from_csr(
        self,
        xs: List[float],
        ys: List[float],
        out_head,
        out_dst,
        out_w,
        in_head=None,
        in_src=None,
        in_w=None,
    ) -> None:
        self.xs = xs
        self.ys = ys
        self.out_head = _as_col(out_head, "q")
        self.out_dst = _as_col(out_dst, "q")
        self.out_w = _as_col(out_w, "d")
        if in_head is None:
            in_head, in_src, in_w = _reverse_csr(
                len(xs), self.out_head, self.out_dst, self.out_w
            )
        self.in_head = _as_col(in_head, "q")
        self.in_src = _as_col(in_src, "q")
        self.in_w = _as_col(in_w, "d")
        self._out: List[List[Tuple[int, float]]] = None
        self._inn: List[List[Tuple[int, float]]] = None
        self._weight: Dict[Tuple[int, int], float] = None
        self._scratch: list = []  # free SearchWorkspace pool, see workspace.py

    @classmethod
    def from_csr(
        cls,
        xs: Sequence[float],
        ys: Sequence[float],
        out_head,
        out_dst,
        out_w,
        in_head=None,
        in_src=None,
        in_w=None,
    ) -> "Graph":
        """Wrap already-packed CSR columns without re-validating them.

        The fast construction path used by :class:`GraphBuilder`,
        :func:`Graph.reversed` and :mod:`repro.core.serialize`.  Columns
        that already are ``array('q')`` / ``array('d')`` are kept as
        they are; any other sequence is copied into one.  When the
        reverse triple is omitted it is derived by counting sort; when
        given (e.g. loaded from disk) it is trusted as-is and no
        re-derivation happens.
        """
        g = cls.__new__(cls)
        g._init_from_csr(
            list(xs), list(ys), out_head, out_dst, out_w, in_head, in_src, in_w
        )
        return g

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of nodes."""
        return len(self.xs)

    @property
    def m(self) -> int:
        """Number of directed edges."""
        return len(self.out_dst)

    @property
    def out(self) -> List[List[Tuple[int, float]]]:
        """Adjacency-list view over the forward CSR: ``out[u]`` is a list
        of ``(v, w)`` pairs.  Materialised on first access and cached —
        CPython's tuple-unpacking iteration over these lists is what the
        hot search loops consume."""
        view = self._out
        if view is None:
            # tolist() converts each column to plain Python ints/floats in
            # one C pass.
            head = self.out_head.tolist()
            dst = self.out_dst.tolist()
            wts = self.out_w.tolist()
            view = [
                list(zip(dst[head[u] : head[u + 1]], wts[head[u] : head[u + 1]]))
                for u in range(len(self.xs))
            ]
            self._out = view
        return view

    @property
    def inn(self) -> List[List[Tuple[int, float]]]:
        """Adjacency-list view over the reverse CSR: ``inn[v]`` is a list
        of ``(u, w)`` pairs for edges ``u -> v``."""
        view = self._inn
        if view is None:
            head = self.in_head.tolist()
            src = self.in_src.tolist()
            wts = self.in_w.tolist()
            view = [
                list(zip(src[head[v] : head[v + 1]], wts[head[v] : head[v + 1]]))
                for v in range(len(self.xs))
            ]
            self._inn = view
        return view

    def nodes(self) -> range:
        """Iterate over node ids."""
        return range(len(self.xs))

    def coord(self, u: int) -> Tuple[float, float]:
        """Return the ``(x, y)`` coordinate of node ``u``."""
        return self.xs[u], self.ys[u]

    def edges(self) -> Iterator[Tuple[int, int, float]]:
        """Yield every directed edge as ``(u, v, w)`` straight off CSR.

        The columns are converted once via ``tolist``.
        """
        head = self.out_head.tolist()
        dst = self.out_dst.tolist()
        wts = self.out_w.tolist()
        for u in range(len(self.xs)):
            for e in range(head[u], head[u + 1]):
                yield u, dst[e], wts[e]

    def _weight_map(self) -> Dict[Tuple[int, int], float]:
        table = self._weight
        if table is None:
            table = {}
            head = self.out_head.tolist()
            dst = self.out_dst.tolist()
            wts = self.out_w.tolist()
            for u in range(len(self.xs)):
                for e in range(head[u], head[u + 1]):
                    table[(u, dst[e])] = wts[e]
            self._weight = table
        return table

    def has_edge(self, u: int, v: int) -> bool:
        """Return ``True`` if the directed edge ``u -> v`` exists."""
        return (u, v) in self._weight_map()

    def edge_weight(self, u: int, v: int) -> float:
        """Return the weight of edge ``u -> v``.

        Raises ``KeyError`` if the edge does not exist.
        """
        return self._weight_map()[(u, v)]

    def out_degree(self, u: int) -> int:
        """Number of outgoing edges of ``u``."""
        return int(self.out_head[u + 1] - self.out_head[u])

    def in_degree(self, u: int) -> int:
        """Number of incoming edges of ``u``."""
        return int(self.in_head[u + 1] - self.in_head[u])

    def degree(self, u: int) -> int:
        """Total degree (in + out) of ``u``."""
        return int(
            self.out_head[u + 1]
            - self.out_head[u]
            + self.in_head[u + 1]
            - self.in_head[u]
        )

    def max_degree(self) -> int:
        """The largest total degree of any node (``Δ`` in Appendix A)."""
        if len(self.xs) == 0:
            return 0
        return max(self.degree(u) for u in self.nodes())

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    def bounding_box(self) -> Tuple[float, float, float, float]:
        """Return ``(min_x, min_y, max_x, max_y)`` over all nodes."""
        if len(self.xs) == 0:
            raise ValueError("empty graph has no bounding box")
        return min(self.xs), min(self.ys), max(self.xs), max(self.ys)

    def linf_diameter(self) -> float:
        """Largest L∞ distance between any two nodes (``dmax`` in §1).

        For axis-aligned point sets the L∞ diameter is attained on the
        bounding box, so this is computed in O(n).
        """
        min_x, min_y, max_x, max_y = self.bounding_box()
        return max(max_x - min_x, max_y - min_y)

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def reversed(self) -> "Graph":
        """Return a new graph with every edge direction flipped.

        O(1) array reuse: the reverse CSR of this graph *is* the forward
        CSR of the flipped one (and vice versa), so no adjacency is
        recomputed.
        """
        return Graph.from_csr(
            self.xs,
            self.ys,
            self.in_head,
            self.in_src,
            self.in_w,
            self.out_head,
            self.out_dst,
            self.out_w,
        )

    def total_weight(self) -> float:
        """Sum of all edge weights; handy for perturbation bookkeeping.

        ``math.fsum`` is exactly rounded, so the result does not depend
        on summation order (builtin ``sum`` folds left to right).
        """
        return math.fsum(self.out_w.tolist())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self.n}, m={self.m})"
