"""Vector indexes: exact brute-force and IVF-flat-style clustered search.

The Naive-RAG indexing step ("each segment encoded into vector form") needs
a top-k similarity search; the clustered variant demonstrates the standard
accuracy/latency trade-off and backs the engine micro-benchmarks.

Both indexes store their vectors in capacity-doubling packed arrays:
``add`` writes one row into preallocated space (amortized O(1)) and
``search`` slices a view, so inserts never invalidate previously packed
state and no query ever re-stacks Python lists into a matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class SearchHit:
    """One nearest-neighbour result."""

    key: Hashable
    score: float
    payload: object = None


def safe_norms(matrix: np.ndarray) -> np.ndarray:
    """Row L2 norms with zeros replaced by 1 (zero rows score 0, not NaN)."""
    norms = np.linalg.norm(matrix, axis=1)
    norms[norms == 0.0] = 1.0
    return norms


def top_k_order(scores: np.ndarray, k: int) -> np.ndarray:
    """``np.argsort(-scores, kind="stable")[:k]`` without sorting every row.

    Every row at least as good as the k-th best score (ties and NaNs
    included) is a candidate; only the candidates are stably sorted.
    """
    negated = -scores
    if not 0 < k < negated.shape[0]:
        return np.argsort(negated, kind="stable")[:k]
    kth = negated[np.argpartition(negated, k - 1)[k - 1]]
    candidates = np.flatnonzero(~(negated > kth))
    return candidates[np.argsort(negated[candidates], kind="stable")[:k]]


def cosine_topk(matrix: np.ndarray, norms: np.ndarray, query: np.ndarray,
                k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Top-k rows of ``matrix`` by cosine similarity to ``query``.

    ``norms`` are the rows' L2 norms with zeros already replaced by 1 (see
    :func:`safe_norms`); a zero query is likewise treated as norm 1, so
    zero vectors score 0 everywhere instead of dividing by zero. Returns
    ``(order, scores)`` where ``order`` indexes the k best rows, best
    first, ties broken by row position (see :func:`top_k_order`).

    This is the scoring kernel shared by :class:`VectorIndex` and
    :func:`repro.llm.embedding.top_k_similar`.
    """
    qn = np.linalg.norm(query) or 1.0
    scores = (matrix @ query) / (norms * qn)
    return top_k_order(scores, k), scores


class _PackedRows:
    """A (capacity, dim) array that doubles in place; rows append O(1)."""

    def __init__(self, dim: int):
        self.dim = dim
        self.size = 0
        self._matrix = np.zeros((0, dim), dtype=np.float64)
        self._norms = np.zeros(0, dtype=np.float64)

    def append(self, vector: np.ndarray) -> None:
        if self.size == self._matrix.shape[0]:
            capacity = max(16, 2 * self._matrix.shape[0])
            matrix = np.zeros((capacity, self.dim), dtype=np.float64)
            matrix[:self.size] = self._matrix[:self.size]
            norms = np.ones(capacity, dtype=np.float64)
            norms[:self.size] = self._norms[:self.size]
            self._matrix, self._norms = matrix, norms
        self._matrix[self.size] = vector
        norm = np.linalg.norm(vector)
        self._norms[self.size] = norm if norm > 0.0 else 1.0
        self.size += 1

    @property
    def matrix(self) -> np.ndarray:
        """A view of the filled rows (no copy)."""
        return self._matrix[:self.size]

    @property
    def norms(self) -> np.ndarray:
        """A view of the filled rows' safe norms (no copy)."""
        return self._norms[:self.size]


class VectorIndex:
    """Exact cosine top-k over an append-only collection of vectors."""

    def __init__(self, dim: int):
        if dim <= 0:
            raise ValueError("dim must be positive")
        self.dim = dim
        self._keys: List[Hashable] = []
        self._payloads: List[object] = []
        self._packed = _PackedRows(dim)
        # Plain-int usage counters: cheap enough for the hot path, pulled
        # into the metrics registry via ``Observability.bind_index``.
        self.adds = 0
        self.searches = 0

    def add(self, key: Hashable, vector: np.ndarray, payload: object = None) -> None:
        """Insert a vector under ``key`` (keys need not be unique)."""
        vector = np.asarray(vector, dtype=np.float64)
        if vector.shape != (self.dim,):
            raise ValueError(f"expected shape ({self.dim},), got {vector.shape}")
        self._keys.append(key)
        self._payloads.append(payload)
        self._packed.append(vector)
        self.adds += 1

    def __len__(self) -> int:
        return len(self._keys)

    def stats(self) -> Dict[str, int]:
        """Usage counters (adds, searches, current size)."""
        return {"adds": self.adds, "searches": self.searches,
                "size": len(self._keys)}

    def search(self, query: np.ndarray, k: int = 5) -> List[SearchHit]:
        """The ``k`` entries most cosine-similar to ``query``."""
        self.searches += 1
        if not self._keys or k <= 0:
            return []
        query = np.asarray(query, dtype=np.float64)
        order, scores = cosine_topk(self._packed.matrix, self._packed.norms,
                                    query, k)
        return [SearchHit(self._keys[i], float(scores[i]), self._payloads[i])
                for i in order]


class ClusteredVectorIndex:
    """IVF-flat-style index: k-means cells, probe the nearest ``nprobe``.

    Approximate — recall depends on ``nprobe`` — but sub-linear in the number
    of vectors once built. ``build`` must be called after all inserts; it
    packs each cell's members into a per-cell matrix so queries score cells
    with one matmul each instead of re-stacking row lists.
    """

    def __init__(self, dim: int, n_cells: int = 16, nprobe: int = 2, seed: int = 0):
        if n_cells <= 0 or nprobe <= 0:
            raise ValueError("n_cells and nprobe must be positive")
        self.dim = dim
        self.n_cells = n_cells
        self.nprobe = nprobe
        self.seed = seed
        self._keys: List[Hashable] = []
        self._payloads: List[object] = []
        self._packed = _PackedRows(dim)
        self._centroids: Optional[np.ndarray] = None
        self._cells: List[np.ndarray] = []          # member row ids per cell
        self._cell_matrices: List[np.ndarray] = []  # packed members per cell
        self._cell_norms: List[np.ndarray] = []
        self.adds = 0
        self.searches = 0
        self.builds = 0

    def add(self, key: Hashable, vector: np.ndarray, payload: object = None) -> None:
        """Insert a vector (index must be (re)built before searching)."""
        vector = np.asarray(vector, dtype=np.float64)
        if vector.shape != (self.dim,):
            raise ValueError(f"expected shape ({self.dim},), got {vector.shape}")
        self._keys.append(key)
        self._payloads.append(payload)
        self._packed.append(vector)
        self._centroids = None
        self.adds += 1

    def __len__(self) -> int:
        return len(self._keys)

    def stats(self) -> Dict[str, int]:
        """Usage counters (adds, searches, k-means builds, current size)."""
        return {"adds": self.adds, "searches": self.searches,
                "builds": self.builds, "size": len(self._keys)}

    @staticmethod
    def _squared_distances(matrix: np.ndarray, x_sq: np.ndarray,
                           centroids: np.ndarray) -> np.ndarray:
        """(n, k) squared distances via the x² − 2x·c + c² expansion.

        Peak memory is the (n, k) result itself — never the (n, k, d)
        intermediate the naive broadcast ``matrix[:, None, :] - centroids``
        would allocate.
        """
        c_sq = (centroids ** 2).sum(axis=1)
        return x_sq[:, None] - 2.0 * (matrix @ centroids.T) + c_sq[None, :]

    def build(self, iterations: int = 8) -> None:
        """Run seeded k-means and pack vectors into per-cell matrices."""
        self.builds += 1
        n = self._packed.size
        if n == 0:
            self._centroids = np.zeros((0, self.dim))
            self._cells = []
            self._cell_matrices = []
            self._cell_norms = []
            return
        matrix = self._packed.matrix
        n_cells = min(self.n_cells, n)
        rng = np.random.default_rng(self.seed)
        initial = rng.choice(n, size=n_cells, replace=False)
        centroids = matrix[initial].copy()
        x_sq = (matrix ** 2).sum(axis=1)
        assignment = np.zeros(n, dtype=np.int64)
        for _ in range(iterations):
            distances = self._squared_distances(matrix, x_sq, centroids)
            new_assignment = distances.argmin(axis=1)
            if np.array_equal(new_assignment, assignment):
                assignment = new_assignment
                break
            assignment = new_assignment
            counts = np.bincount(assignment, minlength=n_cells)
            sums = np.zeros((n_cells, self.dim))
            np.add.at(sums, assignment, matrix)
            occupied = counts > 0
            centroids[occupied] = sums[occupied] / counts[occupied, None]
            # Empty cells are reseeded from the same rng, so the whole
            # clustering stays a pure function of (data, seed).
            empty = np.flatnonzero(~occupied)
            if empty.size:
                replacements = rng.choice(n, size=empty.size,
                                          replace=empty.size > n)
                centroids[empty] = matrix[replacements]
        self._centroids = centroids
        members: List[List[int]] = [[] for _ in range(n_cells)]
        for index, cell in enumerate(assignment):
            members[int(cell)].append(index)
        self._cells = [np.asarray(ids, dtype=np.int64) for ids in members]
        self._cell_matrices = [matrix[ids] for ids in self._cells]
        self._cell_norms = [safe_norms(m) for m in self._cell_matrices]

    def search(self, query: np.ndarray, k: int = 5) -> List[SearchHit]:
        """Approximate top-k: scan the ``nprobe`` cells nearest the query."""
        self.searches += 1
        if self._centroids is None:
            self.build()
        assert self._centroids is not None
        if self._centroids.shape[0] == 0 or k <= 0:
            return []
        query = np.asarray(query, dtype=np.float64)
        cell_distance = ((self._centroids - query[None, :]) ** 2).sum(axis=1)
        probe = np.argsort(cell_distance, kind="stable")[: self.nprobe]
        qn = np.linalg.norm(query) or 1.0
        id_chunks: List[np.ndarray] = []
        score_chunks: List[np.ndarray] = []
        for cell in probe:
            ids = self._cells[int(cell)]
            if ids.size == 0:
                continue
            # Each probed cell is one matmul over its pre-packed matrix.
            scores = (self._cell_matrices[int(cell)] @ query) \
                / (self._cell_norms[int(cell)] * qn)
            id_chunks.append(ids)
            score_chunks.append(scores)
        if not id_chunks:
            return []
        candidate_ids = np.concatenate(id_chunks)
        scores = np.concatenate(score_chunks)
        order = top_k_order(scores, k)
        return [SearchHit(self._keys[int(candidate_ids[i])], float(scores[i]),
                          self._payloads[int(candidate_ids[i])]) for i in order]
