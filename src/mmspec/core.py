"""Core value types and probability primitives shared by every other module.

Everything here is small and immutable: vocabularies, dense probability
vectors, prompts that keep image context separate from text, and a
counter-based random stream whose draws are reproducible from
(seed, stream).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "AllZeroError",
    "MultimodalPrompt",
    "ProbDist",
    "RngState",
    "TokenId",
    "Vocab",
    "argmax",
    "normalize",
    "sample",
]

TokenId = int

# Validation tolerance for "sums to one"; tighter checks belong in tests.
PROB_SUM_TOL = 1e-9


class AllZeroError(ValueError):
    """Raised when a weight vector with no positive mass is normalized."""


# --------------------------------------------------------------------------- #
#  Value types
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class Vocab:
    """Token id space ``[0, size)`` with a designated end-of-sequence id."""

    size: int
    eos: TokenId

    def __post_init__(self) -> None:
        if self.size < 2:
            raise ValueError(f"vocab size must be >= 2, got {self.size}")
        if not 0 <= self.eos < self.size:
            raise ValueError(f"eos id {self.eos} outside [0, {self.size})")


class ProbDist:
    """Dense float64 distribution over token ids.

    The underlying array is validated on construction (non-negative entries
    summing to one within ``PROB_SUM_TOL``; a NaN or infinite entry fails)
    and then frozen, so instances can be shared without defensive copies.
    :meth:`table` builds one instance per row of a matrix, checking the
    matrix once.  A row is complete when it is built: ``cdf`` holds the
    cumulative sums :func:`sample` bisects, set to 1.0 from the last
    positive entry on, ``values`` the entries the stochastic verifier
    reads, and ``_top`` the index :func:`argmax` returns.  ``cdf`` and ``values`` are read-only ``memoryview`` objects,
    because indexing one gives a Python float at less than half what
    indexing an array costs.  ``residuals`` holds, per draft row, the
    residual ``engine.residual_table`` or ``engine.residual_dist`` built;
    it stays ``None`` until the row stores its first one, as most never do.
    """

    __slots__ = ("probs", "values", "cdf", "_top", "residuals")

    def __init__(self, probs: np.ndarray | Sequence[float]) -> None:
        arr = np.array(probs, dtype=np.float64)
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError(f"expected a 1-d vector of >= 2 entries, got shape {arr.shape}")
        cdf = np.cumsum(_checked(arr))
        cdf[-1 if arr[-1] > 0.0 else np.flatnonzero(arr)[-1] :] = 1.0  # from the last positive entry on
        cdf.setflags(write=False)
        self._fill(arr, cdf, int(arr.argmax()))

    @classmethod
    def table(cls, matrix: np.ndarray) -> list[ProbDist]:
        """One distribution per row of a 2-d ``matrix``, each a read-only view
        of it, once the whole matrix is validated.  A float64 array is
        frozen in place, not copied; the cumulative sums and argmaxes of
        all rows are taken in one numpy call each."""
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[1] < 2:
            raise ValueError(f"expected a 2-d matrix of rows of >= 2 entries, got shape {matrix.shape}")
        cdfs = np.cumsum(_checked(matrix), axis=1)
        if matrix[:, -1].all():  # no zero tail, as in every smoothed model row: only the last sums are set
            cdfs[:, -1] = 1.0
        else:
            last = matrix.shape[1] - 1 - (matrix[:, ::-1] > 0.0).argmax(axis=1)  # each row's last positive entry
            cdfs[np.arange(matrix.shape[1]) >= last[:, None]] = 1.0
        cdfs.setflags(write=False)  # once for the matrix: its row views inherit it
        dists = []
        for probs, cdf, top in zip(matrix, cdfs, matrix.argmax(axis=1).tolist()):
            dist = cls.__new__(cls)
            dist._fill(probs, cdf, top)
            dists.append(dist)
        return dists

    def _fill(self, probs: np.ndarray, cdf: np.ndarray, top: TokenId) -> None:
        self.probs = probs
        self.values = memoryview(probs)
        self.cdf = memoryview(cdf)
        self._top = top
        self.residuals: dict[ProbDist, ProbDist] | None = None

    def __len__(self) -> int:
        return int(self.probs.size)

    def __repr__(self) -> str:
        return f"ProbDist({np.array2string(self.probs, precision=4)})"


@dataclass(frozen=True)
class MultimodalPrompt:
    """Prompt made of opaque image-context ids followed by text ids.

    ``image_ctx`` stands in for projected image embeddings: an image-aware
    model conditions on ``image_ctx`` then ``text`` in that fixed order, a
    text-only model sees ``text`` alone.  ``image_ctx`` may be empty; the
    text may not.
    """

    image_ctx: tuple[TokenId, ...]
    text: tuple[TokenId, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "image_ctx", tuple(self.image_ctx))
        object.__setattr__(self, "text", tuple(self.text))
        if not self.text:
            raise ValueError("prompt text must be non-empty")


class RngState:
    """Deterministic uniform stream addressed by ``(seed, stream)``.

    Each named substream is an independent counter-based Philox stream keyed
    by the 64-bit seed plus a tuple of stream ids, and nothing global is
    touched.  The generator is built on the first draw, so a state that
    never draws (greedy decoding) costs no key derivation.  Draws come in
    batches of 64, which equal 64 scalar draws (~0.05 us, not ~1 us, each);
    :meth:`take` hands out many at once, and :meth:`untake` gives back the
    ones a caller did not use.
    """

    __slots__ = ("seed", "stream", "_gen", "_batch")

    def __init__(self, seed: int, stream: int | tuple[int, ...] = ()) -> None:
        seed = int(seed)
        if not 0 <= seed < 2**64:
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed}")
        self.seed = seed
        self.stream = (stream,) if isinstance(stream, int) else tuple(int(s) for s in stream)
        self._gen: np.random.Generator | None = None
        self._batch: list[float] = []  # the rest of the current batch, last draw first

    def uniform(self) -> float:
        """Next uniform draw in ``[0, 1)``."""
        if not self._batch:
            self._batch = self._draw(64)[::-1]
        return self._batch.pop()

    def take(self, n: int) -> list[float]:
        """The next ``n`` draws in ``[0, 1)``, in order: what ``n`` calls of
        :meth:`uniform` return."""
        batch, short = self._batch, n - len(self._batch)
        if short > 0:  # whole batches of 64 go behind the rest of this one
            batch[:0] = self._draw(-(-short // 64) * 64)[::-1]
        draws = batch[len(batch) - n :]
        del batch[len(batch) - n :]
        draws.reverse()
        return draws

    def untake(self, draws: list[float]) -> None:
        """Give back ``draws``, the unused tail of the last :meth:`take`: they are the next draws again."""
        self._batch += draws[::-1]

    def _draw(self, n: int) -> list[float]:
        """``n`` fresh draws from the generator, which the first one builds."""
        if self._gen is None:
            key = np.random.SeedSequence(self.seed, spawn_key=self.stream)
            self._gen = np.random.Generator(np.random.Philox(key))
        return self._gen.random(n).tolist()

    def substream(self, *ids: int) -> "RngState":
        """Fresh stream for ``(seed, stream + ids)``.

        Derivation depends only on the stream identity, never on how many
        draws this state has already produced.
        """
        return RngState(self.seed, self.stream + ids)

    def __repr__(self) -> str:
        return f"RngState(seed={self.seed}, stream={self.stream})"


def _checked(arr: np.ndarray) -> np.ndarray:
    """``arr``, frozen, once each row along its last axis is non-negative and
    sums to one within ``PROB_SUM_TOL``.  Both checks are written to fail on
    NaN, and an infinite entry fails one of them."""
    if not np.all(arr >= 0.0):
        raise ValueError("probabilities must be non-negative, not NaN")
    totals = arr.sum(axis=-1)
    ok = np.abs(totals - 1.0) <= PROB_SUM_TOL
    if not ok.all():
        got = float(totals.flat[np.flatnonzero(~ok)[0]])
        raise ValueError(f"probabilities must sum to 1 within {PROB_SUM_TOL}, got {got!r}")
    arr.setflags(write=False)
    return arr


# --------------------------------------------------------------------------- #
#  Probability operations
# --------------------------------------------------------------------------- #


def normalize(raw: np.ndarray | Sequence[float]) -> ProbDist:
    """Scale a non-negative weight vector to sum to one.

    Raises:
        AllZeroError: if no entry is positive.
        ValueError: if any entry is negative or NaN, or the weights do not
            sum to a finite total.
    """
    arr = np.asarray(raw, dtype=np.float64)
    if not np.all(arr >= 0.0):
        raise ValueError("weights must be non-negative, not NaN")
    total = float(arr.sum())
    if not np.isfinite(total):
        raise ValueError(f"weights must sum to a finite total, got {total!r}")
    if total <= 0.0:
        raise AllZeroError("cannot normalize an all-zero weight vector")
    return ProbDist(arr / total)


def sample(dist: ProbDist, rng: RngState) -> TokenId:
    """Inverse-CDF draw from ``dist``; consumes exactly one uniform.

    Tokens with zero probability are never returned, so a point mass is
    sampled exactly: ``cdf`` is 1.0 from the last positive entry on, so a
    ``u`` past a cumulative sum that rounded below 1 draws that entry.
    """
    return bisect_right(dist.cdf, rng.uniform())


def argmax(dist: ProbDist) -> TokenId:
    """Index of the largest probability; ties break to the lowest index.

    Set when the row is built, so a query calls no numpy.
    """
    return dist._top
