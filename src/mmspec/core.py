"""Core value types and probability primitives shared by every other module.

Everything here is small and immutable: vocabularies, dense probability
vectors, prompts that keep image context separate from text, and a
counter-based random stream whose draws are reproducible from
(seed, stream).
"""

from __future__ import annotations

import os
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "AllZeroError",
    "MultimodalPrompt",
    "ProbDist",
    "REFILL",
    "RngState",
    "TokenId",
    "Vocab",
    "argmax",
    "as_integer",
    "is_integer",
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
        (cdf,), (top,) = _cdfs(_checked(arr)[None])  # the row as a one-row matrix, completed as table's rows
        self._fill(arr, cdf, top)

    @classmethod
    def table(cls, matrix: np.ndarray) -> list[ProbDist]:
        """One distribution per row of a 2-d ``matrix``, each a read-only view
        of it, once the whole matrix is validated.  A float64 array is
        frozen in place, not copied; the cumulative sums and argmaxes of
        all rows are taken in one numpy call each."""
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[1] < 2:
            raise ValueError(f"expected a 2-d matrix of rows of >= 2 entries, got shape {matrix.shape}")
        dists = []
        for probs, cdf, top in zip(matrix, *_cdfs(_checked(matrix))):
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


# Draws a stream reads from its generator at a time: one Generator.random(256) costs about half of four random(64).
REFILL = 256
_ZERO_COUNTER = np.zeros(4, dtype=np.uint64)  # Philox's default counter, which numpy only reads
_ZERO_COUNTER.setflags(write=False)


class RngState:
    """Deterministic uniform stream addressed by ``(seed, stream)``.

    Each named substream is an independent counter-based Philox stream keyed
    by the 64-bit seed plus a tuple of stream ids, and nothing global is
    touched.  A state is one cursor over its draws: :meth:`uniform` reads
    the next one, and ``iter(state)`` is the cursor itself, so a caller can
    read many with ``islice`` and a draw it never reads stays the next one.
    The cursor reads refills of :data:`REFILL` draws, which cost what as
    many scalar draws do at ~0.04 us, not ~1 us, each, and holds at most one.
    The generator is built on the first draw, so a state that never draws
    (greedy decoding) costs no key derivation.
    """

    __slots__ = ("seed", "stream", "_draws")

    def __init__(self, seed: int, stream: int | tuple[int, ...] = ()) -> None:
        # int() would truncate a float and read a bool as 0 or 1, so only integers, numpy ones too, pass
        if not (is_integer(seed) and 0 <= seed < 2**64):
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed!r}")
        self.seed = int(seed)
        ids = tuple(stream) if isinstance(stream, (tuple, list)) else (stream,)
        if not all(map(is_integer, ids)) or min(ids, default=0) < 0:
            raise ValueError(f"stream ids must be non-negative integers, got stream {ids!r}")
        self.stream = tuple(map(int, ids))
        self._draws = chain.from_iterable(_refills(self.seed, self.stream))

    def uniform(self) -> float:
        """Next uniform draw in ``[0, 1)``."""
        return next(self._draws)

    def __iter__(self) -> Iterator[float]:
        """The stream's one cursor, which :meth:`uniform` reads too: the draws from the next one on, without end."""
        return self._draws

    def substream(self, *ids: int) -> "RngState":
        """Fresh stream for ``(seed, stream + ids)``.

        Derivation depends only on the stream identity, never on how many
        draws this state has already produced.
        """
        return RngState(self.seed, self.stream + ids)

    def __repr__(self) -> str:
        return f"RngState(seed={self.seed}, stream={self.stream})"


def _philox(seed: int, stream: tuple[int, ...]) -> np.random.Generator:
    """The generator of ``(seed, stream)``.

    Its key is ``SeedSequence(seed, spawn_key=stream)``'s, built from the one
    uint32 array numpy assembles for it: the seed's 32-bit words, least
    significant first, zero-padded to the pool's 4 (numpy pads only before a
    stream, but its pool mixes a missing word as 0), then each stream id's
    words.  Its counter is numpy's default, zero, passed as an array, which
    spares numpy's conversion of the int 0."""
    ids = b"".join(s.to_bytes(4 * ((s.bit_length() + 31) // 32 or 1), "little") for s in stream)
    key = np.random.SeedSequence(np.frombuffer(seed.to_bytes(16, "little") + ids, dtype="<u4"))
    return np.random.Generator(np.random.Philox(key, counter=_ZERO_COUNTER))


def _refills(seed: int, stream: tuple[int, ...]) -> Iterator[list[float]]:
    """The draws of ``(seed, stream)``, :data:`REFILL` at a time; the first step builds the generator."""
    random = _philox(seed, stream).random
    while True:
        yield random(REFILL).tolist()


def is_integer(value: object) -> bool:
    """Whether ``value`` is a Python or numpy integer other than a bool."""
    return isinstance(value, (int, np.integer)) and type(value) is not bool


def as_integer(name: str, value: object) -> int:
    """``value`` as an int, if it is an integer, numpy's included, other than a bool; else a ValueError naming
    ``name``."""
    if not is_integer(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _read_utf8(path: Path, *, name_line: bool = True) -> str:
    """The text of ``path``, or a ValueError naming it, the offset of its first byte that is not UTF-8 and,
    with ``name_line``, that byte's line as :func:`_lines` counts lines (the line-based readers' count)."""
    data = path.read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = f":{len(_lines(data[: exc.start].decode('utf-8') + 'x'))}" if name_line else ""
        raise ValueError(f"{path}{line}: not UTF-8 ({exc.reason} at byte {exc.start})") from None


def _lines(text: str) -> list[str]:
    """The lines of ``text``, as every line-based reader numbers them: a line ends at ``\\n``, which is dropped
    with a ``\\r`` just before it, so CRLF text reads as LF text.  Every other character stays in its line, a
    lone ``\\r`` and the other breaks ``str.splitlines`` knows (form feed, U+2028, ...) among them."""
    lines = text.replace("\r\n", "\n").split("\n")
    if not lines[-1]:  # what follows the last newline: no line when it is empty
        lines.pop()
    return lines


def _write_atomic(texts: dict[Path, str]) -> None:
    """Write each text to its path as UTF-8, all or none: each goes to a temporary file ``.<name>.<pid>.tmp`` beside
    its path, and ``os.replace`` moves them into place once all are written.  A failure removes every temporary file."""
    tmps = {path: path.with_name(f".{path.name}.{os.getpid()}.tmp") for path in texts}
    try:
        for path, text in texts.items():
            tmps[path].write_text(text, encoding="utf-8", newline="")
        for path, tmp in tmps.items():
            os.replace(tmp, path)
    except BaseException:
        for tmp in tmps.values():
            tmp.unlink(missing_ok=True)  # never leave a temporary file behind
        raise


def _cdfs(matrix: np.ndarray) -> tuple[np.ndarray, list[TokenId]]:
    """Each row's read-only cumsum, 1.0 from its last positive entry on, and argmax: every ProbDist's completion."""
    cdfs = np.cumsum(matrix, axis=1)
    if matrix[:, -1].all():  # no zero tail, as in every smoothed model row: only the last sums are set
        cdfs[:, -1] = 1.0
    else:
        last = matrix.shape[1] - 1 - (matrix[:, ::-1] > 0.0).argmax(axis=1)  # each row's last positive entry
        cdfs[np.arange(matrix.shape[1]) >= last[:, None]] = 1.0
    cdfs.setflags(write=False)  # once for the matrix: its row views inherit it
    return cdfs, matrix.argmax(axis=1).tolist()


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
