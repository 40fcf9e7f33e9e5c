"""Saturating counters and small deterministic PRNG utilities.

These are the shared primitives of every table-based predictor and of the
Branch Runahead bookkeeping structures (HBT misprediction/bias counters,
prediction-queue throttles).
"""

from __future__ import annotations


def saturate_up(value: int, maximum: int) -> int:
    """Increment ``value`` saturating at ``maximum``."""
    return value + 1 if value < maximum else maximum


def saturate_down(value: int, minimum: int) -> int:
    """Decrement ``value`` saturating at ``minimum``."""
    return value - 1 if value > minimum else minimum


def update_signed(value: int, taken: bool, bits: int) -> int:
    """Update a signed saturating counter of width ``bits`` toward ``taken``.

    Signed counters span ``[-2**(bits-1), 2**(bits-1) - 1]``; a non-negative
    value means predict taken.
    """
    low = -(1 << (bits - 1))
    high = (1 << (bits - 1)) - 1
    if taken:
        return value + 1 if value < high else high
    return value - 1 if value > low else low


def counter_predicts_taken(value: int) -> bool:
    """Direction encoded by a signed counter (>= 0 means taken)."""
    return value >= 0


class Lfsr:
    """16-bit Fibonacci LFSR: deterministic pseudo-randomness for allocation.

    Hardware predictors use an LFSR to pick which tagged table receives a new
    entry on a misprediction; using one here (rather than ``random``) keeps
    every simulation bit-reproducible.
    """

    __slots__ = ("state",)

    def __init__(self, seed: int = 0xACE1):
        if seed == 0:
            raise ValueError("LFSR seed must be non-zero")
        self.state = seed & 0xFFFF

    def next(self) -> int:
        """Advance and return the new 16-bit state."""
        lsb = self.state & 1
        self.state >>= 1
        if lsb:
            self.state ^= 0xB400
        return self.state

    def bits(self, count: int) -> int:
        """Return ``count`` pseudo-random bits."""
        return self.next() & ((1 << count) - 1)


class FoldedHistory:
    """Incrementally folded branch history (CBP-style).

    Folds the most recent ``original_length`` history bits into a
    ``compressed_length``-bit register in O(1) per branch, given the newest
    bit being shifted in and the oldest bit being shifted out.
    """

    __slots__ = ("comp", "original_length", "compressed_length", "_out_shift",
                 "_mask")

    def __init__(self, original_length: int, compressed_length: int):
        self.comp = 0
        self.original_length = original_length
        self.compressed_length = compressed_length
        self._out_shift = original_length % compressed_length
        self._mask = (1 << compressed_length) - 1

    def update(self, new_bit: int, old_bit: int) -> None:
        comp = (self.comp << 1) | new_bit
        comp ^= old_bit << self._out_shift
        comp ^= comp >> self.compressed_length
        self.comp = comp & self._mask


class HistoryBuffer:
    """Circular buffer of recent branch outcomes.

    Provides ``bit(age)`` so each :class:`FoldedHistory` can retrieve the bit
    falling out of its window on every update.
    """

    __slots__ = ("_buffer", "_head", "_size")

    def __init__(self, size: int):
        self._buffer = bytearray(size)
        self._head = 0
        self._size = size

    def push(self, taken: bool) -> None:
        self._head = (self._head + 1) % self._size
        self._buffer[self._head] = 1 if taken else 0

    def bit(self, age: int) -> int:
        """Outcome of the branch ``age`` steps ago (0 = most recent)."""
        return self._buffer[(self._head - age) % self._size]

    def refill(self, outcomes, count: int) -> None:
        """Take the state ``count`` pushes of ``outcomes`` leave behind.

        Valid on a buffer no push has touched: only the last ``size``
        pushes survive in the ring, so they are the only ones replayed.
        """
        tail = min(count, self._size)
        self._head = (count - tail) % self._size
        for taken in outcomes[count - tail:count].tolist():
            self.push(taken)


class OutcomeFolds:
    """Every folded-history register of one outcome stream, in bulk.

    A :class:`FoldedHistory` of length ``L`` compressed to ``C`` bits is
    linear over GF(2) and starts from zero: before event ``t`` it holds,
    for each of the last ``L`` outcomes, the outcome ``j`` events back at
    bit ``j mod C``.  Placing outcome ``u`` at bit ``-u mod C`` instead
    makes that a window of one stream-wide prefix XOR,
    ``P(t) ^ P(t - L)``, rotated left by ``(t - 1) mod C``, so a block of
    events and tables costs a few numpy operations however long the
    histories are.  One prefix array is kept per compressed length, for
    as long as the instance lives.
    """

    def __init__(self, np, taken_v):
        self.np = np
        self.taken_v = taken_v
        self._prefixes: dict = {}

    def _prefix(self, comp_len: int):
        prefix = self._prefixes.get(comp_len)
        if prefix is None:
            np = self.np
            count = len(self.taken_v)
            shifts = -np.arange(count, dtype=np.int64) % comp_len
            prefix = np.zeros(count + 1, dtype=np.int64)
            np.bitwise_xor.accumulate(self.taken_v.astype(np.int64) << shifts,
                                      out=prefix[1:])
            self._prefixes[comp_len] = prefix
        return prefix

    def rows(self, lengths, comp_len: int, start: int, stop: int):
        """``(stop - start, len(lengths))`` int64 registers before each event.

        Row ``k`` holds every length's ``comp_len``-bit fold as it stands
        before event ``start + k`` (``stop`` may reach the stream length:
        the registers after the last push).  Bit-identical to advancing a
        zeroed :class:`FoldedHistory` per length over the stream, provided
        each length is at most the history ring's span.
        """
        np = self.np
        prefix = self._prefix(comp_len)
        count = stop - start
        window = np.empty((len(lengths), count), dtype=np.int64)
        for row, length in zip(window, lengths):
            low = start - length
            if low >= 0:
                row[:] = prefix[low:low + count]
            else:  # the window reaches past the stream start: P(0) = 0
                lead = min(-low, count)
                row[:lead] = 0
                row[lead:] = prefix[:count - lead]
        window ^= prefix[start:stop]
        turn = np.arange(start - 1, stop - 1, dtype=np.int64) % comp_len
        window = (window << turn) | (window >> (comp_len - turn))
        window &= (1 << comp_len) - 1
        return window.T
