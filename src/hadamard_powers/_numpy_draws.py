"""The draws of graphs.random_chordal: numpy Generator.integers(m),
.binomial(t, p) and .choice(s, k, replace=False), one of each per vertex.

For the PCG64 bit generator of `numpy.random.default_rng` they are read
off its raw 64-bit words in plain Python, kernel for kernel as numpy's
Generator draws them, so every seed keeps its graph at a fraction of the
cost of a numpy call per draw.
"""

import math

from ._lazy_numpy import np


def draws_from(rng):
    """The draws of Generator `rng`: reproduced from raw words for PCG64,
    the numpy calls themselves for any other bit generator."""
    return (PCG64Draws if type(rng.bit_generator) is np.random.PCG64 else NumpyDraws)(rng)


class NumpyDraws:
    """random_chordal's draws as the numpy Generator calls themselves."""

    def __init__(self, rng):
        self.rng = rng

    def integers(self, m):
        return int(self.rng.integers(m))

    def binomial(self, t, p):
        return int(self.rng.binomial(t, p))

    def choice(self, s, k):
        """The indices of rng.choice(s, size=k, replace=False), sorted."""
        return sorted(self.rng.choice(s, size=k, replace=False).tolist())

    def sync(self):
        """Nothing to do: the numpy calls moved the Generator themselves."""


class PCG64Draws(NumpyDraws):
    """The same draws, reproduced from raw 64-bit words of a PCG64 bit
    generator, so each returns what the numpy call would have returned at
    that point of the stream. The words are read 256 at a time: a block of
    4096 took longer to read than an 8-vertex graph's numpy calls.

    numpy's uint32 draw takes the low half of a fresh word and keeps the
    high half for the next uint32 draw; a double takes a fresh word and
    leaves a kept half in place. Draws not reproduced here (a BTPE binomial,
    the tail shuffle of a choice from over 10,000, a range past 2^32) are
    the numpy calls, made after `sync`.
    """

    def __init__(self, rng):
        super().__init__(rng)
        self.bitgen = rng.bit_generator
        self.inversions = {}  # (t, p) -> (q^t, bound), as numpy caches them
        self._resume()

    def _resume(self):
        """Read on from the bit generator's own position."""
        state = self.bitgen.state
        self.kept = state["uinteger"] if state["has_uint32"] else None
        self.block_state = None  # the bit generator's state before `block`
        self.block = []
        self.pos = 0

    def sync(self):
        """Move the bit generator to the position these draws reached."""
        bitgen = self.bitgen
        if self.block_state is not None:
            bitgen.state = self.block_state
            bitgen.advance(self.pos)
        state = bitgen.state
        state["has_uint32"], state["uinteger"] = (0, 0) if self.kept is None else (1, self.kept)
        bitgen.state = state

    def _by_numpy(self, draw, *args):
        self.sync()
        out = draw(self, *args)
        self._resume()
        return out

    def word(self):
        """The next raw 64-bit word."""
        if self.pos == len(self.block):
            self.block_state = self.bitgen.state
            self.block = self.bitgen.random_raw(256).tolist()
            self.pos = 0
        self.pos += 1
        return self.block[self.pos - 1]

    def uint32(self):
        """A kept high half, else the low half of a fresh word, whose high
        half is kept."""
        kept = self.kept
        if kept is not None:
            self.kept = None
            return kept
        w = self.word()
        self.kept = w >> 32
        return w & 0xFFFFFFFF

    def integers(self, m):
        """Lemire's multiply-and-reject on uint32 draws; none for m = 1."""
        if m == 1:
            return 0
        if m >= 1 << 32:
            return self._by_numpy(NumpyDraws.integers, m)
        product = self.uint32() * m
        if product & 0xFFFFFFFF < m:
            threshold = ((1 << 32) - m) % m
            while product & 0xFFFFFFFF < threshold:
                product = self.uint32() * m
        return product >> 32

    def binomial(self, t, p):
        """Inversion while min(p, 1 - p) * t <= 30, else numpy's BTPE."""
        if t == 0 or p == 0.0:
            return 0
        if p <= 0.5:
            if p * t <= 30.0:
                return self._inversion(t, p)
        elif (1.0 - p) * t <= 30.0:
            return t - self._inversion(t, 1.0 - p)
        return self._by_numpy(NumpyDraws.binomial, t, p)

    def _inversion(self, t, p):
        """numpy's binomial by inversion for p <= 0.5: one double per try,
        a fresh try past the bound."""
        q = 1.0 - p
        try:
            qt, bound = self.inversions[t, p]
        except KeyError:
            qt = math.exp(t * math.log(q))
            tp = t * p
            bound = int(min(t, tp + 10.0 * math.sqrt(tp * q + 1)))
            self.inversions[t, p] = qt, bound
        x, px = 0, qt
        u = (self.word() >> 11) * (1.0 / 9007199254740992.0)
        while u > px:
            x += 1
            if x > bound:
                x, px = 0, qt
                u = (self.word() >> 11) * (1.0 / 9007199254740992.0)
            else:
                u -= px
                px = ((t - x + 1) * p * px) / (x * q)
        return x

    def choice(self, s, k):
        """Floyd's sampling, then the k - 1 draws of numpy's shuffle of the
        sample, whose order is dropped."""
        if s > 10000:
            return self._by_numpy(NumpyDraws.choice, s, k)
        chosen = set()
        for j in range(s - k, s):
            x = self.integers(j + 1)
            chosen.add(j if x in chosen else x)
        for i in range(k - 1, 0, -1):
            self.integers(i + 1)
        return sorted(chosen)
