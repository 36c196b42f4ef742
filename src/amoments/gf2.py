"""Dense bit-packed linear algebra over GF(2).

Rows are Python ints used as bitsets (bit j = column j), so row operations
are single XORs regardless of width.  Matrices are immutable from the
caller's point of view; elimination always works on a copy.  The residue
matrix of a prime tuple and the loop over its diagonal twists live here, as
the class-group (Redei) and the 2-Selmer matrices are both built from them.
"""

from __future__ import annotations

from .arith import kronecker, sym_to_gf2

_DIM_LIMIT = 4096


class Gf2Matrix:
    __slots__ = ("rows", "cols", "_bits")

    def __init__(self, rows: int, cols: int, bits: list[int] | None = None):
        if not (0 <= rows <= _DIM_LIMIT and 0 <= cols <= _DIM_LIMIT):
            raise ValueError(f"dimensions must lie in [0, {_DIM_LIMIT}]")
        self.rows = rows
        self.cols = cols
        if bits is None:
            bits = [0] * rows
        if len(bits) != rows:
            raise ValueError("wrong number of rows")
        mask = (1 << cols) - 1
        self._bits = [b & mask for b in bits]

    @classmethod
    def from_entries(cls, entries: list[list[int]]) -> "Gf2Matrix":
        rows = len(entries)
        cols = len(entries[0]) if rows else 0
        bits = []
        for row in entries:
            if len(row) != cols:
                raise ValueError("ragged rows")
            bits.append(sum((1 << j) for j, x in enumerate(row) if x & 1))
        return cls(rows, cols, bits)

    def entry(self, i: int, j: int) -> int:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError((i, j))
        return (self._bits[i] >> j) & 1

    def row_bits(self) -> list[int]:
        return list(self._bits)

    def transpose(self) -> "Gf2Matrix":
        bits = [0] * self.cols
        for i, row in enumerate(self._bits):
            while row:
                j = (row & -row).bit_length() - 1
                bits[j] |= 1 << i
                row &= row - 1
        return Gf2Matrix(self.cols, self.rows, bits)

    def submatrix(self, row_idx: list[int], col_idx: list[int]) -> "Gf2Matrix":
        bits = []
        for i in row_idx:
            src = self._bits[i]
            bits.append(sum(((src >> j) & 1) << k for k, j in enumerate(col_idx)))
        return Gf2Matrix(len(row_idx), len(col_idx), bits)

    def mul_vec(self, vec: int) -> int:
        """Matrix times column vector (vec packed little-endian by column)."""
        out = 0
        for i, row in enumerate(self._bits):
            if bin(row & vec).count("1") & 1:
                out |= 1 << i
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Gf2Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._bits == other._bits
        )

    def __repr__(self) -> str:
        lines = [
            "".join(str((b >> j) & 1) for j in range(self.cols)) for b in self._bits
        ]
        return f"Gf2Matrix({self.rows}x{self.cols}: {'|'.join(lines)})"

    def _echelon(self) -> tuple[list[int], list[int]]:
        """Return (reduced rows, pivot columns); left-to-right column pivots."""
        work = list(self._bits)
        pivots = []
        r = 0
        for col in range(self.cols):
            sel = None
            for i in range(r, len(work)):
                if (work[i] >> col) & 1:
                    sel = i
                    break
            if sel is None:
                continue
            work[r], work[sel] = work[sel], work[r]
            for i in range(len(work)):
                if i != r and (work[i] >> col) & 1:
                    work[i] ^= work[r]
            pivots.append(col)
            r += 1
            if r == len(work):
                break
        return work, pivots

    def rank(self) -> int:
        return len(self._echelon()[1])

    def kernel_size(self) -> int:
        dim = self.cols - self.rank()
        if dim > 62:
            raise OverflowError("kernel size exceeds 2^62")
        return 1 << dim

    def kernel_basis(self) -> list[int]:
        """Independent vectors spanning the right kernel, packed as ints."""
        work, pivots = self._echelon()
        pivot_set = set(pivots)
        basis = []
        for free in range(self.cols):
            if free in pivot_set:
                continue
            vec = 1 << free
            for r, col in enumerate(pivots):
                if (work[r] >> free) & 1:
                    vec |= 1 << col
            basis.append(vec)
        return basis


def identity(n: int) -> Gf2Matrix:
    return Gf2Matrix(n, n, [1 << i for i in range(n)])


def residue_bits(primes: tuple[int, ...], values: tuple[int, ...]) -> list[int]:
    """Rows of the zero-row-sum residue matrix of a prime tuple.

    Entry (i, j), i != j, is the additive symbol (values[j] / primes[i]); the
    diagonal makes every row sum to 0.
    """
    bits = []
    for i, p in enumerate(primes):
        row = 0
        for j, v in enumerate(values):
            if j != i:
                row |= sym_to_gf2(kronecker(v, p)) << j
        bits.append(row | (row.bit_count() & 1) << i)
    return bits


def twist_diagonal(bits: list[int], diag: int) -> list[int]:
    """Rows with diagonal entry k flipped wherever bit k of diag is set."""
    return [row ^ (diag & (1 << k)) for k, row in enumerate(bits)]


def twist_kernel_sizes(bits: list[int], r: int) -> list[int]:
    """Kernel sizes of the square matrix with rows bits under every diagonal
    twist over r classes, indexed by the twist bitmask: bit i flips diagonal
    entry i of each r x r diagonal block."""
    n = len(bits)
    spread = sum(1 << s for s in range(0, n, r or 1))
    return [
        Gf2Matrix(n, n, twist_diagonal(bits, mask * spread)).kernel_size()
        for mask in range(1 << r)
    ]
