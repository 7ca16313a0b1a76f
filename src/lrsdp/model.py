"""Block-structured SDP problem data: types, validation, file I/O.

A problem is

    min  sum_j <C_j, X_j> + c_f . x
    s.t. sum_j <A_ij, X_j> + a_i . x  {= | >=}  b_i,   i = 1..m
         X_j PSD,  x free,

with equality rows listed before inequality rows (canonical order).  The
first ``factorized_count`` PSD blocks are the ones the low-rank solver
factorizes; trailing blocks are kept as matrix variables.

Symmetric matrices are stored packed (upper triangle, row-major), so symmetry
is structural.  Constraint data is kept as sparse upper-triangle coordinate
lists; cost blocks are dense packed.  Builders assemble a problem from dense
rows with ``ConicSdpProblem.from_dense``; ``read_problem`` adds up file entries
with ``CooSymmetric.from_entries``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

__all__ = [
    "ConstraintKind",
    "SymmetricMatrix",
    "CooSymmetric",
    "Constraint",
    "BlockStructure",
    "ConicSdpProblem",
    "PrimalPoint",
    "ProblemFormatError",
    "validate",
    "read_problem",
    "write_problem",
]


class ConstraintKind(Enum):
    EQUALITY = "E"
    INEQUALITY = "I"


class ProblemFormatError(ValueError):
    """Raised by the problem-file reader; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@lru_cache(maxsize=None)
def _triu_rows_cols(n: int) -> tuple[np.ndarray, np.ndarray]:
    r, c = np.triu_indices(n)
    r.setflags(write=False)
    c.setflags(write=False)
    return r, c


def packed_size(n: int) -> int:
    return n * (n + 1) // 2


def packed_index(n: int, i, j):
    """Position of entry (i, j), i <= j, 0-based, in row-major packed storage.

    Works elementwise on integer arrays of row and column indices.
    """
    return i * n - i * (i - 1) // 2 + (j - i)


@dataclass(frozen=True, eq=False)
class SymmetricMatrix:
    """Dense symmetric matrix in packed upper-triangular storage."""

    dim: int
    packed: np.ndarray

    def __post_init__(self):
        if self.packed.shape != (packed_size(self.dim),):
            raise ValueError(
                f"packed storage for dim {self.dim} needs "
                f"{packed_size(self.dim)} entries, got {self.packed.shape}"
            )

    @classmethod
    def from_dense(cls, a: np.ndarray) -> "SymmetricMatrix":
        a = np.asarray(a, dtype=float)
        n = a.shape[0]
        if a.shape != (n, n):
            raise ValueError(f"expected square matrix, got {a.shape}")
        sym = 0.5 * (a + a.T)
        r, c = _triu_rows_cols(n)
        return cls(n, sym[r, c].copy())

    def to_dense(self) -> np.ndarray:
        n = self.dim
        r, c = _triu_rows_cols(n)
        a = np.zeros((n, n))
        a[r, c] = self.packed
        a[c, r] = self.packed
        return a

    def scaled(self, t: float) -> "SymmetricMatrix":
        return SymmetricMatrix(self.dim, t * self.packed)


@dataclass(frozen=True, eq=False)
class CooSymmetric:
    """Sparse symmetric matrix: upper-triangle coordinates only (i <= j)."""

    dim: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    @classmethod
    def from_entries(cls, n: int, entries) -> "CooSymmetric":
        """Build from (i, j, value) triples with i <= j; duplicates accumulate."""
        acc: dict[tuple[int, int], float] = {}
        for i, j, v in entries:
            if not (0 <= i <= j < n):
                raise ValueError(f"entry ({i},{j}) outside upper triangle of dim {n}")
            acc[(i, j)] = acc.get((i, j), 0.0) + float(v)
        keys = sorted(acc)
        rows = np.array([k[0] for k in keys], dtype=int)
        cols = np.array([k[1] for k in keys], dtype=int)
        vals = np.array([acc[k] for k in keys], dtype=float)
        return cls(n, rows, cols, vals)

    @classmethod
    def from_dense(cls, a: np.ndarray) -> "CooSymmetric":
        """Upper-triangle entries of (a + a^T) / 2, exact zeros dropped."""
        a = np.asarray(a, dtype=float)
        n = a.shape[0]
        sym = 0.5 * (a + a.T)
        r, c = _triu_rows_cols(n)
        v = sym[r, c]
        keep = v != 0.0  # keeps NaN, so validate sees it
        return cls(n, r[keep].copy(), c[keep].copy(), v[keep].copy())

    def to_dense(self) -> np.ndarray:
        a = np.zeros((self.dim, self.dim))
        a[self.rows, self.cols] = self.vals
        a[self.cols, self.rows] = self.vals
        return a

    @property
    def nnz(self) -> int:
        return self.vals.size


@dataclass(frozen=True, eq=False)
class Constraint:
    """One affine row: per-block sparse matrices, free-part vector, rhs, kind."""

    blocks: tuple[CooSymmetric, ...]
    free: np.ndarray
    rhs: float
    kind: ConstraintKind


@dataclass(frozen=True)
class BlockStructure:
    """PSD block sizes, how many leading blocks get factorized, free dimension."""

    psd_sizes: tuple[int, ...]
    factorized_count: int
    free_dim: int = 0

    @property
    def num_blocks(self) -> int:
        return len(self.psd_sizes)

    @property
    def tail_sizes(self) -> tuple[int, ...]:
        return self.psd_sizes[self.factorized_count:]


@dataclass(frozen=True, eq=False)
class PrimalPoint:
    """Candidate primal point: one symmetric matrix per PSD block plus free part."""

    psd_blocks: tuple[SymmetricMatrix, ...]
    free: np.ndarray


@dataclass(frozen=True, eq=False)
class ConicSdpProblem:
    structure: BlockStructure
    cost_blocks: tuple[SymmetricMatrix, ...]
    cost_free: np.ndarray
    constraints: tuple[Constraint, ...]
    name: str = ""

    @classmethod
    def normalized(cls, structure, cost_blocks, cost_free, constraints, name="") -> "ConicSdpProblem":
        """Canonical constructor: reorders constraints so equalities come first."""
        eqs = [c for c in constraints if c.kind is ConstraintKind.EQUALITY]
        ineqs = [c for c in constraints if c.kind is ConstraintKind.INEQUALITY]
        return cls(
            structure=structure,
            cost_blocks=tuple(cost_blocks),
            cost_free=np.asarray(cost_free, dtype=float),
            constraints=tuple(eqs + ineqs),
            name=name,
        )

    @classmethod
    def from_dense(cls, structure, cost_blocks, cost_free, rows, name="") -> "ConicSdpProblem":
        """Build from dense data: ``rows`` holds (blocks, free, rhs, 'E'|'I')
        tuples, one dense matrix per PSD block; each matrix, cost or row
        block, enters through its symmetric part."""
        constraints = [
            Constraint(
                tuple(CooSymmetric.from_dense(a) for a in blocks),
                np.asarray(free, dtype=float),
                float(rhs),
                ConstraintKind(kind),
            )
            for blocks, free, rhs, kind in rows
        ]
        return cls.normalized(
            structure,
            tuple(SymmetricMatrix.from_dense(c) for c in cost_blocks),
            cost_free,
            constraints,
            name,
        )

    @property
    def m(self) -> int:
        return len(self.constraints)

    @property
    def b(self) -> np.ndarray:
        return np.array([c.rhs for c in self.constraints])

    @property
    def kinds(self) -> str:
        return "".join(c.kind.value for c in self.constraints)

    def equality_indices(self) -> np.ndarray:
        return np.array(
            [i for i, c in enumerate(self.constraints) if c.kind is ConstraintKind.EQUALITY],
            dtype=int,
        )

    def inequality_indices(self) -> np.ndarray:
        return np.array(
            [i for i, c in enumerate(self.constraints) if c.kind is ConstraintKind.INEQUALITY],
            dtype=int,
        )


def validate(problem: ConicSdpProblem) -> list[str]:
    """Check all structural invariants; returns diagnostics (empty when clean)."""
    diags: list[str] = []
    st = problem.structure

    if not st.psd_sizes and st.free_dim == 0:
        diags.append("structure: no PSD blocks and free_dim == 0")
    if any(n <= 0 for n in st.psd_sizes):
        diags.append("structure: PSD block sizes must be positive")
    if not (0 <= st.factorized_count <= st.num_blocks):
        diags.append(
            f"structure: factorized_count {st.factorized_count} outside "
            f"[0, {st.num_blocks}]"
        )
    if st.free_dim < 0:
        diags.append("structure: free_dim must be nonnegative")

    if len(problem.cost_blocks) != st.num_blocks:
        diags.append(
            f"cost: {len(problem.cost_blocks)} blocks, structure declares {st.num_blocks}"
        )
    else:
        for j, c in enumerate(problem.cost_blocks):
            if c.dim != st.psd_sizes[j]:
                diags.append(f"cost: block {j} has dim {c.dim}, expected {st.psd_sizes[j]}")
            if not np.all(np.isfinite(c.packed)):
                diags.append(f"cost: block {j} has non-finite entries")
    if problem.cost_free.shape != (st.free_dim,):
        diags.append(
            f"cost: free part has length {problem.cost_free.shape}, expected {st.free_dim}"
        )
    if not np.all(np.isfinite(problem.cost_free)):
        diags.append("cost: free part has non-finite entries")

    for i, con in enumerate(problem.constraints):
        if len(con.blocks) != st.num_blocks:
            diags.append(
                f"constraint {i}: {len(con.blocks)} blocks, structure declares {st.num_blocks}"
            )
            continue
        for j, bl in enumerate(con.blocks):
            if bl.dim != st.psd_sizes[j]:
                diags.append(
                    f"constraint {i}: block {j} has dim {bl.dim}, expected {st.psd_sizes[j]}"
                )
            if bl.nnz and not np.all(np.isfinite(bl.vals)):
                diags.append(f"constraint {i}: block {j} has non-finite entries")
            if bl.nnz and np.any(bl.rows > bl.cols):
                diags.append(f"constraint {i}: block {j} stores lower-triangle entries")
        if con.free.shape != (st.free_dim,):
            diags.append(
                f"constraint {i}: free part length {con.free.shape}, expected {st.free_dim}"
            )
        if not np.all(np.isfinite(con.free)):
            diags.append(f"constraint {i}: free part has non-finite entries")
        if not np.isfinite(con.rhs):
            diags.append(f"constraint {i}: non-finite right-hand side")

    seen_ineq = False
    for i, con in enumerate(problem.constraints):
        if con.kind is ConstraintKind.INEQUALITY:
            seen_ineq = True
        elif seen_ineq:
            diags.append(f"constraint {i}: equality listed after an inequality")
            break

    return diags


# ---------------------------------------------------------------------------
# text format
#
# line 1: m
# line 2: nblocks d k           (k = number of factorized leading blocks)
# line 3: block sizes           (nblocks integers; empty when nblocks = 0)
# line 4: constraint kinds      (string of E/I, length m)
# line 5: b                     (m values)
# then entry lines: con block i j value
#   con = 0 is the cost; block = 0 is the free part (j ignored); 1-based;
#   only i <= j stored.  Lines starting with '"' are comments.
# ---------------------------------------------------------------------------


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def read_problem(text: str) -> ConicSdpProblem:
    """Parse the extended sparse problem format."""
    lines: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if raw.lstrip().startswith('"'):
            continue
        lines.append((lineno, raw.strip()))

    if len(lines) < 5:
        raise ProblemFormatError("file has fewer than 5 header lines")

    def ints(slot: int, expect: int | None, what: str) -> list[int]:
        lineno, content = lines[slot]
        try:
            vals = [int(t) for t in content.split()]
        except ValueError:
            raise ProblemFormatError(f"could not parse {what}", lineno)
        if expect is not None and len(vals) != expect:
            raise ProblemFormatError(
                f"inconsistent dimension declaration: expected {expect} values for {what}, got {len(vals)}",
                lineno,
            )
        return vals

    m = ints(0, 1, "constraint count")[0]
    if m < 0:
        raise ProblemFormatError("negative constraint count", lines[0][0])
    nblocks, d, k = ints(1, 3, "nblocks d k")
    if nblocks < 0 or d < 0 or not (0 <= k <= nblocks):
        raise ProblemFormatError(
            f"inconsistent dimension declaration: nblocks={nblocks} d={d} k={k}", lines[1][0]
        )
    sizes = ints(2, nblocks, "block sizes")
    if any(n <= 0 for n in sizes):
        raise ProblemFormatError("block sizes must be positive", lines[2][0])

    kind_line, kind_text = lines[3]
    kind_text = kind_text.replace(" ", "")
    if len(kind_text) != m:
        raise ProblemFormatError(
            f"inconsistent dimension declaration: kind string has length {len(kind_text)}, m = {m}",
            kind_line,
        )
    kinds: list[ConstraintKind] = []
    for ch in kind_text:
        if ch not in ("E", "I"):
            raise ProblemFormatError(f"unknown constraint kind {ch!r}", kind_line)
        kinds.append(ConstraintKind(ch))

    b_line, b_text = lines[4]
    try:
        b = [float(t) for t in b_text.split()]
    except ValueError:
        raise ProblemFormatError("could not parse right-hand side", b_line)
    if len(b) != m:
        raise ProblemFormatError(
            f"inconsistent dimension declaration: {len(b)} rhs values, m = {m}", b_line
        )

    # entry lists: cost and one slot per constraint
    block_entries = [[[] for _ in range(nblocks)] for _ in range(m + 1)]
    try:
        free_entries = [np.zeros(d) for _ in range(m + 1)]
    except (ValueError, MemoryError):
        raise ProblemFormatError(f"free dimension {d} is too large to store", lines[1][0])

    for lineno, content in lines[5:]:
        if not content:
            continue
        toks = content.split()
        if len(toks) != 5:
            raise ProblemFormatError(f"expected 'con block i j value', got {content!r}", lineno)
        try:
            con, blk, i, j = (int(t) for t in toks[:4])
            val = float(toks[4])
        except ValueError:
            raise ProblemFormatError(f"could not parse entry {content!r}", lineno)
        if not (0 <= con <= m):
            raise ProblemFormatError(f"constraint index {con} outside [0, {m}]", lineno)
        if not (0 <= blk <= nblocks):
            raise ProblemFormatError(f"unknown block marker {blk}", lineno)
        if blk == 0:
            if not (1 <= i <= d):
                raise ProblemFormatError(f"free index {i} outside [1, {d}]", lineno)
            free_entries[con][i - 1] += val
        else:
            n = sizes[blk - 1]
            if not (1 <= i <= j <= n):
                raise ProblemFormatError(
                    f"entry ({i},{j}) outside stored upper triangle of block {blk} (dim {n})",
                    lineno,
                )
            block_entries[con][blk - 1].append((i - 1, j - 1, val))

    blocks = [
        tuple(CooSymmetric.from_entries(n, entries) for n, entries in zip(sizes, per_con))
        for per_con in block_entries
    ]
    for fv in free_entries:
        fv.setflags(write=False)

    cost_blocks = []
    for blk, coo in enumerate(blocks[0], start=1):
        try:
            packed = np.zeros(packed_size(coo.dim))
        except (ValueError, MemoryError):
            raise ProblemFormatError(f"block {blk} of size {coo.dim} is too large to store", lines[2][0])
        packed[packed_index(coo.dim, coo.rows, coo.cols)] += coo.vals
        packed.setflags(write=False)
        cost_blocks.append(SymmetricMatrix(coo.dim, packed))

    constraints = tuple(
        Constraint(blocks[ci], free_entries[ci], b[ci - 1], kinds[ci - 1])
        for ci in range(1, m + 1)
    )
    return ConicSdpProblem(
        structure=BlockStructure(tuple(sizes), k, d),
        cost_blocks=tuple(cost_blocks),
        cost_free=free_entries[0],
        constraints=constraints,
    )


def write_problem(problem: ConicSdpProblem) -> str:
    """Serialize in canonical entry order (sorted by con, block, i, j)."""
    st = problem.structure
    out = [
        str(problem.m),
        f"{st.num_blocks} {st.free_dim} {st.factorized_count}",
        " ".join(str(n) for n in st.psd_sizes),
        problem.kinds,
        " ".join(_fmt(c.rhs) for c in problem.constraints),
    ]

    def emit_free(con: int, vec: np.ndarray):
        for i, v in enumerate(vec):
            if v != 0.0:
                out.append(f"{con} 0 {i + 1} 0 {_fmt(v)}")

    def emit_packed(con: int, blk: int, sm: SymmetricMatrix):
        r, c = _triu_rows_cols(sm.dim)
        for i, j, v in zip(r, c, sm.packed):
            if v != 0.0:
                out.append(f"{con} {blk} {i + 1} {j + 1} {_fmt(v)}")

    def emit_coo(con: int, blk: int, bl: CooSymmetric):
        order = np.lexsort((bl.cols, bl.rows))
        for t in order:
            if bl.vals[t] != 0.0:
                out.append(f"{con} {blk} {bl.rows[t] + 1} {bl.cols[t] + 1} {_fmt(bl.vals[t])}")

    emit_free(0, problem.cost_free)
    for blk, sm in enumerate(problem.cost_blocks, start=1):
        emit_packed(0, blk, sm)
    for ci, con in enumerate(problem.constraints, start=1):
        emit_free(ci, con.free)
        for blk, bl in enumerate(con.blocks, start=1):
            emit_coo(ci, blk, bl)

    return "\n".join(out) + "\n"
