"""Pauli-string operators with O(n) sparse row lookup.

An operator is a weighted sum of tensor products of single-qubit Pauli
factors, with identity on every qubit a term does not name.  Each product
term has exactly one nonzero entry per row of its dense matrix, so row x of
a T-term sum can be recovered in O(n*T) work without ever touching the
2^n-dimensional space.

Batch evaluation goes through a sum's RowForm, compiled once and cached on
the sum: terms merged on their (flip, signs) masks and grouped by flip
mask, so a row costs one parity per distinct Pauli string and yields one
value per distinct column.  The square A^2 is compiled the same way from
the pairwise products of A's strings, so (A^2 psi)(x) reads one amplitude
per distinct column of row x of A^2: at most T(T+1)/2 for a T-term sum,
and far fewer when strings share flip masks.

Bit convention, fixed across the package: qubit 0 is the most significant
bit of a basis index, matching the Kronecker order factor_0 (x) factor_1
(x) ... (x) factor_{n-1} used by to_dense.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import CapabilityError, ParseError

PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}

# Largest qubit count for anything that enumerates the 2^n basis: dense
# vectors, to_sparse, the exact oracle and the CLI's --dense-limit default.
DENSE_LIMIT = 14

# Largest qubit count for full 2^n x 2^n matrices (16 MiB at n = 10, 4 GiB
# at 14): to_dense's default, and the oracle's switch from LAPACK to sparse.
DENSE_MATRIX_LIMIT = 10

# Entries below this magnitude are dropped when merging a row.
MERGE_TOL = 1e-15


class PauliTerm:
    """coefficient * (product of X/Y/Z factors) on n qubits.

    ``factors`` maps qubit index -> letter; absent qubits carry identity.
    The row action is precomputed into two bit masks: flipping X/Y bits
    selects the column, and the parity of x against the Y/Z bits fixes the
    sign.  The constant phase (-i)^{#Y} is folded into ``_weight``.
    """

    __slots__ = ("coefficient", "factors", "n", "_flip", "_signs", "_weight")

    def __init__(self, coefficient, factors, n):
        n = int(n)
        if n < 1:
            raise ValueError("need at least one qubit")
        factors = {int(q): str(letter) for q, letter in dict(factors).items()}
        flip = 0
        signs = 0
        n_y = 0
        for q, letter in factors.items():
            if not 0 <= q < n:
                raise ValueError(f"qubit {q} outside [0, {n})")
            if letter not in ("X", "Y", "Z"):
                raise ValueError(f"unknown Pauli letter {letter!r}")
            bit = 1 << (n - 1 - q)
            if letter in ("X", "Y"):
                flip |= bit
            if letter in ("Y", "Z"):
                signs |= bit
            if letter == "Y":
                n_y += 1
        self.coefficient = complex(coefficient)
        self.factors = factors
        self.n = n
        self._flip = flip
        self._signs = signs
        self._weight = self.coefficient * (-1j) ** n_y

    def __eq__(self, other):
        if not isinstance(other, PauliTerm):
            return NotImplemented
        return (self.coefficient == other.coefficient
                and self.factors == other.factors and self.n == other.n)

    def __repr__(self):
        return f"PauliTerm({self.coefficient!r}, {self.factors!r}, n={self.n})"


class PauliSum:
    """Sum of PauliTerms over a shared qubit count."""

    def __init__(self, terms, n):
        n = int(n)
        terms = list(terms)
        for t in terms:
            if not isinstance(t, PauliTerm):
                raise TypeError(f"expected PauliTerm, got {type(t).__name__}")
            if t.n != n:
                raise ValueError(f"term on {t.n} qubits in a sum over {n}")
        self.terms = terms
        self.n = n
        self.is_hermitian = all(t.coefficient.imag == 0.0 for t in terms)
        self._row_form = None
        self._square_form = None

    def row_form(self):
        """This sum's compiled RowForm, built on first use."""
        if self._row_form is None:
            self._row_form = RowForm(
                [t._flip for t in self.terms], [t._signs for t in self.terms],
                [t._weight for t in self.terms])
        return self._row_form

    def square_form(self):
        """RowForm of this sum's square, built on first use."""
        if self._square_form is None:
            self._square_form = self.row_form().square()
        return self._square_form

    def scaled(self, factor):
        """New sum with every coefficient multiplied by ``factor``."""
        return PauliSum(
            [PauliTerm(t.coefficient * factor, t.factors, t.n) for t in self.terms],
            self.n)

    def __len__(self):
        return len(self.terms)

    def __eq__(self, other):
        if not isinstance(other, PauliSum):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __repr__(self):
        return f"PauliSum({len(self.terms)} terms, n={self.n})"


def _run_starts(*keys):
    """Indices where a run of equal key tuples begins, for sorted keys."""
    head = np.zeros(keys[0].size, dtype=bool)
    head[:1] = True
    for k in keys:
        head[1:] |= k[1:] != k[:-1]
    return np.flatnonzero(head)


class RowForm:
    """Rows of a Pauli sum compiled for batch evaluation.

    Each Pauli string is an int64 pair (flip, signs) with a complex weight:
    row x holds weight * (-1)^{popcount(x & signs)} at column x ^ flip.
    Strings with equal pairs are merged (summed in input order) and exact
    zeros dropped; the rest are sorted by flip, so the strings landing on
    one column form a contiguous group starting at ``starts[g]``.
    """

    __slots__ = ("flips", "signs", "weights", "starts")

    def __init__(self, flips, signs, weights):
        flips = np.asarray(flips, dtype=np.int64)
        signs = np.asarray(signs, dtype=np.int64)
        weights = np.asarray(weights, dtype=np.complex128)
        order = np.lexsort((signs, flips))  # stable: merges sum in input order
        flips, signs, weights = flips[order], signs[order], weights[order]
        first = _run_starts(flips, signs)
        weights = np.add.reduceat(weights, first)
        keep = weights != 0.0
        self.flips = flips[first][keep]
        self.signs = signs[first][keep]
        self.weights = weights[keep]
        self.starts = _run_starts(self.flips)

    def square(self):
        """RowForm of the square, as sum_i T_i^2 + sum_{i<j} {T_i, T_j}.

        The product T_i T_j has flip f_i ^ f_j, signs s_i ^ s_j and weight
        w_i w_j (-1)^{popcount(f_i & s_j)}.  Since w_i w_j == w_j w_i
        bitwise, an anticommutator is either exactly 2 T_i T_j or exactly
        zero, so anticommuting pairs vanish before any merging.
        """
        i, j = np.triu_indices(self.weights.size)
        fi, fj = self.flips[i], self.flips[j]
        si, sj = self.signs[i], self.signs[j]
        wij = self.weights[i] * self.weights[j]
        # bitwise_count returns uint8: make the signs float before negating
        sign_ij = 1.0 - 2.0 * (np.bitwise_count(fi & sj) & 1)
        sign_ji = 1.0 - 2.0 * (np.bitwise_count(fj & si) & 1)
        return RowForm(fi ^ fj, si ^ sj,
                       np.where(i == j, wij * sign_ij, wij * (sign_ij + sign_ji)))

    def rows(self, x):
        """Grouped rows at the indices x: (cols, vals), each (len(x), G).

        One column and one merged value per flip group; a value may be an
        exact zero where the group's strings cancel on that row.
        """
        xs = np.atleast_1d(np.asarray(x, dtype=np.int64))
        odd = (np.bitwise_count(xs[:, None] & self.signs) & 1).astype(bool)
        vals = np.add.reduceat(np.where(odd, -self.weights, self.weights),
                               self.starts, axis=1)
        return xs[:, None] ^ self.flips[self.starts], vals


def identity_sum(n, coefficient=1.0):
    """coefficient * I on n qubits."""
    return PauliSum([PauliTerm(coefficient, {}, n)], n)


def apply_term_row(t, x):
    """The unique nonzero entry (column, value) of row x of term t.

    value = coefficient * (-i)^{#Y} * (-1)^{popcount(x & yz_mask)} and
    column = x XOR flip_mask.  Vectorizes over an array of row indices.
    """
    xs = np.asarray(x, dtype=np.int64)
    col = xs ^ t._flip
    parity = np.bitwise_count(xs & t._signs) & 1
    val = t._weight * (1.0 - 2.0 * parity)
    if xs.ndim == 0:
        return int(col), complex(val)
    return col, val


def expand_rows(h, x):
    """Column indices and values of rows x, one slot per term, unmerged.

    Returns arrays of shape (len(x), len(h.terms)).
    """
    xs = np.atleast_1d(np.asarray(x, dtype=np.int64))
    cols = np.empty((xs.size, len(h.terms)), dtype=np.int64)
    vals = np.empty((xs.size, len(h.terms)), dtype=np.complex128)
    for j, t in enumerate(h.terms):
        c, v = apply_term_row(t, xs)
        cols[:, j] = c
        vals[:, j] = v
    return cols, vals


def apply_sum_row(h, x):
    """Sparse row x of h as a list of (column, value).

    Duplicate columns are merged; merged entries below MERGE_TOL are
    dropped.  Entry order follows first appearance, so it is deterministic.
    """
    merged = {}
    for t in h.terms:
        col, val = apply_term_row(t, int(x))
        merged[col] = merged.get(col, 0.0j) + val
    return [(c, v) for c, v in merged.items() if abs(v) >= MERGE_TOL]


def _amp_oracle(psi):
    # anything exposing .amp(indices), else a bare callable on indices
    return psi.amp if hasattr(psi, "amp") else psi


def _apply_form(form, psi, x):
    amp = _amp_oracle(psi)
    xs = np.asarray(x, dtype=np.int64)
    cols, vals = form.rows(xs)
    amps = np.asarray(amp(cols.reshape(-1)), dtype=np.complex128).reshape(cols.shape)
    out = (vals * amps).sum(axis=1)
    return complex(out[0]) if xs.ndim == 0 else out


def apply_to_state(h, psi, x):
    """(H psi)(x): grouped row values of H times the amplitudes at their
    columns, one amplitude read per distinct column.

    psi is an amplitude oracle (a Wavefunction or a callable on index
    arrays).  Vectorizes over an array of rows.
    """
    return _apply_form(h.row_form(), psi, x)


def apply_squared_row(a, psi, x):
    """(A^2 psi)(x) for Hermitian a, from the rows of its compiled square.

    Costs one amplitude read per distinct flip mask f_i ^ f_j of the
    square's strings.
    """
    if not a.is_hermitian:
        raise ValueError("A must be Hermitian (real coefficients)")
    return _apply_form(a.square_form(), psi, x)


def embed_hermitian(a):
    """Hermitian dilation of an arbitrary sum a onto n+1 qubits.

    The ancilla becomes qubit 0 and original qubits shift up by one, giving
    the block matrix [[0, a], [a^H, 0]]: each term c*P contributes
    Re(c)*(X_anc (x) P) - Im(c)*(Y_anc (x) P), with zero parts skipped.
    """
    out = []
    for t in a.terms:
        shifted = {q + 1: letter for q, letter in t.factors.items()}
        re, im = t.coefficient.real, t.coefficient.imag
        if re != 0.0:
            out.append(PauliTerm(re, {0: "X", **shifted}, t.n + 1))
        if im != 0.0:
            out.append(PauliTerm(-im, {0: "Y", **shifted}, t.n + 1))
    return PauliSum(out, a.n + 1)


def term_to_dense(t, limit=DENSE_MATRIX_LIMIT):
    """Dense 2^n x 2^n matrix of a single term; refuses n beyond ``limit``."""
    if t.n > limit:
        raise CapabilityError(f"dense materialization limited to n <= {limit}")
    m = np.array([[t.coefficient]], dtype=complex)
    for q in range(t.n):
        m = np.kron(m, PAULI_MATRICES[t.factors.get(q, "I")])
    return m


def to_dense(h, limit=DENSE_MATRIX_LIMIT):
    """Dense matrix of a sum; refuses n beyond ``limit``."""
    if h.n > limit:
        raise CapabilityError(
            f"dense materialization limited to n <= {limit}, got n={h.n}")
    dim = 1 << h.n
    out = np.zeros((dim, dim), dtype=complex)
    for t in h.terms:
        out += term_to_dense(t, limit)
    return out


def _parse_float(token):
    try:
        return float(token)
    except ValueError:
        return None


def parse_term_line(line, n, lineno=0):
    """One term: 1-2 leading floats (real [imag]) then Pauli tokens.

    Tokens look like X3 / Y0 / Z12, or a literal I for the identity term.
    """
    tokens = line.split()
    coefs = []
    i = 0
    while i < len(tokens) and i < 2:
        v = _parse_float(tokens[i])
        if v is None:
            break
        coefs.append(v)
        i += 1
    if not coefs:
        raise ParseError(f"line {lineno}: term needs a leading coefficient: {line!r}")
    if i == len(tokens):
        raise ParseError(f"line {lineno}: term needs Pauli tokens (or I): {line!r}")
    coefficient = complex(coefs[0], coefs[1] if len(coefs) == 2 else 0.0)
    factors = {}
    for token in tokens[i:]:
        if token == "I":
            continue
        letter, digits = token[0], token[1:]
        if letter not in ("X", "Y", "Z") or not digits.isdigit():
            raise ParseError(f"line {lineno}: malformed Pauli token {token!r}")
        q = int(digits)
        if q >= n:
            raise ParseError(f"line {lineno}: qubit index {q} out of range for n={n}")
        if q in factors:
            raise ParseError(f"line {lineno}: duplicate qubit {q} within one term")
        factors[q] = letter
    return PauliTerm(coefficient, factors, n)


def parse_pauli_sum(text, n):
    """Parse term lines (one per line, '#' comments) into a PauliSum."""
    terms = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        terms.append(parse_term_line(line, n, lineno))
    return PauliSum(terms, n)


def format_term(t):
    """Inverse of parse_term_line, round-trip exact via repr floats."""
    parts = [repr(t.coefficient.real)]
    if t.coefficient.imag != 0.0:
        parts.append(repr(t.coefficient.imag))
    if t.factors:
        parts.extend(f"{letter}{q}" for q, letter in sorted(t.factors.items()))
    else:
        parts.append("I")
    return " ".join(parts)


def format_pauli_sum(h):
    return "\n".join(format_term(t) for t in h.terms)


def parse_header(text):
    """Split file text at its required ``n=<int>`` header line.

    Returns (n, body): body yields the (line number, line) pairs after the
    header, with comments and blank lines dropped.
    """
    stripped = ((lineno, raw.split("#", 1)[0].strip())
                for lineno, raw in enumerate(text.splitlines(), start=1))
    body = ((lineno, line) for lineno, line in stripped if line)
    lineno, line = next(body, (None, None))
    if line is None:
        raise ParseError("missing n=<int> header")
    if not line.startswith("n="):
        raise ParseError(f"line {lineno}: expected header n=<int>, got {line!r}")
    try:
        n = int(line[2:])
    except ValueError:
        raise ParseError(f"line {lineno}: bad qubit count in {line!r}") from None
    if n < 1:
        raise ParseError(f"line {lineno}: qubit count must be positive")
    return n, body


def parse_operator_text(text):
    """Operator file body: required ``n=<int>`` header line, then terms."""
    n, body = parse_header(text)
    return PauliSum([parse_term_line(line, n, lineno) for lineno, line in body], n)


def load_operator(path):
    return parse_operator_text(Path(path).read_text(encoding="utf-8"))


def save_operator(h, path):
    body = format_pauli_sum(h)
    text = f"n={h.n}\n" + (body + "\n" if body else "")
    Path(path).write_text(text, encoding="utf-8")
