"""Pauli-string operators with O(n) sparse row lookup.

An operator is a weighted sum of tensor products of single-qubit Pauli
factors, with identity on every qubit a term does not name.  Each product
term has exactly one nonzero entry per row of its dense matrix, so row x of
a T-term sum can be recovered in O(n*T) work without ever touching the
2^n-dimensional space.

Every merged row is read from a sum's RowForm, compiled once and cached on
the sum: terms merged on their (flip, signs) masks and grouped by flip
mask, so a row costs one parity per distinct Pauli string and yields one
value per distinct column.  apply_sum_row is that row for one index, with
exactly cancelling groups left out; expand_rows alone keeps one unmerged
slot per term.  The square A^2 is compiled the same way from
the pairwise products of A's strings, so (A^2 psi)(x) reads one amplitude
per distinct column of row x of A^2: at most T(T+1)/2 for a T-term sum,
and far fewer when strings share flip masks.

Whole-basis matrices are laid out from the same compiled rows: to_sparse
as CSR, compiled once per sum and read-only, the one matrix training and
the exact oracle multiply by, and to_dense as that CSR made dense.

Bit convention, fixed across the package: qubit 0 is the most significant
bit of a basis index, so a term's matrix is the tensor product factor_0
(x) factor_1 (x) ... (x) factor_{n-1} in that order.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .errors import CapabilityError, ParseError

# Largest qubit count for anything that enumerates the 2^n basis: dense
# vectors, to_sparse and with it training's whole-basis energies, the exact
# oracle and the CLI's --dense-limit default.
DENSE_LIMIT = 14

# Largest qubit count for full 2^n x 2^n matrices (16 MiB at n = 10, 4 GiB
# at 14): to_dense's default, and the oracle's switch from LAPACK to sparse.
DENSE_MATRIX_LIMIT = 10


class PauliTerm:
    """coefficient * (product of X/Y/Z factors) on n qubits.

    ``factors`` maps qubit index -> letter; absent qubits carry identity.
    The row action is precomputed into two bit masks: flipping X/Y bits
    selects the column, and the parity of x against the Y/Z bits fixes the
    sign.  The constant phase (-i)^{#Y} is folded into ``_weight``.  The
    coefficient must be finite.
    """

    __slots__ = ("coefficient", "factors", "n", "_flip", "_signs", "_weight")

    def __init__(self, coefficient, factors, n):
        n = int(n)
        if n < 1:
            raise ValueError("need at least one qubit")
        coefficient = complex(coefficient)
        if not np.isfinite(coefficient):
            raise ValueError(f"coefficient must be finite, got {coefficient!r}")
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
        self.coefficient = coefficient
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
        self._sparse = None

    def _term_masks(self):
        """(flips, signs, weights) arrays, one entry per term, in term order."""
        return (np.array([t._flip for t in self.terms], dtype=np.int64),
                np.array([t._signs for t in self.terms], dtype=np.int64),
                np.array([t._weight for t in self.terms], dtype=np.complex128))

    def row_form(self):
        """This sum's compiled RowForm, built on first use."""
        if self._row_form is None:
            self._row_form = RowForm(*self._term_masks())
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


def _signed_weights(xs, signs, weights):
    """weights * (-1)^{popcount(x & signs)}: one row per x in xs, one
    column per (signs, weight) string."""
    odd = (np.bitwise_count(xs[:, None] & signs) & 1).astype(bool)
    return np.where(odd, -weights, weights)


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
        vals = np.add.reduceat(_signed_weights(xs, self.signs, self.weights),
                               self.starts, axis=1)
        return xs[:, None] ^ self.flips[self.starts], vals


def expand_rows(h, x):
    """Column indices and values of rows x, one slot per term, unmerged.

    Returns arrays of shape (len(x), len(h.terms)), slots in term order:
    repeated and cancelling strings keep a slot each.
    """
    xs = np.atleast_1d(np.asarray(x, dtype=np.int64))
    flips, signs, weights = h._term_masks()
    return xs[:, None] ^ flips, _signed_weights(xs, signs, weights)


def apply_sum_row(h, x):
    """Sparse row x of h as a list of (column, value), read from
    h.row_form().rows: one entry per flip group, in group order, with the
    groups whose strings cancel exactly on row x left out."""
    cols, vals = h.row_form().rows([x])
    return [(c, v) for c, v in zip(cols[0].tolist(), vals[0].tolist()) if v != 0.0]


def _check_qubits(op, **states):
    """Raise ValueError unless each named state is on op's qubits."""
    for name, state in states.items():
        if state.n != op.n:
            raise ValueError(f"{name} is on {state.n} qubits but the operator on {op.n}")


def _rescale(values, scale):
    """values * scale with the real and imaginary parts scaled apart: a part
    the scale overflows becomes +-inf, and an exact zero part stays zero
    rather than 0 * inf = nan.  scale broadcasts against values."""
    values = np.asarray(values, dtype=np.complex128)
    out = np.empty_like(values)
    with np.errstate(over="ignore", invalid="ignore"):
        out.real = np.where(values.real != 0.0, values.real * scale, values.real)
        out.imag = np.where(values.imag != 0.0, values.imag * scale, values.imag)
    return out


def _log_row_sums(vals, log_ratios):
    """Row sums of vals * exp(log_ratios) where they overflow or lose psi(x).

    Each row is scaled by its own largest real log ratio, so its terms stay
    finite and none underflows against another row's, and _rescale restores
    the row's scale.
    """
    top = log_ratios.real.max(axis=1)
    sums = (vals * np.exp(log_ratios - top[:, None])).sum(axis=1)
    with np.errstate(over="ignore"):
        return _rescale(sums, np.exp(top))


def apply_to_state(h, psi, x):
    """(H psi)(x): grouped row values of H times the amplitudes at their
    columns, one amplitude read per distinct column.

    psi is a Wavefunction on h's qubits, else ValueError; its amp is read
    at the columns, which keeps a stored vector's exact zeros.  A row where
    a model's amplitude overflows is summed again by _log_row_sums, from
    log_amp.  Vectorizes over an array of rows.
    """
    _check_qubits(h, psi=psi)
    xs = np.asarray(x, dtype=np.int64)
    cols, vals = h.row_form().rows(xs)
    with np.errstate(over="ignore", invalid="ignore"):
        amps = np.asarray(psi.amp(cols.reshape(-1)), dtype=np.complex128).reshape(cols.shape)
        out = (vals * amps).sum(axis=1)
    bad = ~np.isfinite(amps).all(axis=1)
    if bad.any():
        log_amps = np.asarray(psi.log_amp(cols[bad].reshape(-1)), dtype=np.complex128)
        out[bad] = _log_row_sums(vals[bad], log_amps.reshape(-1, cols.shape[1]))
    return complex(out[0]) if xs.ndim == 0 else out


def to_sparse(h, limit=DENSE_LIMIT):
    """CSR matrix of h from its compiled rows; refuses n beyond ``limit``.

    Row x holds h.row_form().rows(x): one entry per flip group, in group
    order, so every row has the same number of entries.  An entry whose
    strings cancel on that row is kept as an explicit zero.  The matrix is
    built once, cached on h and returned read-only by every later call.
    """
    if h.n > limit:
        raise CapabilityError(
            f"whole-basis matrices limited to n <= {limit}, got n={h.n}")
    if h._sparse is None:
        dim = 1 << h.n
        cols, vals = h.row_form().rows(np.arange(dim, dtype=np.int64))
        h._sparse = sp.csr_matrix((vals.ravel(), cols.ravel(),
                                   np.arange(dim + 1) * cols.shape[1]), shape=(dim, dim))
        for part in (h._sparse.data, h._sparse.indices, h._sparse.indptr):
            part.flags.writeable = False
    return h._sparse


def to_dense(h, limit=DENSE_MATRIX_LIMIT):
    """Dense matrix of a sum, to_sparse(h) made dense; refuses n beyond
    ``limit``."""
    if h.n > limit:
        raise CapabilityError(
            f"dense matrices limited to n <= {limit}, got n={h.n}")
    return to_sparse(h, limit).toarray()


def _parse_float(token):
    try:
        return float(token)
    except ValueError:
        return None


def parse_term_line(line, n, lineno=0):
    """One term: 1-2 leading floats (real [imag]) then Pauli tokens.

    Tokens look like X3 / Y0 / Z12, or a literal I for the identity term.
    Each fault raises ParseError naming the line.
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
    try:
        return PauliTerm(coefficient, factors, n)
    except ValueError as exc:  # the tokens are checked: a non-finite coefficient
        raise ParseError(f"line {lineno}: {exc}: {line!r}") from None


def _numbered_lines(text):
    """(line number, line) for each line of text that is not blank once its
    '#' comment is stripped."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_pauli_sum(text, n):
    """Parse term lines (one per line, '#' comments) into a PauliSum."""
    return PauliSum([parse_term_line(line, n, lineno)
                     for lineno, line in _numbered_lines(text)], n)


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
    body = _numbered_lines(text)
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
