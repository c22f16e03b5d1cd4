"""Inspect sparse rows of a Pauli-string operator without building its matrix."""

import numpy as np

from vnls import PauliSum, PauliTerm, apply_sum_row, parse_pauli_sum, to_dense


def main():
    n = 3
    h = parse_pauli_sum("0.5 X0\n-0.25 Z1 Z2\n1.5 I", n)
    print(f"operator on {n} qubits, {len(h)} terms, Hermitian: {h.is_hermitian}")

    # one entry per flip group whose strings do not cancel on the row, read
    # from the compiled rows; the lookup costs one parity per distinct string
    for x in range(1 << n):
        entries = apply_sum_row(h, x)
        pretty = ", ".join(f"[{col:03b}] {val.real:+.2f}" for col, val in entries)
        print(f"row {x:03b}: {pretty}")

    dense = to_dense(h)
    rebuilt = np.zeros_like(dense)
    for x in range(1 << n):
        for col, val in apply_sum_row(h, x):
            rebuilt[x, col] = val
    print("row lookup reproduces the dense matrix:",
          np.array_equal(rebuilt, dense))

    wide = PauliSum([PauliTerm(1.0, {j: "X"}, 20) for j in range(20)], 20)
    row = apply_sum_row(wide, 0b1010_1010_1010_1010_1010)
    print(f"n=20 row touched {len(row)} of {1 << 20} columns "
          "(no 2^20-sized object was built)")


if __name__ == "__main__":
    main()
