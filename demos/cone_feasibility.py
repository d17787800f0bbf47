"""Cone-triviality decisions with witnesses and certificates.

The orthant side is an exact dichotomy (two linear programs); the PSD
side settles easy cases with shortcuts and one-step probes and the rest
with one interior-point solve, which returns a re-verified witness or
certificate ("undecided" is left for boundary cases within tolerance).

Run:  python3 demos/cone_feasibility.py
"""

import numpy as np

from lyapstein import conefeas

np.set_printoptions(precision=4, suppress=True)

print("orthant: the span of (1, -1) meets the nonnegative vectors only at 0;")
print("the certificate is a strictly positive vector orthogonal to the span.")
spec = conefeas.subspace_from_vectors([np.array([1.0, -1.0])], 2)
dec = conefeas.orthant_intersection(spec)
print(f"  status: {dec.status.value}   certificate: {dec.certificate}")

print("\northant: the span of (1, 0) contains a nonnegative ray; the witness")
print("is normalized to unit coordinate sum.")
spec = conefeas.subspace_from_vectors([np.array([1.0, 0.0])], 2)
dec = conefeas.orthant_intersection(spec)
print(f"  status: {dec.status.value}   witness: {dec.witness}")

print("\nPSD: the span of the identity obviously meets the cone.")
spec = conefeas.subspace_from_matrices([np.eye(2)], 2)
dec = conefeas.psd_intersection(spec)
print(f"  status: {dec.status.value}   witness:\n{dec.witness}")

print("\nPSD: a subspace of trace-zero matrices meets the cone only at 0;")
print("the identity certifies this instantly.")
spec = conefeas.subspace_from_matrices(
    [np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])], 2)
dec = conefeas.psd_intersection(spec)
print(f"  status: {dec.status.value}   certificate:\n{dec.certificate}")

print("\nPSD: a tilted trivial instance where the trace shortcut does not")
print("apply; a definite certificate is found in the orthogonal complement.")
m1 = np.array([[1.0, 2.0], [2.0, -1.5]])
m2 = np.array([[0.0, 1.0], [1.0, 0.3]])
spec = conefeas.subspace_from_matrices([m1, m2], 2)
dec = conefeas.psd_intersection(spec)
print(f"  status: {dec.status.value}")
if dec.certificate is not None:
    print(f"  certificate (min eigenvalue "
          f"{np.linalg.eigvalsh(dec.certificate)[0]:.4g}):\n{dec.certificate}")
if dec.witness is not None:
    print(f"  witness:\n{dec.witness}")
