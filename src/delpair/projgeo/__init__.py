"""Exact projective geometry: Plücker and Segre labs over Q and F_p.

Rational computations run on integer closed forms and finite-field ones on
plain ints mod p; ``linalg`` holds the shared helpers on them.
"""
