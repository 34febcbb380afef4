"""Signed p-adic L-series approximations and gcd audits at supersingular primes."""

__version__ = "0.1.2"
