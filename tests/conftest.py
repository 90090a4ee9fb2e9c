"""Fixtures shared by the test modules."""

import sys

import pytest

from cyclezeta import spaces


@pytest.fixture
def block_sieves(monkeypatch):
    """A call that makes every prime sieve of the package raise until the
    test ends.

    Each name that a loaded ``cyclezeta`` module binds to a sieve entry
    point (``spaces.sieve`` or ``spaces.primes_upto``) is replaced, and
    the table that ``is_prime`` reads, which every sieve replaces, must
    still be the same object when the test ends.
    """
    tables = []

    def block():
        entries = (spaces.sieve, spaces.primes_upto)

        def refused(limit):
            raise AssertionError(f"sieved up to {limit}")

        for name, module in list(sys.modules.items()):
            if name == "cyclezeta" or name.startswith("cyclezeta."):
                for attr, value in list(vars(module).items()):
                    if any(value is entry for entry in entries):
                        monkeypatch.setattr(module, attr, refused)
        tables.append(spaces._sieve_flags)

    yield block
    assert all(spaces._sieve_flags is table for table in tables), "a sieve ran"
