"""Fixtures shared by the test modules."""

import pytest

from girthforge.gf import make_field


@pytest.fixture
def fresh_fields():
    """Empty make_field's cache, so that the test's fields build their
    tables and rows anew."""
    make_field.cache_clear()
