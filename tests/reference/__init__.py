"""Frozen reference implementations that optimised or simplified code is
checked against in differential tests."""
