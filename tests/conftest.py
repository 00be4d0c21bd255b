"""Fixtures that run gamma1 on the Moulinec-Suquet reference table.

Every solve reads Willot's rotated Green table, ``spectral_ops._green_table``.
The spectral table, ``spectral_ops._spectral_table``, has no public switch;
these fixtures put it in place of the rotated one for one test.
"""

import pytest

import fftcond.spectral_ops as spectral_ops


@pytest.fixture
def spectral_green(monkeypatch):
    """gamma1 reads the spectral table for the length of the test."""
    monkeypatch.setattr(spectral_ops, "_green_table", spectral_ops._spectral_table)


@pytest.fixture(params=["rotated", "spectral"])
def green(request, monkeypatch):
    """The name of the Green operator that gamma1 reads in this run of the test."""
    if request.param == "spectral":
        monkeypatch.setattr(spectral_ops, "_green_table", spectral_ops._spectral_table)
    return request.param
