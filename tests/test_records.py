"""The records' contract (``record_contract.py``) under pytest: each
check on each of ``Crossing``, ``Edge``, ``Face`` and ``TwistRegion``."""

from __future__ import annotations

import pytest

from record_contract import CHECKS, RECORDS


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: r[0].__name__)
@pytest.mark.parametrize("check", CHECKS, ids=lambda c: c.__name__)
def test_record_contract(check, record):
    check(*record)
