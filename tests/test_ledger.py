"""The depth-2 pools and the near-coincident table against the committed ledger."""

import pytest

import ledger


@pytest.fixture(scope="module")
def committed():
    return ledger.load()


@pytest.mark.parametrize("name", ledger.FAST)
def test_pool_matches_the_committed_ledger(committed, name):
    """Outcomes, raise messages, per-phase counts and recovered networks, run
    by run.  A change that moves any of them re-takes the pool with
    `python tests/ledger.py --write` and reports `--diff` in CHANGES.md."""
    got = ledger.run_pool(name)
    assert not ledger.diff_pool(committed[name], got)
    assert got == committed[name]


def test_the_ledger_names_every_pool(committed):
    assert list(committed) == list(ledger.POOLS)
