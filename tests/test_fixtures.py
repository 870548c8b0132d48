"""Built-in inputs and the stored reference evolution."""

import numpy as np
import pytest

from diffca.engine import CELL_DTYPE, evolve
from diffca.fixtures import (
    DEFAULT_EVOLUTION,
    FIXTURE_IDS,
    UnknownFixture,
    load_fixture,
)


def test_every_id_loads():
    assert set(FIXTURE_IDS) == {"default-p", "p1", "p1-new", "a1", "a2"}
    for fid in FIXTURE_IDS:
        row = load_fixture(fid)
        assert row.size > 0
        assert row.dtype == CELL_DTYPE and not row.flags.writeable  # callers cannot edit a fixture


def test_unknown_ids_are_rejected_by_name():
    with pytest.raises(UnknownFixture) as exc:
        load_fixture("p2")
    assert "p2" in str(exc.value)
    for fid in FIXTURE_IDS:
        assert fid in str(exc.value)  # the message lists what exists


@pytest.mark.parametrize(
    "fid, length",
    [("default-p", 19), ("p1", 8), ("p1-new", 16), ("a1", 101), ("a2", 67)],
)
def test_fixture_lengths(fid, length):
    assert len(load_fixture(fid)) == length


def test_default_p_is_a_palindrome():
    row = load_fixture("default-p")
    assert np.array_equal(row, row[::-1])


def test_p1_new_extends_p1_symmetrically():
    p1 = load_fixture("p1").tolist()
    assert load_fixture("p1-new").tolist() == p1 + p1[::-1]


def test_a1_is_a_centered_impulse():
    row = load_fixture("a1")
    assert row.sum() == 1
    assert np.flatnonzero(row).tolist() == [50]
    assert row.size == 101


def test_a2_is_a_digit_row():
    row = load_fixture("a2")
    assert row.max() <= 9
    assert row.max() > 1  # not a binary row: the impulse comparison
    # falls back to a centered 1 for this fixture


def test_stored_evolution_is_consistent_with_the_rule():
    # integrity of the transcription: re-deriving from its own first row
    # must reproduce every stored row
    p = evolve(list(DEFAULT_EVOLUTION[0]))
    assert p.to_lists() == [list(row) for row in DEFAULT_EVOLUTION]


def test_stored_evolution_matches_the_fixture_row():
    assert tuple(load_fixture("default-p").tolist()) == DEFAULT_EVOLUTION[0]
