"""Full-result identity: each case's result digest and event ids are pinned.

The parity goldens pin chosen numbers; these pin everything a run
reports.  Each case of ``tests/record_identity_digests.py`` is run to
completion and must give the SHA-256 of ``canonical_json(result)`` and
the number of event ids recorded in ``tests/data/identity_digests.json``,
so a refactor that is meant to change no behaviour can show that it
changed none.  The cases run in one child interpreter under the recorded
``PYTHONHASHSEED``.
"""

from __future__ import annotations

import json

import pytest

from record_identity_digests import CASES, DIGESTS, collect

GOLDEN = json.loads(DIGESTS.read_text())


@pytest.fixture(scope="module")
def computed():
    return collect(GOLDEN["hash_seed"])


def test_the_golden_covers_every_case():
    assert sorted(GOLDEN["cases"]) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_result_digest_and_event_ids(computed, case):
    assert computed[case] == GOLDEN["cases"][case]
