"""The output census (census.py): every family's digest of the seeded
records is the committed one, and each committed power set loads back to
the JSON it was read from."""

import json

from hadamard_powers.cones import FAMILIES
from hadamard_powers.exponents import HSet

import census


def test_the_census_digests_are_the_committed_ones():
    committed = [json.loads(line) for line in
                 census.RECORDS_FILE.read_text(encoding="utf-8").splitlines()]
    want = json.loads(census.DIGESTS_FILE.read_text(encoding="utf-8"))
    assert census.digests(committed) == want, "census.jsonl does not give its digests"
    records = list(census.census_records())
    moved = [rec["index"] for rec, old in zip(records, committed) if rec != old]
    assert len(records) == len(committed) and census.digests(records) == want, (
        f"{len(moved)} census records moved, first at indices {moved[:10]}")
    for rec in committed:
        for family in FAMILIES:
            data = rec[family]["hset"]
            assert census._line(HSet.from_json(data).to_json()) == census._line(data), (
                rec["index"], family)
