import random

import pytest

from tiersim import Trace, TraceRecord

from conftest import random_records, small_config


def reference_random_records(n, host_space_bytes, seed, write_fraction=0.5,
                             page_bytes=4096, sizes=(8, 16, 64, 128)):
    """The plain definition `random_records` packs: a list of records drawn
    with the same RNG calls in the same order."""
    rng = random.Random(seed)
    pages = host_space_bytes // page_bytes
    records = []
    for _ in range(n):
        page = rng.randrange(pages)
        off = rng.randrange(0, page_bytes, 8)
        size = min(rng.choice(sizes), 128 - off % 128)
        kind = "W" if rng.random() < write_fraction else "R"
        records.append(TraceRecord(kind, page * page_bytes + off, size))
    return records


# Every write fraction the suite passes to random_records.
@pytest.mark.parametrize("write_fraction", [0.2, 0.3, 0.4, 0.5, 0.6, 0.8])
@pytest.mark.parametrize("seed", [0, 7, 31])
def test_random_records_match_the_reference(seed, write_fraction):
    space = small_config().host_space_bytes
    packed = random_records(2000, space, seed, write_fraction)
    expected = reference_random_records(2000, space, seed, write_fraction)
    assert isinstance(packed, Trace)
    assert packed == expected
    kinds = {rec.kind for rec in expected}
    assert kinds == {"R", "W"}
