import seeded_outputs


def test_seeded_outputs_do_not_depend_on_the_worker_count():
    """Every entry of the seeded-output manifest, public estimators and CLI
    commands on every kind, hashes the same at 1 and 2 workers; entries at
    `seeded_outputs.TWO_CHUNKS` give the second worker a chunk of its own."""
    one = seeded_outputs.hashes(workers=1)
    assert len(one) >= 40
    assert seeded_outputs.hashes(workers=2) == one
